package vtime

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestAdvance(t *testing.T) {
	c := NewClock(2.2e9)
	c.Advance(100)
	c.Advance(50)
	if c.Now() != 150 {
		t.Errorf("Now = %d, want 150", c.Now())
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClock(1e9).Advance(-1)
}

func TestNewClockBadHzPanics(t *testing.T) {
	for _, hz := range []float64{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClock(%v) did not panic", hz)
				}
			}()
			NewClock(hz)
		}()
	}
}

func TestSyncMonotone(t *testing.T) {
	c := NewClock(1e9)
	c.Advance(100)
	c.Sync(50) // in the past: no-op
	if c.Now() != 100 {
		t.Errorf("Sync to past moved clock: Now = %d, want 100", c.Now())
	}
	c.Sync(300)
	if c.Now() != 300 {
		t.Errorf("Sync to future: Now = %d, want 300", c.Now())
	}
}

func TestSecondsAndRate(t *testing.T) {
	c := NewClock(2.0e9)
	from := c.Now()
	c.Advance(2_000_000_000) // one second of cycles
	if got := c.Seconds(from, c.Now()); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Seconds = %v, want 1.0", got)
	}
	if got := c.Rate(4_000_000, from, c.Now()); math.Abs(got-4e6) > 1e-3 {
		t.Errorf("Rate = %v, want 4e6", got)
	}
}

func TestRateEmptyInterval(t *testing.T) {
	c := NewClock(1e9)
	if got := c.Rate(100, c.Now(), c.Now()); got != 0 {
		t.Errorf("Rate over empty interval = %v, want 0", got)
	}
}

func TestMax(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 || Max(4, 4) != 4 {
		t.Error("Max is wrong")
	}
}

// Property: any interleaving of Advance and Sync keeps the clock
// monotonically non-decreasing.
func TestMonotonicity(t *testing.T) {
	f := func(steps []int16) bool {
		c := NewClock(1e9)
		prev := c.Now()
		for _, s := range steps {
			if s >= 0 {
				c.Advance(int64(s))
			} else {
				c.Sync(Time(-int64(s) * 3))
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Advance is additive — advancing by a then b equals advancing
// by a+b.
func TestAdvanceAdditive(t *testing.T) {
	f := func(a, b uint16) bool {
		c1 := NewClock(1e9)
		c1.Advance(int64(a))
		c1.Advance(int64(b))
		c2 := NewClock(1e9)
		c2.Advance(int64(a) + int64(b))
		return c1.Now() == c2.Now()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The zero value and NewClock's default are the atomic form: goroutines
// advancing and syncing one clock concurrently lose no cycles and
// race-check clean.
func TestDefaultClockIsAtomic(t *testing.T) {
	const goroutines, per = 8, 5000
	for name, c := range map[string]*Clock{"zero": {hz: 1e9}, "NewClock": NewClock(1e9)} {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					c.Advance(int64(g + 1))
					c.Sync(Time(i))
				}
			}(g)
		}
		wg.Wait()
		// Each Sync targets a time the goroutine's own advances have
		// already passed, so it never moves the clock.
		if want := Time(per * goroutines * (goroutines + 1) / 2); c.Now() != want {
			t.Errorf("%s: Now = %d, want %d", name, c.Now(), want)
		}
	}
}
