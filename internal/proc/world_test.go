package proc

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gompi/internal/flight"
	"gompi/internal/instr"
	"gompi/internal/vtime"
)

func TestWorldGeometry(t *testing.T) {
	w := NewWorld(32, 16, 2.2e9)
	if w.Size() != 32 || w.Nodes() != 2 || w.RanksPerNode() != 16 {
		t.Fatalf("geometry = %d/%d/%d", w.Size(), w.Nodes(), w.RanksPerNode())
	}
	if w.Node(0) != 0 || w.Node(15) != 0 || w.Node(16) != 1 {
		t.Error("node mapping wrong")
	}
	if !w.SameNode(0, 15) || w.SameNode(15, 16) {
		t.Error("SameNode wrong")
	}
}

func TestWorldDefaultsSingleNode(t *testing.T) {
	w := NewWorld(8, 0, 1e9)
	if w.Nodes() != 1 {
		t.Fatalf("Nodes = %d, want 1", w.Nodes())
	}
}

func TestWorldOddNodeCount(t *testing.T) {
	w := NewWorld(10, 4, 1e9)
	if w.Nodes() != 3 {
		t.Fatalf("Nodes = %d, want 3 (ceil 10/4)", w.Nodes())
	}
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0, 1, 1e9)
}

func TestRunAllRanks(t *testing.T) {
	w := NewWorld(17, 4, 1e9)
	var n atomic.Int64
	var seen [17]atomic.Bool
	err := w.Run(func(r *Rank) error {
		n.Add(1)
		seen[r.ID()].Store(true)
		if r.World() != w {
			t.Error("rank has wrong world")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 17 {
		t.Fatalf("ran %d ranks, want 17", n.Load())
	}
	for i := range seen {
		if !seen[i].Load() {
			t.Errorf("rank %d never ran", i)
		}
	}
}

func TestRunCollectsErrors(t *testing.T) {
	w := NewWorld(4, 4, 1e9)
	boom := errors.New("boom")
	err := w.Run(func(r *Rank) error {
		if r.ID() == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "rank 2") {
		t.Errorf("error does not identify the failing rank: %v", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	w := NewWorld(3, 3, 1e9)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1 panicked") {
		t.Fatalf("err = %v, want rank 1 panic", err)
	}
}

func TestRankMeter(t *testing.T) {
	w := NewWorld(1, 1, 2.2e9)
	r := w.Rank(0)
	r.Charge(instr.Mandatory, 10)
	r.ChargeCycles(instr.Transport, 100)
	if r.Profile().Total() != 10 {
		t.Errorf("Total = %d, want 10", r.Profile().Total())
	}
	if r.Now() != 110 {
		t.Errorf("Now = %d, want 110", r.Now())
	}
	r.Sync(500)
	if r.Now() != 500 {
		t.Errorf("Sync: Now = %d, want 500", r.Now())
	}
	if r.Clock().Hz() != 2.2e9 {
		t.Error("clock frequency lost")
	}
}

func TestStartBarrier(t *testing.T) {
	const n = 8
	w := NewWorld(n, 4, 1e9)
	var before, after atomic.Int64
	err := w.Run(func(r *Rank) error {
		before.Add(1)
		r.StartBarrier()
		// Every rank must have passed "before" by now.
		if before.Load() != n {
			t.Errorf("rank %d passed barrier with only %d arrivals", r.ID(), before.Load())
		}
		after.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.Load() != n {
		t.Fatalf("after = %d", after.Load())
	}
}

func TestBarrierReusable(t *testing.T) {
	b := newBarrier(3)
	var phase atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				b.await()
				phase.Add(1)
				b.await()
				if got := phase.Load(); got%3 != 0 && got < int64(3*(k+1)) {
					// Between the two barriers all three must have
					// bumped phase for this round.
				}
			}
		}()
	}
	wg.Wait()
	if phase.Load() != 150 {
		t.Fatalf("phase = %d, want 150", phase.Load())
	}
}

// Property: node mapping partitions ranks into contiguous blocks of
// ranksPerNode.
func TestNodeMappingProperty(t *testing.T) {
	f := func(size, rpn uint8) bool {
		n := int(size%64) + 1
		k := int(rpn%8) + 1
		w := NewWorld(n, k, 1e9)
		for r := 0; r < n; r++ {
			if w.Node(r) != r/k {
				return false
			}
		}
		return w.Nodes() == (n+k-1)/k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// chargeMix drives a seeded mix of instruction charges, cycle charges
// and clock syncs (some into the past, which must not move the clock).
func chargeMix(r *Rank, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		switch rng.Intn(3) {
		case 0:
			r.Charge(instr.Category(rng.Intn(int(instr.Transport))), rng.Int63n(300))
		case 1:
			r.ChargeCycles(instr.Transport+instr.Category(rng.Intn(2)), rng.Int63n(5000))
		default:
			r.Sync(r.Now() + vtime.Time(rng.Int63n(4000)-2000))
		}
	}
}

// The single-writer form adds the same integers in the same order as
// the atomic form, so a seeded charge mix must leave both ranks with
// bit-identical profiles and clocks, on the x86 CPI and the BG/Q one.
func TestSingleWriterMatchesShared(t *testing.T) {
	for _, cpi := range []float64{1, 6} {
		for seed := int64(1); seed <= 5; seed++ {
			shared := NewWorld(1, 1, 2.2e9)
			single := NewWorld(1, 1, 2.2e9)
			single.SetThreadMultiple(false)
			shared.SetInstrCPI(cpi)
			single.SetInstrCPI(cpi)
			a, b := shared.Rank(0), single.Rank(0)
			chargeMix(a, seed, 5000)
			chargeMix(b, seed, 5000)
			if da, db := a.Profile().Delta(instr.Snapshot{}), b.Profile().Delta(instr.Snapshot{}); da != db {
				t.Errorf("cpi %v seed %d: profiles differ:\nshared %+v\nsingle %+v", cpi, seed, da, db)
			}
			if a.Now() != b.Now() {
				t.Errorf("cpi %v seed %d: clocks differ: shared %d, single %d", cpi, seed, a.Now(), b.Now())
			}
		}
	}
}

// Under MPI_THREAD_MULTIPLE several goroutines charge one rank; every
// charge must land (exact totals, and clean under -race).
func TestSharedRankConcurrentCharges(t *testing.T) {
	const goroutines, per = 8, 4000
	w := NewWorld(1, 1, 2.2e9)
	w.SetThreadMultiple(true)
	r := w.Rank(0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Charge(instr.Mandatory, int64(g+1))
				r.ChargeCycles(instr.Transport, 2)
				r.Sync(0)
			}
		}(g)
	}
	wg.Wait()
	wantInstr := int64(per * goroutines * (goroutines + 1) / 2)
	wantCycles := wantInstr + 2*per*goroutines
	if got := r.Profile().Total(); got != wantInstr {
		t.Errorf("Total = %d, want %d", got, wantInstr)
	}
	if got := r.Profile().Cycles(); got != wantCycles {
		t.Errorf("Cycles = %d, want %d", got, wantCycles)
	}
	if got := int64(r.Now()); got != wantCycles {
		t.Errorf("Now = %d, want %d", got, wantCycles)
	}
	if r.Published() != r.Now() {
		t.Errorf("shared clock: Published = %d, want the live clock %d", r.Published(), r.Now())
	}
}

// A single-writer clock is visible to other goroutines only as last
// published; the rank publishes when its body returns.
func TestPublishedClock(t *testing.T) {
	w := NewWorld(2, 1, 2.2e9)
	w.SetThreadMultiple(false)
	r := w.Rank(0)
	r.ChargeCycles(instr.Compute, 100)
	if r.Published() != 0 {
		t.Errorf("Published before Publish = %d, want 0", r.Published())
	}
	r.Publish()
	r.ChargeCycles(instr.Compute, 50)
	if r.Published() != 100 {
		t.Errorf("Published = %d, want 100", r.Published())
	}
	if err := w.Run(func(r *Rank) error {
		r.ChargeCycles(instr.Compute, 1000)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := w.Rank(0).Published(); got != 1150 {
		t.Errorf("Published after Run = %d, want 1150", got)
	}
	if got := w.Rank(1).Published(); got != 1000 {
		t.Errorf("rank 1 Published after Run = %d, want 1000", got)
	}
}

// TestPublishFlushesFlight: the thread level selects the registry's
// form too. Below MPI_THREAD_MULTIPLE the flight ring is published with
// the clock, so a dump reader sees events only as of the last Publish;
// under it every event is visible at once.
func TestPublishFlushesFlight(t *testing.T) {
	for _, tm := range []bool{false, true} {
		w := NewWorld(1, 1, 2.2e9)
		w.SetThreadMultiple(tm)
		r := w.Rank(0)
		r.Metrics().Flight.Record(flight.Park, 1, -1, 0, 0)
		want := uint64(0)
		if tm {
			want = 1
		}
		if got := r.Metrics().Flight.Total(); got != want {
			t.Errorf("tm=%v: events visible before Publish = %d, want %d", tm, got, want)
		}
		r.Publish()
		if got := r.Metrics().Flight.Total(); got != 1 {
			t.Errorf("tm=%v: events visible after Publish = %d, want 1", tm, got)
		}
	}
}
