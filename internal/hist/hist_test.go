package hist

import (
	"math/rand"
	"sync"
	"testing"
)

func TestEmptyHistogram(t *testing.T) {
	var h H
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram not zero: count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	for _, p := range []float64{0, 50, 90, 99, 100} {
		if got := h.Percentile(p); got != 0 {
			t.Fatalf("empty histogram p%g = %d, want 0", p, got)
		}
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	if s.Mean() != 0 {
		t.Fatalf("empty snapshot mean = %g, want 0", s.Mean())
	}
}

func TestPercentileOrdering(t *testing.T) {
	var h H
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		h.Observe(rng.Int63n(1 << 20))
	}
	p50, p90, p99, max := h.Percentile(50), h.Percentile(90), h.Percentile(99), h.Max()
	if !(p50 <= p90 && p90 <= p99 && p99 <= max) {
		t.Fatalf("percentile ordering violated: p50=%d p90=%d p99=%d max=%d", p50, p90, p99, max)
	}
	if h.Count() != 5000 {
		t.Fatalf("count = %d, want 5000", h.Count())
	}
}

func TestSingleValue(t *testing.T) {
	var h H
	h.Observe(100)
	// 100 lands in bucket ceil(log2(100)) = 7, upper bound 128,
	// clamped to max=100.
	for _, p := range []float64{1, 50, 99, 100} {
		if got := h.Percentile(p); got != 100 {
			t.Fatalf("p%g = %d, want 100 (single observation clamped to max)", p, got)
		}
	}
	if h.Sum() != 100 || h.Max() != 100 || h.Count() != 1 {
		t.Fatalf("sum/max/count = %d/%d/%d", h.Sum(), h.Max(), h.Count())
	}
}

func TestNegativeClampsToZero(t *testing.T) {
	var h H
	h.Observe(-5)
	if h.Count() != 1 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("negative observation not clamped: count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	if got := h.Percentile(50); got != 0 {
		t.Fatalf("p50 after clamped observation = %d, want 0", got)
	}
}

// TestMergeShardsEqualsWhole: observing a stream into K shards and
// merging must reproduce the histogram of the whole stream exactly.
func TestMergeShardsEqualsWhole(t *testing.T) {
	const shards = 4
	var whole H
	var parts [shards]H
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8000; i++ {
		v := rng.Int63n(1 << 30)
		whole.Observe(v)
		parts[i%shards].Observe(v)
	}
	var merged H
	for i := range parts {
		merged.Merge(&parts[i])
	}
	ws, ms := whole.Snapshot(), merged.Snapshot()
	if ws != ms {
		t.Fatalf("merged shards != whole:\nwhole  %+v\nmerged %+v", ws, ms)
	}

	// Snapshot-level merge must agree too.
	var sm Snapshot
	for i := range parts {
		sm.Merge(parts[i].Snapshot())
	}
	if sm != ws {
		t.Fatalf("snapshot merge != whole:\nwhole %+v\nsnap  %+v", ws, sm)
	}
}

func TestConcurrentObserve(t *testing.T) {
	var h H
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Int63n(1 << 16))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
	var bsum int64
	s := h.Snapshot()
	for _, b := range s.Buckets {
		bsum += b
	}
	if bsum != h.Count() {
		t.Fatalf("bucket sum %d != count %d", bsum, h.Count())
	}
}

// Observe and Merge racing on one histogram: half the goroutines
// observe into it directly, the other half fill a private shard and
// merge it in, while a reader snapshots it. Every snapshot's Count is
// its own bucket sum, and at the end Count, the bucket sum and
// Snapshot().Count all equal the number of observations.
func TestConcurrentObserveMerge(t *testing.T) {
	const goroutines, per = 8, 2000
	var h H
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var bsum int64
			for _, b := range s.Buckets {
				bsum += b
			}
			if s.Count != bsum {
				t.Errorf("mid-run snapshot Count %d != bucket sum %d", s.Count, bsum)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	var sums [goroutines]int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := &h
			var shard H
			if g%2 == 1 {
				dst = &shard
			}
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				v := rng.Int63n(1 << 24)
				dst.Observe(v)
				sums[g] += v
			}
			if dst == &shard {
				h.Merge(&shard)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	const n = goroutines * per
	var sum int64
	for _, v := range sums {
		sum += v
	}
	s := h.Snapshot()
	var bsum int64
	for _, b := range s.Buckets {
		bsum += b
	}
	if h.Count() != n || bsum != n || s.Count != n {
		t.Fatalf("Count %d, bucket sum %d, Snapshot().Count %d; want %d", h.Count(), bsum, s.Count, n)
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %d, want %d", h.Sum(), sum)
	}
}

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {(1 << 20) + 1, 21},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestObserveAllocFree(t *testing.T) {
	var h H
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates: %g allocs/op", allocs)
	}
}
