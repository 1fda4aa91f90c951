// Package hist provides allocation-free, mergeable log2-bucketed
// histograms over virtual cycles.
//
// H is a fixed-size value type: embedding it in a per-rank metrics
// registry costs no allocation. How an observation lands depends on
// who writes, following instr.Profile: a histogram with one writer at
// a time (a rank below MPI_THREAD_MULTIPLE, or a caller that holds a
// lock around every write) takes plain adds (SetSingleWriter(true));
// otherwise, and in the zero value, several goroutines may observe
// concurrently and an observation costs two locked adds (its bucket
// and the sum) plus a load of the maximum, with a CAS only when the
// maximum grows. Readers always load atomically. The observation count
// is not stored but summed from the buckets when it is read.
//
// Buckets are powers of two: bucket i counts observations v with
// 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1, which includes zero).
// Percentile estimates return the upper bound of the bucket holding
// the requested quantile, so they are conservative (never under-report
// latency) and exact for the common small-value cases.
package hist

import (
	"math/bits"
	"sync/atomic"
)

// NumBuckets covers the full non-negative int64 range: bucket 63
// holds everything above 2^62.
const NumBuckets = 64

// H is a log2-bucketed histogram. The zero value is an empty
// histogram ready for use, safe for concurrent observers.
type H struct {
	_       [0]atomic.Int64   // 64-bit aligns the atomic form on 32-bit platforms
	buckets [NumBuckets]int64 // atomic unless single
	sum     int64
	max     int64
	single  bool
}

// SetSingleWriter selects plain updates (true) or atomic ones (false)
// for subsequent observations. With plain updates observations must
// not overlap: one goroutine writes (and reads), or every write and
// read holds the same lock. Call before the first observation.
func (h *H) SetSingleWriter(single bool) { h.single = single }

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	// bits.Len64(v-1) is ceil(log2(v)) for v >= 2.
	b := bits.Len64(uint64(v - 1))
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// Observe records one value. Negative values are clamped to zero:
// span observations are differences of virtual clocks that can only
// run backwards through benign races, and a clamped zero keeps the
// count honest without poisoning the distribution.
func (h *H) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.single {
		h.buckets[bucketOf(v)]++
		h.sum += v
		if v > h.max {
			h.max = v
		}
		return
	}
	atomic.AddInt64(&h.buckets[bucketOf(v)], 1)
	atomic.AddInt64(&h.sum, v)
	maxInt64(&h.max, v)
}

// maxInt64 raises *p to v with a CAS loop.
func maxInt64(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if v <= cur || atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}

// Count returns the number of observations: the sum of the buckets.
func (h *H) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += atomic.LoadInt64(&h.buckets[i])
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *H) Sum() int64 { return atomic.LoadInt64(&h.sum) }

// Max returns the largest observed value (zero when empty).
func (h *H) Max() int64 { return atomic.LoadInt64(&h.max) }

// Percentile returns a conservative estimate of the p-th percentile
// (0 < p <= 100): the upper bound of the bucket containing that
// quantile, clamped to Max. An empty histogram reports zero.
func (h *H) Percentile(p float64) int64 {
	s := h.load()
	return s.percentile(p)
}

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	if i >= 63 {
		return int64(^uint64(0) >> 1) // MaxInt64
	}
	return int64(1) << uint(i)
}

// Merge adds o's observations into h with atomic updates. o is read
// with atomic loads, so merging a live shared histogram yields a
// coherent-enough snapshot (each field individually consistent), and
// merging quiesced shards is exact.
func (h *H) Merge(o *H) {
	for i := 0; i < NumBuckets; i++ {
		if v := atomic.LoadInt64(&o.buckets[i]); v != 0 {
			atomic.AddInt64(&h.buckets[i], v)
		}
	}
	atomic.AddInt64(&h.sum, atomic.LoadInt64(&o.sum))
	maxInt64(&h.max, atomic.LoadInt64(&o.max))
}

// Snapshot is a plain-value copy of a histogram with derived
// percentiles, suitable for JSON export and cross-rank aggregation.
type Snapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`

	Buckets [NumBuckets]int64 `json:"-"`
}

// Snapshot captures the histogram's current state.
func (h *H) Snapshot() Snapshot {
	s := h.load()
	s.P50, s.P90, s.P99 = s.percentile(50), s.percentile(90), s.percentile(99)
	return s
}

// load copies the buckets, sum and max, deriving Count from the
// copied buckets so the count and the distribution always agree.
func (h *H) load() Snapshot {
	s := Snapshot{Sum: h.Sum(), Max: h.Max()}
	for i := range h.buckets {
		s.Buckets[i] = atomic.LoadInt64(&h.buckets[i])
		s.Count += s.Buckets[i]
	}
	return s
}

// Merge folds o into s, recomputing nothing: percentiles of a merged
// snapshot are derived from the combined buckets via Percentiles.
func (s *Snapshot) Merge(o Snapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	for i := 0; i < NumBuckets; i++ {
		s.Buckets[i] += o.Buckets[i]
	}
	s.P50, s.P90, s.P99 = s.percentile(50), s.percentile(90), s.percentile(99)
}

// percentile recomputes a percentile from the snapshot's buckets.
func (s *Snapshot) percentile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	// Rank of the target observation, 1-based, rounding up.
	target := int64(float64(s.Count)*p/100 + 0.9999999)
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Buckets[i]
		if cum >= target {
			ub := bucketUpper(i)
			if ub > s.Max {
				ub = s.Max
			}
			return ub
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the snapshot (zero when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
