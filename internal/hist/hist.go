// Package hist provides allocation-free, mergeable log2-bucketed
// histograms over virtual cycles.
//
// H is a fixed-size value type: embedding it in a per-rank metrics
// registry costs no allocation, and every field is updated with atomic
// adds or a CAS, so peer goroutines (a sender depositing into the
// receiver's endpoint) can record observations into another rank's
// histogram without holding that rank's locks. This mirrors the
// "atomic throughout" contract of internal/metrics. An observation
// costs two locked adds (its bucket and the sum) plus a load of the
// maximum, with a CAS only when the maximum grows; the observation
// count is not stored but summed from the buckets when it is read.
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
// histogram ready for use. All methods are safe for concurrent use.
type H struct {
	buckets [NumBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

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
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations: the sum of the buckets.
func (h *H) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *H) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value (zero when empty).
func (h *H) Max() int64 { return h.max.Load() }

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

// Merge adds o's observations into h. o is read with atomic loads, so
// merging a live histogram yields a coherent-enough snapshot (each
// field individually consistent), and merging quiesced shards is exact.
func (h *H) Merge(o *H) {
	for i := 0; i < NumBuckets; i++ {
		if v := o.buckets[i].Load(); v != 0 {
			h.buckets[i].Add(v)
		}
	}
	h.sum.Add(o.sum.Load())
	om := o.max.Load()
	for {
		cur := h.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			break
		}
	}
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
	s := Snapshot{Sum: h.sum.Load(), Max: h.max.Load()}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
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
