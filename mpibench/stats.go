package main

import (
	"math/rand"
	"slices"
)

// reservoirCap bounds the round samples kept per slice, so the
// benchmark's own memory does not grow with the rate it measures
// (heap_MB would otherwise read the benchmark, not the library).
const reservoirCap = 1 << 12

// samples keeps a uniform sample of (wall ns, virtual cycles) pairs of
// rank 0's rounds, of fixed capacity (reservoir sampling).
type samples struct {
	n    int64 // rounds seen
	wall []float64
	v    []float64
}

func newSamples() samples {
	return samples{wall: make([]float64, 0, reservoirCap), v: make([]float64, 0, reservoirCap)}
}

func (s *samples) add(rng *rand.Rand, wall, v float64) {
	s.n++
	if len(s.wall) < reservoirCap {
		s.wall = append(s.wall, wall)
		s.v = append(s.v, v)
		return
	}
	if i := rng.Int63n(s.n); i < reservoirCap {
		s.wall[i], s.v[i] = wall, v
	}
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank
// rule, and whether at least minAbove samples lie above it.
func quantile(xs []float64, q float64, minAbove int) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := min(int(q*float64(len(s))), len(s)-1)
	return s[i], len(s)-1-i >= minAbove
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5, 0)
	return v
}
