package instr

import (
	"fmt"
	"sync/atomic"
)

// Profile accumulates instruction charges for a single rank, one
// counter per category. How a charge lands depends on who writes: a
// rank below MPI_THREAD_MULTIPLE is one goroutine, the sole writer, so
// a charge is a plain add (SetSingleWriter(true)); under
// MPI_THREAD_MULTIPLE several application goroutines drive the same
// rank concurrently and each charge is one atomic add. The zero value
// is the atomic form. Readers always load atomically. The
// MPI-instruction total and the cycle total are not stored: Total,
// Cycles, Snap and Delta sum the categories when they are read, which
// happens per call or per region, never per charge.
type Profile struct {
	counts [NumCategories]int64 // atomic unless single
	single bool
}

// SetSingleWriter selects plain adds (true) or atomic adds (false) for
// subsequent charges. With plain adds only the owning goroutine may
// charge or read the profile. Call before the rank starts charging.
func (p *Profile) SetSingleWriter(single bool) { p.single = single }

// Charge records n abstract instructions in category cat.
func (p *Profile) Charge(cat Category, n int64) {
	if p.single {
		p.counts[cat] += n
		return
	}
	atomic.AddInt64(&p.counts[cat], n)
}

// ChargeCycles records raw cycles that are not instructions executed by
// the MPI library (fabric injection latency, modeled compute time). They
// advance the clock but never appear in instruction counts.
func (p *Profile) ChargeCycles(cat Category, n int64) {
	if cat < Transport {
		panic("instr: ChargeCycles on an MPI instruction category")
	}
	if p.single {
		p.counts[cat] += n
		return
	}
	atomic.AddInt64(&p.counts[cat], n)
}

// Count returns the accumulated charge for one category.
func (p *Profile) Count(cat Category) int64 { return atomic.LoadInt64(&p.counts[cat]) }

// Total returns the accumulated MPI-library instruction count (the
// Table 1 total: everything except Transport and Compute).
func (p *Profile) Total() int64 { return p.Delta(Snapshot{}).Total }

// Cycles returns the total virtual cycles accumulated, including
// transport and compute charges.
func (p *Profile) Cycles() int64 { return p.Delta(Snapshot{}).Cycles }

// Reset zeroes the profile. Not safe against concurrent charging;
// callers reset only while the rank is quiescent.
func (p *Profile) Reset() {
	for i := range p.counts {
		atomic.StoreInt64(&p.counts[i], 0)
	}
}

// Snapshot is a point-in-time copy of a Profile, used to attribute the
// cost of a single call: snap before, call, Delta after.
type Snapshot struct {
	counts [NumCategories]int64
}

// Snap captures the current state of the profile.
func (p *Profile) Snap() Snapshot {
	var s Snapshot
	for i := range p.counts {
		s.counts[i] = atomic.LoadInt64(&p.counts[i])
	}
	return s
}

// Delta returns the charges accumulated since the snapshot was taken,
// as a Breakdown whose Total (the categories before Transport) and
// Cycles (all categories, CPI 1.0) are summed from the category deltas.
func (p *Profile) Delta(s Snapshot) Breakdown {
	var b Breakdown
	for i := range p.counts {
		b.Counts[i] = atomic.LoadInt64(&p.counts[i]) - s.counts[i]
		if Category(i) < Transport {
			b.Total += b.Counts[i]
		}
		b.Cycles += b.Counts[i]
	}
	return b
}

// Breakdown is the per-category instruction cost of one operation or one
// region — one column of Table 1.
type Breakdown struct {
	Counts [NumCategories]int64
	Total  int64
	Cycles int64
}

// Count returns the charge recorded for one category.
func (b Breakdown) Count(cat Category) int64 { return b.Counts[cat] }

// Add returns the element-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	for i := range b.Counts {
		b.Counts[i] += o.Counts[i]
	}
	b.Total += o.Total
	b.Cycles += o.Cycles
	return b
}

// Scale returns the breakdown divided by n, rounding to nearest (for
// averaging over n repetitions; truncating would silently lose up to
// n-1 counts per category on uneven totals). Exact multiples — the
// pinned single-op measurements — are unaffected. n must be positive.
func (b Breakdown) Scale(n int64) Breakdown {
	if n <= 0 {
		panic("instr: Scale by non-positive n")
	}
	div := func(v int64) int64 {
		if v >= 0 {
			return (v + n/2) / n
		}
		return (v - n/2) / n
	}
	for i := range b.Counts {
		b.Counts[i] = div(b.Counts[i])
	}
	b.Total = div(b.Total)
	b.Cycles = div(b.Cycles)
	return b
}

// String renders the breakdown as Table-1-style rows.
func (b Breakdown) String() string {
	s := ""
	for _, cat := range MPICategories {
		s += fmt.Sprintf("%-26s %4d instructions\n", cat.String(), b.Counts[cat])
	}
	s += fmt.Sprintf("%-26s %4d instructions", "Total", b.Total)
	return s
}
