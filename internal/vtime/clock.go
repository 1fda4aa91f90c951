// Package vtime implements the per-rank virtual clocks that replace the
// paper's wall-clock measurements on real hardware. Each rank carries a
// cycle counter advanced by the instruction-accounted MPI software path
// (CPI 1.0), by modeled application compute, and by fabric injection and
// wire latency. Messages carry the sender's clock at injection time;
// completing a receive advances the receiver's clock to at least the
// message arrival time. This is a conservative parallel-discrete-event
// approximation: it reproduces the compute/communication balance that
// shapes the paper's strong-scaling curves, deterministically.
package vtime

import "sync/atomic"

// Time is a point in virtual time, in cycles since rank spawn.
type Time int64

// Cycles is a duration in virtual cycles.
type Cycles = int64

// Clock is one rank's virtual clock. Below MPI_THREAD_MULTIPLE a rank
// is one goroutine, the clock's only writer, and SetSingleWriter(true)
// makes Advance and Sync plain updates. Under MPI_THREAD_MULTIPLE
// several application goroutines advance the same rank's clock
// concurrently, so updates are atomic; that is the zero value and
// NewClock's default. Cross-rank ordering still happens only through
// message timestamps (Sync). Both forms add the same integers in the
// same order, so virtual time is identical either way.
type Clock struct {
	now    int64 // atomic unless single
	hz     float64
	single bool
}

// NewClock returns a clock ticking at the given model frequency.
func NewClock(hz float64) *Clock {
	if hz <= 0 {
		panic("vtime: non-positive frequency")
	}
	return &Clock{hz: hz}
}

// SetSingleWriter selects plain (true) or atomic (false) updates for
// subsequent Advance and Sync calls. With plain updates only the
// owning goroutine may touch the clock; other goroutines read a value
// the owner publishes. Call before the owner starts advancing.
func (c *Clock) SetSingleWriter(single bool) { c.single = single }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return Time(atomic.LoadInt64(&c.now)) }

// Hz returns the model core frequency in cycles per second.
func (c *Clock) Hz() float64 { return c.hz }

// Advance moves the clock forward by n cycles. Negative n panics:
// virtual time never runs backward.
func (c *Clock) Advance(n Cycles) {
	if n < 0 {
		panic("vtime: negative advance")
	}
	if c.single {
		c.now += n
		return
	}
	atomic.AddInt64(&c.now, n)
}

// Sync advances the clock to t if t is in the future; a rank that waited
// for a message lands at the message's arrival time. Sync never moves
// the clock backward (a plain maximum for a single writer, a CAS
// maximum otherwise, so concurrent Syncs cannot regress the clock
// either).
func (c *Clock) Sync(t Time) {
	if c.single {
		if int64(t) > c.now {
			c.now = int64(t)
		}
		return
	}
	for {
		cur := atomic.LoadInt64(&c.now)
		if int64(t) <= cur {
			return
		}
		if atomic.CompareAndSwapInt64(&c.now, cur, int64(t)) {
			return
		}
	}
}

// Seconds converts a duration between two points on this clock to
// seconds at the model frequency.
func (c *Clock) Seconds(from, to Time) float64 {
	return float64(to-from) / c.hz
}

// Rate converts an operation count over a virtual interval into
// operations per second. It returns 0 for an empty interval.
func (c *Clock) Rate(ops int64, from, to Time) float64 {
	s := c.Seconds(from, to)
	if s <= 0 {
		return 0
	}
	return float64(ops) / s
}

// Max returns the later of two virtual times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
