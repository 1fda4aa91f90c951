package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"gompi"
)

// opts selects what one job does.
type opts struct {
	seconds float64 // length of the measured region; 0 runs set-up only
	traced  bool
	inject  faults
}

// faults corrupt one result on purpose, so the benchmark's own test
// can see its checks fire. The command line never sets them.
type faults struct {
	payload  bool // flip a byte of the first payload checked
	residual bool // perturb the first solution before its residual check
}

// workload is one of the benchmark's seeded workloads: the world it
// runs in and the per-rank body that drives it.
type workload struct {
	name  string
	why   string
	ranks int
	cfg   gompi.Config
	body  func(j *job, r *rankState) error
}

// job is one gompi.Run of a workload. Rank goroutines share it; each
// writes only its own rankState, and rank 0 alone writes the rest.
type job struct {
	in    *Inputs
	o     opts
	start time.Time // the Run call
	// stopAt is the index of the round rank 0 decided to end a loop
	// with (-1 until it decides), published before the message that
	// lets the peers read it. An index rather than a flag: rank 0 may
	// be rounds ahead of a peer when it decides.
	stopAt atomic.Int64
	ranks  []*rankState
	stats  gompi.Stats

	setup        time.Duration // Run call to the first timed round
	measureStart time.Time
	heapSetup    uint64 // HeapInuse after set-up
	heapEnd      uint64 // HeapInuse after the measured region
	mallocs      uint64 // heap allocations over the measured region
	hz           float64
	cycleOps     int64 // ops of the first schedule pass
	// slices cut rank 0's measured region into numSlices equal shares
	// of wall time; the first closed of them are complete.
	slices   []slice
	closed   int
	sliceLen time.Duration
	rng      *rand.Rand // reservoir sampling of rounds

	injectedPayload  atomic.Bool
	injectedResidual atomic.Bool
}

// slice is one equal share of the measured region's wall time on rank
// 0. Rates and round percentiles are taken per slice and reported as
// their median over the slices, so a stall on a shared host moves one
// slice, not the result.
type slice struct {
	ops    int64
	wallNs int64
	vCyc   int64
	rounds samples
}

// numSlices is how many slices the measured region is cut into.
const numSlices = 20

// rankState is one rank's private view of the job.
type rankState struct {
	p  *gompi.Proc
	tr tracer
	// Counters and metrics at the measured region's edges, and counters
	// at the edges of its first schedule pass.
	c0, c1   gompi.Counters
	pass0    gompi.Counters
	pass1    gompi.Counters
	passDone bool
	m0, m1   gompi.MetricsSnapshot

	measuring bool
	rounds    int   // rounds this rank has ended in the measured region
	ops       int64 // rank 0: ops completed in the measured region
	attempted int64 // rank 0: ops checked, set-up and measured
	failed    int64 // checks that failed on this rank

	roundStart time.Time
	roundV     int64
	sliceStart time.Time
	sliceV     int64
}

// runJob runs the workload once and returns the filled job.
func runJob(w *workload, in *Inputs, o opts) (*job, error) {
	j := &job{in: in, o: o, ranks: make([]*rankState, w.ranks),
		slices:   make([]slice, numSlices),
		sliceLen: time.Duration(o.seconds * float64(time.Second) / numSlices),
		rng:      rand.New(rand.NewSource(in.Seed))}
	for i := range j.slices {
		j.slices[i].rounds = newSamples()
	}
	j.stopAt.Store(-1)
	cfg := w.cfg
	cfg.Stats = &j.stats
	j.start = time.Now()
	err := gompi.Run(w.ranks, cfg, func(p *gompi.Proc) error {
		r := &rankState{p: p}
		r.tr.p = p
		j.ranks[p.Rank()] = r
		if p.Rank() == 0 {
			j.hz = p.ClockHz()
		}
		if err := w.body(j, r); err != nil {
			return fmt.Errorf("rank %d: %w", p.Rank(), err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return j, nil
}

// ready ends set-up on every rank: it times set-up, takes the heap and
// allocation baselines on rank 0 while the peers wait, and snapshots
// each rank's counters. It reports whether a measured region follows.
// The set-up clock stops before the forced GC that makes HeapInuse
// comparable between runs.
func (j *job) ready(r *rankState) (bool, error) {
	w := r.p.World()
	if err := w.Barrier(); err != nil {
		return false, err
	}
	if r.p.Rank() == 0 {
		j.setup = time.Since(j.start)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		j.heapSetup = ms.HeapInuse
		j.mallocs = ms.Mallocs
		j.stopAt.Store(-1) // the warm-up's decision

	}
	if err := w.Barrier(); err != nil {
		return false, err
	}
	if j.o.seconds <= 0 {
		return false, nil
	}
	r.measuring = true
	r.tr.on = j.o.traced
	r.tr.origin = j.start
	r.p.PhaseBegin("measured")
	r.c0, r.m0 = r.p.Counters(), r.p.Metrics()
	r.pass0 = r.c0
	if r.p.Rank() == 0 {
		j.measureStart = time.Now()
		r.sliceStart, r.sliceV = j.measureStart, r.p.VirtualCycles()
	}
	return true, nil
}

// finish closes the measured region: counters on every rank, then the
// allocation and heap figures on rank 0 once the peers are done.
func (j *job) finish(r *rankState) error {
	r.c1, r.m1 = r.p.Counters(), r.p.Metrics()
	r.p.PhaseEnd()
	r.measuring, r.tr.on = false, false
	if r.p.Rank() == 0 {
		// The wall time after the last slice closed is the last slice.
		if s := &j.slices[j.closed]; s.ops > 0 {
			s.wallNs, s.vCyc = r.roundStart.Sub(r.sliceStart).Nanoseconds(), r.roundV-r.sliceV
			j.closed++
		}
		j.slices = j.slices[:j.closed]
	}
	if err := r.p.World().Barrier(); err != nil {
		return err
	}
	if r.p.Rank() == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		j.mallocs = ms.Mallocs - j.mallocs
		runtime.GC()
		runtime.ReadMemStats(&ms)
		j.heapEnd = ms.HeapInuse
	}
	return nil
}

// expired is rank 0's stop test: the measured time is up and at least
// one whole schedule pass has run, so instr_per_op always has its pass.
func (j *job) expired(r *rankState) bool {
	return r.passDone && time.Since(j.measureStart).Seconds() >= j.o.seconds
}

// decide publishes rank 0's decision on whether round i ends the loop.
func (j *job) decide(i int, last bool) {
	if last {
		j.stopAt.Store(int64(i))
	}
}

// stopsAt reports whether rank 0 decided that round i ends the loop.
func (j *job) stopsAt(i int) bool { return j.stopAt.Load() == int64(i) }

// beginRound opens a round of the measured region on this rank.
func (r *rankState) beginRound() {
	if !r.measuring {
		return
	}
	r.roundStart, r.roundV = time.Now(), r.p.VirtualCycles()
	r.tr.beginRound(r.rounds, r.roundStart, r.roundV)
}

// endRound closes a round that completed ops ops (counted on rank 0).
// On rank 0 it samples the round's wall and virtual duration and
// closes the wall-clock slice the round ended in.
func (r *rankState) endRound(j *job, ops int) {
	if !r.measuring {
		r.attempted += int64(ops)
		return
	}
	now, v := time.Now(), r.p.VirtualCycles()
	r.tr.endRound(now, v)
	if r.p.Rank() == 0 {
		s := &j.slices[j.closed]
		s.rounds.add(j.rng, float64(now.Sub(r.roundStart).Nanoseconds()), float64(v-r.roundV))
		s.ops += int64(ops)
		r.ops += int64(ops)
		r.attempted += int64(ops)
		if j.closed < numSlices-1 && now.Sub(r.sliceStart) >= j.sliceLen {
			s.wallNs, s.vCyc = now.Sub(r.sliceStart).Nanoseconds(), v-r.sliceV
			j.closed++
			r.sliceStart, r.sliceV = now, v
		}
	}
	r.roundStart, r.roundV = now, v
	r.rounds++
}

// passEnd records the counters at the end of the first schedule pass
// of the measured region. Each rank calls it where its own loop starts
// the second pass.
func (r *rankState) passEnd(j *job) {
	if r.passDone {
		return
	}
	r.passDone = true
	r.pass1 = r.p.Counters()
	if r.p.Rank() == 0 {
		j.cycleOps = r.ops
	}
}

// check counts one failed check when ok is false.
func (r *rankState) check(ok bool) {
	if !ok {
		r.failed++
	}
}

// totals returns the ops attempted over the whole job and the failed
// checks of every rank, capped at the ops attempted.
func (j *job) totals() (attempted, failed int64) {
	attempted = j.ranks[0].attempted
	for _, r := range j.ranks {
		failed += r.failed
	}
	return attempted, min(failed, attempted)
}
