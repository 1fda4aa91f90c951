package gompi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestPersistentCollCorrectness replays each persistent collective
// several times with fresh buffer contents per round: the schedule
// prologue must re-seed accumulators from the live buffers, so every
// activation computes the round's values, not the first round's.
func TestPersistentCollCorrectness(t *testing.T) {
	const ranks = 4
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		t.Run(string(dev), func(t *testing.T) {
			run(t, ranks, Config{Device: dev, Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
				w := p.World()

				bbuf := make([]byte, 16)
				bcast, err := w.BcastInit(bbuf, 16, Byte, 1)
				if err != nil {
					return err
				}
				abuf := make([]byte, 8)
				ares := make([]byte, 8)
				allred, err := w.AllreduceInit(abuf, ares, 1, Long, OpSum)
				if err != nil {
					return err
				}
				asend := make([]byte, 8*ranks)
				arecv := make([]byte, 8*ranks)
				a2a, err := w.AlltoallInit(asend, arecv, 8, Byte)
				if err != nil {
					return err
				}

				for round := 0; round < 3; round++ {
					if p.Rank() == 1 {
						for i := range bbuf {
							bbuf[i] = byte(i ^ round)
						}
					}
					binary.LittleEndian.PutUint64(abuf, uint64(p.Rank()+round))
					for i := range asend {
						asend[i] = byte(p.Rank()*ranks + i/8 + round)
					}
					for _, op := range []*PersistentColl{bcast, allred, a2a} {
						if err := op.Start(); err != nil {
							return err
						}
						if err := op.Wait(); err != nil {
							return err
						}
					}
					for i := range bbuf {
						if bbuf[i] != byte(i^round) {
							return fmt.Errorf("round %d: bcast byte %d = %d", round, i, bbuf[i])
						}
					}
					wantSum := uint64(0)
					for r := 0; r < ranks; r++ {
						wantSum += uint64(r + round)
					}
					if got := binary.LittleEndian.Uint64(ares); got != wantSum {
						return fmt.Errorf("round %d: allreduce = %d, want %d", round, got, wantSum)
					}
					for src := 0; src < ranks; src++ {
						want := byte(src*ranks + p.Rank() + round)
						if arecv[src*8] != want {
							return fmt.Errorf("round %d: alltoall block %d = %d, want %d",
								round, src, arecv[src*8], want)
						}
					}
				}
				return nil
			})
		})
	}
}

// TestPersistentCollStateValidation: double Start and Wait/Test
// without an activation must fail cleanly.
func TestPersistentCollStateValidation(t *testing.T) {
	run(t, 2, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		buf := make([]byte, 8)
		op, err := w.BcastInit(buf, 8, Byte, 0)
		if err != nil {
			return err
		}
		if err := op.Wait(); err == nil {
			return fmt.Errorf("Wait accepted without Start")
		}
		if _, err := op.Test(); err == nil {
			return fmt.Errorf("Test accepted without Start")
		}
		if err := op.Start(); err != nil {
			return err
		}
		if err := op.Start(); err == nil {
			return fmt.Errorf("double Start accepted")
		}
		return op.Wait()
	})
}

// TestPersistentCollReplayZeroAlloc is the acceptance guard: after
// the first activation has warmed the pools, steady-state Start/Wait
// replays of a persistent allreduce must not allocate — the compiled
// schedule, the device's pooled receive descriptors, and the request
// freelists absorb everything. Mallocs are counted process-wide with
// every rank gated on atomics around the measured window, so the
// window contains nothing but replays. The same run checks that every
// Start is a schedule-cache hit.
func TestPersistentCollReplayZeroAlloc(t *testing.T) {
	const ranks = 4
	const replays = 50
	var armed, finished atomic.Int64
	var readGo, readDone atomic.Bool
	var mallocs uint64
	var st Stats
	cfg := Config{
		Device: DeviceCH4, Fabric: "ofi", RanksPerNode: 2,
		EagerPeers: true, Stats: &st,
	}
	run(t, ranks, cfg, func(p *Proc) error {
		w := p.World()
		send := make([]byte, 64)
		recv := make([]byte, 64)
		op, err := w.AllreduceInit(send, recv, 8, Long, OpSum)
		if err != nil {
			return err
		}
		// Two warm activations: the first send/recv of each peer pair
		// builds pooled descriptors and freelist entries; after this
		// the steady state is reached.
		for i := 0; i < 2; i++ {
			if err := op.Start(); err != nil {
				return err
			}
			if err := op.Wait(); err != nil {
				return err
			}
		}
		// Gate: every rank parks at the line, rank 0 reads the malloc
		// counter, then all enter the measured replays together.
		armed.Add(1)
		if p.Rank() == 0 {
			for armed.Load() != ranks {
				runtime.Gosched()
			}
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			mallocs = m.Mallocs
			readGo.Store(true)
		}
		for !readGo.Load() {
			runtime.Gosched()
		}
		for i := 0; i < replays; i++ {
			if err := op.Start(); err != nil {
				return err
			}
			if err := op.Wait(); err != nil {
				return err
			}
		}
		finished.Add(1)
		if p.Rank() == 0 {
			for finished.Load() != ranks {
				runtime.Gosched()
			}
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			mallocs = m.Mallocs - mallocs
			readDone.Store(true)
		}
		for !readDone.Load() {
			runtime.Gosched()
		}
		return nil
	})
	// The replay path itself must be allocation-free: any per-Start or
	// per-round allocation would show up as >= replays mallocs. A few
	// stray mallocs are tolerated because goroutine interleaving can
	// push a message-pool high-water mark one object deeper than the
	// warmup saw — a one-time growth, not a per-op cost.
	if mallocs > 8 {
		t.Errorf("steady-state replays allocated: %d mallocs over %d replays x %d ranks (want ~0/op)",
			mallocs, replays, ranks)
	}
	agg := st.Aggregate()
	// Every Start is a hit ((2 warm + replays) per rank); the only
	// misses are the Init-time compilations.
	wantHits := int64((2 + replays) * ranks)
	if agg.Sched.CacheHits != wantHits {
		t.Errorf("sched cache hits = %d, want %d", agg.Sched.CacheHits, wantHits)
	}
	if agg.Sched.CacheMisses != int64(ranks) {
		t.Errorf("sched cache misses = %d, want %d", agg.Sched.CacheMisses, ranks)
	}
}

// TestICollScheduleCacheHits: repeated nonblocking collectives of one
// shape hit the communicator's schedule cache — only the first call
// compiles — and a fresh buffer of the same shape is a hit too, with
// the cached schedule rebound to it.
func TestICollScheduleCacheHits(t *testing.T) {
	const ranks = 4
	const calls = 5
	var st Stats
	run(t, ranks, Config{Fabric: "ofi", RanksPerNode: 2, Stats: &st}, func(p *Proc) error {
		w := p.World()
		send := make([]byte, 64)
		recv := make([]byte, 64)
		for i := 0; i < calls; i++ {
			req, err := w.Iallreduce(send, recv, 8, Long, OpSum)
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
		}
		// A different buffer of the same shape replays the same
		// schedule against the new memory.
		other := make([]byte, 64)
		binary.LittleEndian.PutUint64(other, uint64(p.Rank()+1))
		req, err := w.Iallreduce(other, recv, 8, Long, OpSum)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if got := binary.LittleEndian.Uint64(recv); got != 1+2+3+4 {
			return fmt.Errorf("rebound allreduce = %d, want 10", got)
		}
		if n := w.sched.Len(); n != 1 {
			return fmt.Errorf("%d cached schedules, want 1", n)
		}
		return nil
	})
	agg := st.Aggregate()
	if want := int64(calls * ranks); agg.Sched.CacheHits != want {
		t.Errorf("sched cache hits = %d, want %d", agg.Sched.CacheHits, want)
	}
	if want := int64(ranks); agg.Sched.CacheMisses != want {
		t.Errorf("sched cache misses = %d, want %d", agg.Sched.CacheMisses, want)
	}
}

// TestPersistentCollWatchdogEdge parks three ranks in a persistent
// allreduce Wait while rank 0 never starts its activation, and checks
// the deadlock diagnosis labels the stalled receive edges with the
// persistent-coll tag class.
func TestPersistentCollWatchdogEdge(t *testing.T) {
	var diag bytes.Buffer
	cfg := Config{
		Device: DeviceCH4, Fabric: "ofi", RanksPerNode: 2,
		Watchdog:         true,
		WatchdogInterval: 5 * time.Millisecond,
		DiagWriter:       &diag,
	}
	err := Run(4, cfg, func(p *Proc) error {
		w := p.World()
		send := make([]byte, 8)
		recv := make([]byte, 8)
		op, err := w.AllreduceInit(send, recv, 1, Long, OpSum)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			return nil // never starts: the others stall in Wait
		}
		if err := op.Start(); err != nil {
			return err
		}
		return op.Wait()
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if !bytes.Contains(diag.Bytes(), []byte("[persistent-coll]")) {
		t.Errorf("diagnosis missing [persistent-coll] edge label:\n%s", diag.String())
	}
}
