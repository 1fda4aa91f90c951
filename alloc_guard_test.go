package gompi_test

import (
	"runtime"
	"testing"
	"time"

	"gompi"
)

// Allocation-regression guards for the steady-state hot paths: the
// 1-byte eager Isend, the 1-byte blocking Recv and the 1-byte Put must
// not allocate once the endpoint pools and free lists are warm, so a
// future change that reintroduces a per-message allocation fails here
// rather than only showing up in benchmark numbers.
//
// testing.AllocsPerRun counts mallocs process-wide, so each guard parks
// the peer rank on an operation that cannot complete until the
// measurement is over, leaving the measuring rank the only goroutine
// doing work.

// TestIsendSteadyStateAllocs measures the sender-side eager path. The
// warm-up phase pushes `warm` messages through the unexpected queue so
// the receive side returns that many payload buffers, message
// envelopes, and match nodes to the free lists; the measured sends then
// recycle them. The receiver is parked in a receive on its own tag
// until all `warm` messages have been sent, so every one of them is
// queued unexpected however fast the receiver would otherwise drain.
func TestIsendSteadyStateAllocs(t *testing.T) {
	const warm = 300
	const runs = 200
	var allocs float64
	err := gompi.Run(2, gompi.Config{Fabric: "inf", Build: "no-err-single-ipo"}, func(p *gompi.Proc) error {
		w := p.World()
		buf := []byte{1}
		if p.Rank() == 0 {
			for i := 0; i < warm; i++ {
				if err := w.IsendNoReq(buf, 1, gompi.Byte, 1, 0); err != nil {
					return err
				}
			}
			// Release the receiver: the warm messages are all queued.
			if err := w.IsendNoReq(buf, 1, gompi.Byte, 1, 3); err != nil {
				return err
			}
			// Wait for the receiver to drain, then let it park.
			ack := make([]byte, 1)
			if _, err := w.Recv(ack, 1, gompi.Byte, 1, 2); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond)
			allocs = testing.AllocsPerRun(runs, func() {
				if err := w.IsendNoReq(buf, 1, gompi.Byte, 1, 0); err != nil {
					t.Error(err)
				}
			})
			// Release the parked receiver and let it drain the
			// measured messages.
			if err := w.IsendNoReq(buf, 1, gompi.Byte, 1, 1); err != nil {
				return err
			}
			return w.CommWaitall()
		}
		rbuf := make([]byte, 1)
		if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 3); err != nil {
			return err
		}
		for i := 0; i < warm; i++ {
			if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 0); err != nil {
				return err
			}
		}
		if err := w.Send([]byte{1}, 1, gompi.Byte, 0, 2); err != nil {
			return err
		}
		if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 1); err != nil {
			return err
		}
		for i := 0; i < runs+1; i++ {
			if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Errorf("steady-state 1-byte Isend allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRecvSteadyStateAllocs measures the blocking receive of a 1-byte
// message that has already arrived: the public wrapper, the request,
// and the receive descriptor must all come from the stack or the warm
// free lists. Every measured message sits in the unexpected queue
// before the measurement starts, so the receiver never parks (parking
// allocates runtime wait records); the sender parks first, in a Recv
// that only the end of the measurement satisfies.
func TestRecvSteadyStateAllocs(t *testing.T) {
	const warm = 300
	const runs = 200
	var allocs float64
	err := gompi.Run(2, gompi.Config{Fabric: "inf", Build: "no-err-single-ipo"}, func(p *gompi.Proc) error {
		w := p.World()
		buf := []byte{1}
		if p.Rank() == 0 {
			// Warm-up traffic, then the measured batch (AllocsPerRun
			// makes one extra call), then the marker that tells the
			// receiver the batch has landed.
			for i := 0; i < warm+runs+1; i++ {
				if err := w.IsendNoReq(buf, 1, gompi.Byte, 1, 0); err != nil {
					return err
				}
			}
			if err := w.IsendNoReq(buf, 1, gompi.Byte, 1, 1); err != nil {
				return err
			}
			if err := w.CommWaitall(); err != nil {
				return err
			}
			_, err := w.Recv(make([]byte, 1), 1, gompi.Byte, 1, 2)
			return err
		}
		rbuf := make([]byte, 1)
		for i := 0; i < warm; i++ {
			if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 0); err != nil {
				return err
			}
		}
		if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 1); err != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond) // let rank 0 park in its Recv
		allocs = testing.AllocsPerRun(runs, func() {
			if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 0); err != nil {
				t.Error(err)
			}
		})
		return w.Send(buf, 1, gompi.Byte, 0, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Errorf("steady-state 1-byte Recv of an arrived message allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPutSteadyStateAllocs measures the one-sided fast path inside a
// fence epoch while the target rank waits in the closing fence.
func TestPutSteadyStateAllocs(t *testing.T) {
	var allocs float64
	err := gompi.Run(2, gompi.Config{Fabric: "inf", Build: "no-err-single-ipo"}, func(p *gompi.Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(64, 1)
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			data := []byte{9}
			if err := win.Put(data, 1, gompi.Byte, 1, 0); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond) // let rank 1 park in its fence
			allocs = testing.AllocsPerRun(200, func() {
				if err := win.Put(data, 1, gompi.Byte, 1, 0); err != nil {
					t.Error(err)
				}
			})
		}
		if err := win.Fence(); err != nil {
			return err
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Errorf("steady-state 1-byte Put allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFlushEmptyEpochAllocs guards the flush fast path: a Flush inside
// a passive epoch with nothing outstanding must not allocate — it is
// the polling primitive flush-based applications sit in.
func TestFlushEmptyEpochAllocs(t *testing.T) {
	var allocs float64
	err := gompi.Run(2, gompi.Config{Fabric: "inf", Build: "no-err-single-ipo"}, func(p *gompi.Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			time.Sleep(20 * time.Millisecond) // let rank 1 park in its barrier below
			allocs = testing.AllocsPerRun(200, func() {
				if err := win.Flush(1); err != nil {
					t.Error(err)
				}
			})
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Errorf("Flush on an empty epoch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestShmPutSteadyStateAllocs guards the zero-copy intra-node Put: a
// small put on an shm-backed window inside a LockAll epoch must stay
// allocation-free (it is one memcpy plus accounting).
func TestShmPutSteadyStateAllocs(t *testing.T) {
	var allocs float64
	err := gompi.Run(2, gompi.Config{Fabric: "inf", Build: "no-err-single-ipo", RanksPerNode: 2}, func(p *gompi.Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(64, 1)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			data := []byte{9}
			if err := win.Put(data, 1, gompi.Byte, 1, 0); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond)
			allocs = testing.AllocsPerRun(200, func() {
				if err := win.Put(data, 1, gompi.Byte, 1, 0); err != nil {
					t.Error(err)
				}
			})
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Errorf("steady-state 1-byte shm Put allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBlockingAllreduceSteadyStateAllocs guards the blocking collective
// path: a repeated Allreduce on fixed buffers replays the cached
// schedule and allocates nothing per call. Two jobs that differ only in
// their call count are measured process-wide and subtracted, so setup
// cancels; the bound of half an allocation per call and rank leaves
// room for runtime noise (parking, pool high waters) while failing any
// per-call allocation.
func TestBlockingAllreduceSteadyStateAllocs(t *testing.T) {
	const ranks = 4
	job := func(calls int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := gompi.Run(ranks, gompi.Config{Fabric: "ofi", RanksPerNode: 2}, func(p *gompi.Proc) error {
			send, recv := make([]byte, 16), make([]byte, 16)
			for i := 0; i < calls; i++ {
				if err := p.World().Allreduce(send, recv, 2, gompi.Long, gompi.OpSum); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const short, long = 500, 2500
	base, more := job(short), job(long)
	perCall := (float64(more) - float64(base)) / float64((long-short)*ranks)
	if perCall > 0.5 {
		t.Errorf("blocking Allreduce allocates %.2f times per call and rank, want 0", perCall)
	}
}
