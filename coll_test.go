package gompi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

var collSizes = []int{1, 2, 3, 4, 7, 8}

func TestBarrierPublic(t *testing.T) {
	for _, cfg := range sweepConfigs {
		t.Run(cfgName(cfg), func(t *testing.T) {
			run(t, 4, cfg, func(p *Proc) error {
				for i := 0; i < 3; i++ {
					if err := p.World().Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func TestBcastPublic(t *testing.T) {
	for _, n := range collSizes {
		run(t, n, Config{Fabric: "ofi"}, func(p *Proc) error {
			w := p.World()
			buf := make([]byte, 32)
			root := n - 1
			if p.Rank() == root {
				for i := range buf {
					buf[i] = byte(i ^ 0x5A)
				}
			}
			if err := w.Bcast(buf, 32, Byte, root); err != nil {
				return err
			}
			for i := range buf {
				if buf[i] != byte(i^0x5A) {
					return fmt.Errorf("rank %d byte %d = %d", p.Rank(), i, buf[i])
				}
			}
			return nil
		})
	}
}

func TestAllreducePublic(t *testing.T) {
	for _, n := range collSizes {
		run(t, n, Config{Fabric: "ucx"}, func(p *Proc) error {
			w := p.World()
			vals, err := w.AllreduceFloat64([]float64{1.0, float64(p.Rank())}, OpSum)
			if err != nil {
				return err
			}
			if vals[0] != float64(n) || vals[1] != float64(n*(n-1)/2) {
				return fmt.Errorf("allreduce = %v", vals)
			}
			return nil
		})
	}
}

func TestReduceMaxPublic(t *testing.T) {
	run(t, 5, Config{}, func(p *Proc) error {
		w := p.World()
		send := Int64Bytes([]int64{int64(p.Rank() * 10)}, nil)
		recv := make([]byte, 8)
		if err := w.Reduce(send, recv, 1, Long, OpMax, 2); err != nil {
			return err
		}
		if p.Rank() == 2 {
			if got := BytesInt64(recv, nil)[0]; got != 40 {
				return fmt.Errorf("max = %d", got)
			}
		}
		return nil
	})
}

func TestGatherScatterPublic(t *testing.T) {
	const n = 4
	run(t, n, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		mine := []byte{byte(p.Rank()), byte(p.Rank() * 2)}
		all := make([]byte, 2*n)
		if err := w.Gather(mine, all, 2, Byte, 0); err != nil {
			return err
		}
		if p.Rank() == 0 {
			for r := 0; r < n; r++ {
				if all[2*r] != byte(r) || all[2*r+1] != byte(2*r) {
					return fmt.Errorf("gather block %d = %v", r, all[2*r:2*r+2])
				}
			}
		}
		back := make([]byte, 2)
		if err := w.Scatter(all, back, 2, Byte, 0); err != nil {
			return err
		}
		if !bytes.Equal(back, mine) {
			return fmt.Errorf("scatter returned %v", back)
		}
		return nil
	})
}

func TestAllgatherPublic(t *testing.T) {
	for _, n := range collSizes {
		run(t, n, Config{Fabric: "ofi"}, func(p *Proc) error {
			w := p.World()
			mine := []byte{byte(p.Rank() + 1)}
			all := make([]byte, n)
			if err := w.Allgather(mine, all, 1, Byte); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if all[r] != byte(r+1) {
					return fmt.Errorf("rank %d: allgather %v", p.Rank(), all)
				}
			}
			return nil
		})
	}
}

func TestAlltoallPublic(t *testing.T) {
	for _, n := range collSizes {
		run(t, n, Config{}, func(p *Proc) error {
			w := p.World()
			send := make([]byte, n)
			for r := range send {
				send[r] = byte(p.Rank()*8 + r)
			}
			recv := make([]byte, n)
			if err := w.Alltoall(send, recv, 1, Byte); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if recv[r] != byte(r*8+p.Rank()) {
					return fmt.Errorf("rank %d recv %v", p.Rank(), recv)
				}
			}
			return nil
		})
	}
}

func TestReduceScatterBlockPublic(t *testing.T) {
	const n = 4
	run(t, n, Config{}, func(p *Proc) error {
		w := p.World()
		send := Int64Bytes([]int64{1, 2, 3, 4}, nil)
		recv := make([]byte, 8)
		if err := w.ReduceScatterBlock(send, recv, 1, Long, OpSum); err != nil {
			return err
		}
		if got := BytesInt64(recv, nil)[0]; got != int64(n*(p.Rank()+1)) {
			return fmt.Errorf("rank %d got %d", p.Rank(), got)
		}
		return nil
	})
}

func TestCollectivesIsolatedFromPt2pt(t *testing.T) {
	// A pending wildcard receive must not swallow collective traffic:
	// collectives run on the collective context.
	run(t, 2, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		var pending *Request
		if p.Rank() == 1 {
			var err error
			pending, err = w.Irecv(make([]byte, 1), 1, Byte, AnySource, AnyTag)
			if err != nil {
				return err
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		buf := []byte{42}
		if err := w.Bcast(buf, 1, Byte, 0); err != nil {
			return err
		}
		if buf[0] != 42 {
			return fmt.Errorf("bcast delivered %d", buf[0])
		}
		if p.Rank() == 0 {
			return w.Send([]byte{7}, 1, Byte, 1, 9)
		}
		st, err := pending.Wait()
		if err != nil {
			return err
		}
		if st.Tag != 9 {
			return fmt.Errorf("wildcard matched collective traffic: %+v", st)
		}
		return nil
	})
}

func TestCollectivesOnSubcommunicator(t *testing.T) {
	const n = 6
	run(t, n, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		sub, err := w.Split(p.Rank()%2, p.Rank())
		if err != nil {
			return err
		}
		vals, err := sub.AllreduceFloat64([]float64{float64(p.Rank())}, OpSum)
		if err != nil {
			return err
		}
		// Even ranks: 0+2+4 = 6; odd: 1+3+5 = 9.
		want := 6.0
		if p.Rank()%2 == 1 {
			want = 9.0
		}
		if vals[0] != want {
			return fmt.Errorf("rank %d subcomm sum = %v, want %v", p.Rank(), vals[0], want)
		}
		return sub.Free()
	})
}

func TestCollectiveOnFreedCommRejected(t *testing.T) {
	run(t, 1, Config{Build: "default"}, func(p *Proc) error {
		w := p.World()
		d, err := w.Dup()
		if err != nil {
			return err
		}
		if err := d.Free(); err != nil {
			return err
		}
		if err := d.Barrier(); ClassOf(err) != ErrComm {
			return fmt.Errorf("barrier on freed comm: %v", err)
		}
		return nil
	})
}

// collCalls returns the aggregated call count of one algorithm
// ("allreduce/two-level", ...).
func collCalls(st *Stats, algo string) int64 {
	for _, cs := range st.Aggregate().Coll {
		if cs.Algo == algo {
			return cs.Calls
		}
	}
	return 0
}

// TestBlockingAllreduceSelection: blocking Allreduce goes through the
// same selection as Iallreduce — two-level on a hierarchical layout,
// and whatever Config.CollAlgorithm pins otherwise.
func TestBlockingAllreduceSelection(t *testing.T) {
	for _, tc := range []struct{ pin, want string }{
		{"", "allreduce/two-level"},
		{"rdouble", "allreduce/rdouble"},
	} {
		var st Stats
		cfg := Config{Fabric: "ofi", RanksPerNode: 2, CollAlgorithm: tc.pin, Stats: &st}
		run(t, 4, cfg, func(p *Proc) error {
			vals, err := p.World().AllreduceFloat64([]float64{float64(p.Rank())}, OpSum)
			if err != nil {
				return err
			}
			if vals[0] != 6 {
				return fmt.Errorf("allreduce = %v, want 6", vals[0])
			}
			return nil
		})
		if got := collCalls(&st, tc.want); got != 4 {
			t.Errorf("pin %q: %s calls = %d, want 4 (one per rank)", tc.pin, tc.want, got)
		}
	}
}

// TestAllreduceFloat64CacheHits: fresh buffers of one shape compile
// once per rank; every later call hits and is rebound, so the cache
// holds one schedule.
func TestAllreduceFloat64CacheHits(t *testing.T) {
	const calls = 500
	run(t, 4, Config{Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
		w := p.World()
		before := p.Metrics().Sched
		for i := 0; i < calls; i++ {
			vals, err := w.AllreduceFloat64([]float64{float64(i), float64(p.Rank())}, OpSum)
			if err != nil {
				return err
			}
			if vals[0] != float64(4*i) || vals[1] != 6 {
				return fmt.Errorf("call %d: allreduce = %v", i, vals)
			}
		}
		after := p.Metrics().Sched
		if hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses; hits != calls-1 || misses != 1 {
			return fmt.Errorf("%d hits, %d misses; want %d and 1", hits, misses, calls-1)
		}
		if n := w.sched.Len(); n != 1 {
			return fmt.Errorf("%d cached schedules, want 1", n)
		}
		return nil
	})
}

// TestBlockingCollSharesCache: blocking, nonblocking and in-place calls
// of one collective share the cache by shape, and in-place buffers key
// apart from disjoint ones.
func TestBlockingCollSharesCache(t *testing.T) {
	run(t, 4, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		send, recv := make([]byte, 16), make([]byte, 16)
		for i := 0; i < 3; i++ {
			binary.LittleEndian.PutUint64(send, uint64(p.Rank()+i))
			if err := w.Allreduce(send, recv, 2, Long, OpSum); err != nil {
				return err
			}
			if got := binary.LittleEndian.Uint64(recv); got != uint64(6+4*i) {
				return fmt.Errorf("blocking call %d: got %d", i, got)
			}
			req, err := w.Iallreduce(send, recv, 2, Long, OpSum)
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			if got := binary.LittleEndian.Uint64(recv); got != uint64(6+4*i) {
				return fmt.Errorf("nonblocking call %d: got %d", i, got)
			}
			inPlace := make([]byte, 16)
			binary.LittleEndian.PutUint64(inPlace, uint64(p.Rank()))
			if err := w.Allreduce(inPlace, inPlace, 2, Long, OpSum); err != nil {
				return err
			}
			if got := binary.LittleEndian.Uint64(inPlace); got != 6 {
				return fmt.Errorf("in-place call %d: got %d", i, got)
			}
		}
		if n := w.sched.Len(); n != 2 {
			return fmt.Errorf("%d cached schedules, want 2 (disjoint and in-place)", n)
		}
		return nil
	})
}
