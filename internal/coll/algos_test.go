package coll_test

// The collective algorithms live in internal/nbc as schedule
// compilers; these tests drive each one over an in-memory transport
// with the operators of this package, across world sizes and roots,
// including the prefix reductions and the v-variants.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"gompi/internal/coll"
	"gompi/internal/datatype"
	"gompi/internal/metrics"
	"gompi/internal/nbc"
)

// mesh is an in-memory nbc.Transport job: one rank per node, unlimited
// eager, one deep FIFO channel per (src, dst) pair, so sends never
// block and same-tag traffic matches in order — the engine's two
// assumptions about its transport.
type mesh struct {
	size int
	q    [][]chan meshMsg
}

type meshMsg struct {
	tag  int
	data []byte
}

func newMesh(size int) *mesh {
	m := &mesh{size: size, q: make([][]chan meshMsg, size)}
	for s := range m.q {
		m.q[s] = make([]chan meshMsg, size)
		for d := range m.q[s] {
			m.q[s][d] = make(chan meshMsg, 4096)
		}
	}
	return m
}

// run executes fn once per rank concurrently and returns the first
// error, naming its rank.
func (m *mesh) run(fn func(tr nbc.Transport, rank int) error) error {
	errs := make([]error, m.size)
	var wg sync.WaitGroup
	for r := 0; r < m.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(meshRank{m, r}, r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

type meshRank struct {
	m    *mesh
	rank int
}

func (f meshRank) Rank() int       { return f.rank }
func (f meshRank) Size() int       { return f.m.size }
func (f meshRank) Node(r int) int  { return r }
func (f meshRank) EagerLimit() int { return 0 }

func (f meshRank) Send(data []byte, dest, tag int) error {
	select {
	case f.m.q[f.rank][dest] <- meshMsg{tag: tag, data: append([]byte(nil), data...)}:
		return nil
	default:
		return fmt.Errorf("mesh queue full (%d->%d)", f.rank, dest)
	}
}

func (f meshRank) Recv(buf []byte, src, tag int) (nbc.Pending, error) {
	return &meshPending{ch: f.m.q[src][f.rank], buf: buf, tag: tag}, nil
}

type meshPending struct {
	ch  chan meshMsg
	buf []byte
	tag int
}

func (p *meshPending) deliver(msg meshMsg) error {
	if msg.tag != p.tag || len(msg.data) != len(p.buf) {
		return fmt.Errorf("got tag %d, %d bytes; want tag %d, %d bytes", msg.tag, len(msg.data), p.tag, len(p.buf))
	}
	copy(p.buf, msg.data)
	return nil
}

func (p *meshPending) Done() (bool, error) {
	select {
	case msg := <-p.ch:
		return true, p.deliver(msg)
	default:
		return false, nil
	}
}

func (p *meshPending) Wait() error { return p.deliver(<-p.ch) }

func longs(vals ...int64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

func getLongs(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 16}

// runAll executes body on every rank of a fresh mesh and fails the
// test on the first error.
func runAll(t *testing.T, n int, body func(tr nbc.Transport) error) {
	t.Helper()
	if err := newMesh(n).run(func(tr nbc.Transport, _ int) error { return body(tr) }); err != nil {
		t.Fatal(err)
	}
}

// wait finishes a compiled schedule.
func wait(s *nbc.Schedule, err error) error {
	if err != nil {
		return err
	}
	return s.Wait()
}

func TestBarrierCompletes(t *testing.T) {
	for _, n := range worldSizes {
		runAll(t, n, func(tr nbc.Transport) error {
			return nbc.Barrier(tr, 1).Wait()
		})
	}
}

func TestBcastAllRoots(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root++ {
			runAll(t, n, func(tr nbc.Transport) error {
				buf := make([]byte, 16)
				if tr.Rank() == root {
					for i := range buf {
						buf[i] = byte(root*10 + i)
					}
				}
				if err := wait(nbc.Bcast(tr, 1, buf, root, metrics.CollBcastBinomial)); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != byte(root*10+i) {
						return fmt.Errorf("rank %d byte %d = %d", tr.Rank(), i, buf[i])
					}
				}
				return nil
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n && root < 3; root++ {
			runAll(t, n, func(tr nbc.Transport) error {
				mine := longs(int64(tr.Rank()+1), int64(2*tr.Rank()))
				out := make([]byte, len(mine))
				if err := wait(nbc.Reduce(tr, 1, coll.OpSum, datatype.Long, mine, out, root, metrics.CollReduceBinomial)); err != nil {
					return err
				}
				if tr.Rank() != root {
					return nil
				}
				got := getLongs(out)
				wantA := int64(n * (n + 1) / 2)
				wantB := int64(n * (n - 1))
				if got[0] != wantA || got[1] != wantB {
					return fmt.Errorf("reduce = %v, want [%d %d]", got, wantA, wantB)
				}
				return nil
			})
		}
	}
}

func TestReduceMaxMin(t *testing.T) {
	runAll(t, 5, func(tr nbc.Transport) error {
		mine := longs(int64(tr.Rank()), int64(-tr.Rank()))
		outMax := make([]byte, len(mine))
		if err := wait(nbc.Reduce(tr, 1, coll.OpMax, datatype.Long, mine, outMax, 0, metrics.CollReduceBinomial)); err != nil {
			return err
		}
		outMin := make([]byte, len(mine))
		if err := wait(nbc.Reduce(tr, 2, coll.OpMin, datatype.Long, mine, outMin, 0, metrics.CollReduceBinomial)); err != nil {
			return err
		}
		if tr.Rank() == 0 {
			if v := getLongs(outMax); v[0] != 4 || v[1] != 0 {
				return fmt.Errorf("max = %v", v)
			}
			if v := getLongs(outMin); v[0] != 0 || v[1] != -4 {
				return fmt.Errorf("min = %v", v)
			}
		}
		return nil
	})
}

// TestAllreduce runs the algorithm the automatic selection picks for a
// flat layout at every world size (recursive doubling on powers of
// two, reduce+bcast otherwise).
func TestAllreduce(t *testing.T) {
	for _, n := range worldSizes {
		runAll(t, n, func(tr nbc.Transport) error {
			mine := longs(1, int64(tr.Rank()))
			out := make([]byte, len(mine))
			algo := nbc.SelectAllreduce(tr, 2, 8, true, nbc.ForceAuto)
			if err := wait(nbc.Allreduce(tr, 1, coll.OpSum, datatype.Long, mine, out, algo)); err != nil {
				return err
			}
			got := getLongs(out)
			if got[0] != int64(n) || got[1] != int64(n*(n-1)/2) {
				return fmt.Errorf("rank %d: allreduce = %v", tr.Rank(), got)
			}
			return nil
		})
	}
}

func TestAllreduceDouble(t *testing.T) {
	runAll(t, 8, func(tr nbc.Transport) error {
		mine := make([]byte, 8)
		binary.LittleEndian.PutUint64(mine, uint64(0x3FF0000000000000)) // 1.0
		out := make([]byte, 8)
		if err := wait(nbc.Allreduce(tr, 1, coll.OpSum, datatype.Double, mine, out, metrics.CollAllreduceRecDoubling)); err != nil {
			return err
		}
		if got := binary.LittleEndian.Uint64(out); got != 0x4020000000000000 { // 8.0
			return fmt.Errorf("sum of eight 1.0 = %x", got)
		}
		return nil
	})
}

func TestGatherScatter(t *testing.T) {
	for _, n := range worldSizes {
		for _, root := range []int{0, n - 1} {
			runAll(t, n, func(tr nbc.Transport) error {
				me := tr.Rank()
				mine := []byte{byte(me), byte(me + 100)}
				all := make([]byte, 2*n)
				if err := wait(nbc.Gather(tr, 1, mine, all, root)); err != nil {
					return err
				}
				if me == root {
					for r := 0; r < n; r++ {
						if all[2*r] != byte(r) || all[2*r+1] != byte(r+100) {
							return fmt.Errorf("gather block %d = %v", r, all[2*r:2*r+2])
						}
					}
				}
				// Scatter it back; every rank must get its own block.
				back := make([]byte, 2)
				if err := wait(nbc.Scatter(tr, 2, all, back, root)); err != nil {
					return err
				}
				if back[0] != byte(me) || back[1] != byte(me+100) {
					return fmt.Errorf("scatter got %v", back)
				}
				return nil
			})
		}
	}
}

func TestAllgatherBothAlgorithms(t *testing.T) {
	for _, algo := range []int{metrics.CollAllgatherRing, metrics.CollAllgatherBruck} {
		name := metrics.CollAlgoNames[algo]
		for _, n := range worldSizes {
			runAll(t, n, func(tr nbc.Transport) error {
				mine := []byte{byte(tr.Rank() * 3), byte(tr.Rank()*3 + 1)}
				all := make([]byte, 2*n)
				if err := wait(nbc.Allgather(tr, 1, mine, all, algo)); err != nil {
					return err
				}
				for r := 0; r < n; r++ {
					if all[2*r] != byte(r*3) || all[2*r+1] != byte(r*3+1) {
						return fmt.Errorf("%s rank %d block %d = %v", name, tr.Rank(), r, all[2*r:2*r+2])
					}
				}
				return nil
			})
		}
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range worldSizes {
		runAll(t, n, func(tr nbc.Transport) error {
			send := make([]byte, n)
			for r := 0; r < n; r++ {
				send[r] = byte(tr.Rank()*16 + r) // block for rank r
			}
			recv := make([]byte, n)
			if err := wait(nbc.Alltoall(tr, 1, send, recv, metrics.CollAlltoallPairwise)); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if recv[r] != byte(r*16+tr.Rank()) {
					return fmt.Errorf("rank %d block %d = %d", tr.Rank(), r, recv[r])
				}
			}
			return nil
		})
	}
}

func TestReduceScatterBlock(t *testing.T) {
	for _, n := range worldSizes {
		runAll(t, n, func(tr nbc.Transport) error {
			// One long per destination rank: block r holds r+1.
			var vals []int64
			for r := 0; r < n; r++ {
				vals = append(vals, int64(r+1))
			}
			recv := make([]byte, 8)
			if err := wait(nbc.ReduceScatterBlock(tr, 1, coll.OpSum, datatype.Long, longs(vals...), recv)); err != nil {
				return err
			}
			if got := getLongs(recv)[0]; got != int64(n*(tr.Rank()+1)) {
				return fmt.Errorf("rank %d got %d", tr.Rank(), got)
			}
			return nil
		})
	}
}

// Property: allreduce(SUM) over random contributions equals the local
// sum of all contributions, on every rank, for random world sizes.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(sz uint8, vals [16]int32) bool {
		n := int(sz%7) + 1
		var want int64
		for r := 0; r < n; r++ {
			want += int64(vals[r])
		}
		err := newMesh(n).run(func(tr nbc.Transport, r int) error {
			out := make([]byte, 8)
			algo := nbc.SelectAllreduce(tr, 1, 8, true, nbc.ForceAuto)
			if err := wait(nbc.Allreduce(tr, 1, coll.OpSum, datatype.Long, longs(int64(vals[r])), out, algo)); err != nil {
				return err
			}
			if got := getLongs(out)[0]; got != want {
				return fmt.Errorf("got %d want %d", got, want)
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: bcast delivers the root's exact bytes for random payloads,
// sizes, and roots.
func TestBcastProperty(t *testing.T) {
	f := func(sz, rt uint8, payload []byte) bool {
		n := int(sz%6) + 1
		root := int(rt) % n
		if len(payload) == 0 {
			payload = []byte{0}
		}
		err := newMesh(n).run(func(tr nbc.Transport, r int) error {
			buf := make([]byte, len(payload))
			if r == root {
				copy(buf, payload)
			}
			algo := nbc.SelectBcast(tr, len(buf), nbc.ForceAuto)
			if err := wait(nbc.Bcast(tr, 1, buf, root, algo)); err != nil {
				return err
			}
			if !bytes.Equal(buf, payload) {
				return fmt.Errorf("wrong payload")
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestScanInclusive(t *testing.T) {
	for _, n := range worldSizes {
		runAll(t, n, func(tr nbc.Transport) error {
			mine := longs(int64(tr.Rank() + 1))
			out := make([]byte, 8)
			if err := wait(nbc.Scan(tr, 1, coll.OpSum, datatype.Long, mine, out)); err != nil {
				return err
			}
			r := tr.Rank() + 1
			want := int64(r * (r + 1) / 2)
			if got := getLongs(out)[0]; got != want {
				return fmt.Errorf("rank %d scan = %d, want %d", tr.Rank(), got, want)
			}
			return nil
		})
	}
}

// TestScanNonCommutativeOrder checks that MPI_SCAN folds operands in
// rank order: with a non-commutative left-fold r = a - b and
// contributions 2^r, rank r must end with 1 - 2 - 4 - ... - 2^r.
func TestScanNonCommutativeOrder(t *testing.T) {
	sub := coll.CreateOp(func(in, inout []byte, count int, elem *datatype.Type) error {
		for i := 0; i < count; i++ {
			a := int64(binary.LittleEndian.Uint64(in[8*i:]))
			b := int64(binary.LittleEndian.Uint64(inout[8*i:]))
			binary.LittleEndian.PutUint64(inout[8*i:], uint64(a-b))
		}
		return nil
	}, false)
	runAll(t, 5, func(tr nbc.Transport) error {
		mine := longs(int64(1) << uint(tr.Rank()))
		out := make([]byte, 8)
		if err := wait(nbc.Scan(tr, 1, sub, datatype.Long, mine, out)); err != nil {
			return err
		}
		want := int64(1)
		for r := 1; r <= tr.Rank(); r++ {
			want -= int64(1) << uint(r)
		}
		if got := getLongs(out)[0]; got != want {
			return fmt.Errorf("rank %d subtract-scan = %d, want %d", tr.Rank(), got, want)
		}
		return nil
	})
}

func TestExscan(t *testing.T) {
	for _, n := range worldSizes {
		runAll(t, n, func(tr nbc.Transport) error {
			mine := longs(int64(tr.Rank() + 1))
			out := longs(-99) // sentinel: rank 0 must keep it
			if err := wait(nbc.Exscan(tr, 1, coll.OpSum, datatype.Long, mine, out)); err != nil {
				return err
			}
			got := getLongs(out)[0]
			if tr.Rank() == 0 {
				if got != -99 {
					return fmt.Errorf("rank 0 exscan touched recv: %d", got)
				}
				return nil
			}
			r := tr.Rank()
			want := int64(r * (r + 1) / 2)
			if got != want {
				return fmt.Errorf("rank %d exscan = %d, want %d", tr.Rank(), got, want)
			}
			return nil
		})
	}
}

func TestGathervScatterv(t *testing.T) {
	const n = 4
	counts := []int{1, 2, 3, 4}
	displs := []int{0, 1, 3, 6}
	for _, root := range []int{0, 2} {
		runAll(t, n, func(tr nbc.Transport) error {
			// Rank r contributes r+1 bytes of value r.
			mine := bytes.Repeat([]byte{byte(tr.Rank())}, tr.Rank()+1)
			recv := make([]byte, 10)
			if err := wait(nbc.Gatherv(tr, 1, mine, recv, counts, displs, root)); err != nil {
				return err
			}
			if tr.Rank() == root {
				want := []byte{0, 1, 1, 2, 2, 2, 3, 3, 3, 3}
				if !bytes.Equal(recv, want) {
					return fmt.Errorf("gatherv = %v", recv)
				}
			}
			// Scatter it back.
			back := make([]byte, tr.Rank()+1)
			if err := wait(nbc.Scatterv(tr, 2, recv, counts, displs, back, root)); err != nil {
				return err
			}
			if !bytes.Equal(back, mine) {
				return fmt.Errorf("rank %d scatterv = %v", tr.Rank(), back)
			}
			return nil
		})
	}
}

func TestGathervValidatesTables(t *testing.T) {
	tr := meshRank{newMesh(2), 0}
	if _, err := nbc.Gatherv(tr, 1, []byte{1}, make([]byte, 2), []int{1}, []int{0}, 0); err == nil {
		t.Error("gatherv: short counts accepted")
	}
	if _, err := nbc.Scatterv(tr, 1, make([]byte, 2), []int{1, 1}, []int{0}, []byte{0}, 0); err == nil {
		t.Error("scatterv: short displs accepted")
	}
	if _, err := nbc.Allgatherv(tr, 1, []byte{1, 2}, make([]byte, 3), []int{1, 2}, []int{0, 1}); err == nil {
		t.Error("allgatherv: contribution disagreeing with counts accepted")
	}
}

func TestAllgathervRing(t *testing.T) {
	for _, n := range worldSizes {
		counts := make([]int, n)
		displs := make([]int, n)
		total := 0
		for r := 0; r < n; r++ {
			counts[r] = r + 1
			displs[r] = total
			total += counts[r]
		}
		runAll(t, n, func(tr nbc.Transport) error {
			mine := bytes.Repeat([]byte{byte(tr.Rank() + 1)}, counts[tr.Rank()])
			recv := make([]byte, total)
			if err := wait(nbc.Allgatherv(tr, 1, mine, recv, counts, displs)); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				for i := 0; i < counts[r]; i++ {
					if recv[displs[r]+i] != byte(r+1) {
						return fmt.Errorf("rank %d block %d = %v", tr.Rank(), r, recv)
					}
				}
			}
			return nil
		})
	}
}

func TestUserOpInReduce(t *testing.T) {
	gcd := coll.CreateOp(func(in, inout []byte, count int, elem *datatype.Type) error {
		a := getLongs(in)
		b := getLongs(inout)
		for i := range b {
			x, y := a[i], b[i]
			for y != 0 {
				x, y = y, x%y
			}
			copy(inout[8*i:], longs(x))
		}
		return nil
	}, true)
	runAll(t, 4, func(tr nbc.Transport) error {
		mine := longs(int64(12 * (tr.Rank() + 1))) // 12,24,36,48 -> gcd 12
		out := make([]byte, 8)
		if err := wait(nbc.Reduce(tr, 1, gcd, datatype.Long, mine, out, 0, metrics.CollReduceBinomial)); err != nil {
			return err
		}
		if tr.Rank() == 0 && getLongs(out)[0] != 12 {
			return fmt.Errorf("gcd reduce = %d", getLongs(out)[0])
		}
		return nil
	})
}
