package nbc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"gompi/internal/coll"
	"gompi/internal/datatype"
	"gompi/internal/metrics"
)

// fakeNet is an in-memory transport: one deep FIFO channel per
// (src,dst) pair, so sends never block (eager contract) and same-tag
// traffic matches in order (the engine's FIFO assumption).
type fakeNet struct {
	size, rpn, eager int
	q                [][]chan fakeMsg
	sent             []int64 // messages injected per source rank
}

type fakeMsg struct {
	tag  int
	data []byte
}

func newFakeNet(size, rpn, eager int) *fakeNet {
	n := &fakeNet{size: size, rpn: rpn, eager: eager, sent: make([]int64, size)}
	n.q = make([][]chan fakeMsg, size)
	for s := range n.q {
		n.q[s] = make([]chan fakeMsg, size)
		for d := range n.q[s] {
			n.q[s][d] = make(chan fakeMsg, 4096)
		}
	}
	return n
}

func (n *fakeNet) rankView(r int) *fakeRank { return &fakeRank{net: n, rank: r} }

type fakeRank struct {
	net  *fakeNet
	rank int
}

func (f *fakeRank) Rank() int       { return f.rank }
func (f *fakeRank) Size() int       { return f.net.size }
func (f *fakeRank) EagerLimit() int { return f.net.eager }

func (f *fakeRank) Node(rank int) int {
	if f.net.rpn <= 0 {
		return 0
	}
	return rank / f.net.rpn
}

func (f *fakeRank) Send(data []byte, dest, tag int) error {
	if dest < 0 || dest >= f.net.size {
		return fmt.Errorf("send to bad rank %d", dest)
	}
	cp := append([]byte(nil), data...)
	select {
	case f.net.q[f.rank][dest] <- fakeMsg{tag: tag, data: cp}:
		f.net.sent[f.rank]++
		return nil
	default:
		return fmt.Errorf("fake transport queue full (%d->%d)", f.rank, dest)
	}
}

type fakePending struct {
	ch  chan fakeMsg
	buf []byte
	tag int
	got bool
}

func (p *fakePending) deliver(m fakeMsg) (bool, error) {
	if m.tag != p.tag {
		return true, fmt.Errorf("tag mismatch: got %d want %d", m.tag, p.tag)
	}
	if len(m.data) != len(p.buf) {
		return true, fmt.Errorf("length mismatch: got %d want %d", len(m.data), len(p.buf))
	}
	copy(p.buf, m.data)
	p.got = true
	return true, nil
}

func (p *fakePending) Done() (bool, error) {
	if p.got {
		return true, nil
	}
	select {
	case m := <-p.ch:
		return p.deliver(m)
	default:
		return false, nil
	}
}

func (p *fakePending) Wait() error {
	if p.got {
		return nil
	}
	m := <-p.ch
	_, err := p.deliver(m)
	return err
}

func (f *fakeRank) Recv(buf []byte, src, tag int) (Pending, error) {
	if src < 0 || src >= f.net.size {
		return nil, fmt.Errorf("recv from bad rank %d", src)
	}
	return &fakePending{ch: f.net.q[src][f.rank], buf: buf, tag: tag}, nil
}

// runRanks executes fn once per rank concurrently and fails the test
// on the first error.
func runRanks(t *testing.T, net *fakeNet, fn func(tr Transport, rank int) error) {
	t.Helper()
	errs := make([]error, net.size)
	var wg sync.WaitGroup
	for r := 0; r < net.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(net.rankView(r), r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func longs(vs ...int64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

func pattern(rank, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rank*131 + i)
	}
	return out
}

func TestBarrier(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 8} {
		net := newFakeNet(size, 1, 0)
		runRanks(t, net, func(tr Transport, rank int) error {
			return Barrier(tr, 7).Wait()
		})
	}
}

func TestBcastAlgorithms(t *testing.T) {
	algos := []int{
		metrics.CollBcastBinomial,
		metrics.CollBcastScatterAllgather,
		metrics.CollBcastTwoLevel,
	}
	for _, algo := range algos {
		for _, size := range []int{1, 2, 3, 4, 5, 8} {
			for _, root := range []int{0, size - 1} {
				for _, n := range []int{17, 3000} {
					name := fmt.Sprintf("%s/p%d/root%d/n%d", metrics.CollAlgoNames[algo], size, root, n)
					want := pattern(root, n)
					net := newFakeNet(size, 2, 256)
					runRanks(t, net, func(tr Transport, rank int) error {
						buf := make([]byte, n)
						if rank == root {
							copy(buf, want)
						}
						s, err := Bcast(tr, 9, buf, root, algo)
						if err != nil {
							return err
						}
						if err := s.Wait(); err != nil {
							return err
						}
						if !bytes.Equal(buf, want) {
							return fmt.Errorf("%s: wrong payload", name)
						}
						return nil
					})
				}
			}
		}
	}
}

func TestReduceAlgorithms(t *testing.T) {
	for _, algo := range []int{metrics.CollReduceBinomial, metrics.CollReduceChain} {
		for _, size := range []int{1, 2, 3, 4, 5, 8} {
			for _, root := range []int{0, size - 1} {
				var wantSum int64
				for r := 0; r < size; r++ {
					wantSum += int64(r + 1)
				}
				net := newFakeNet(size, 1, 0)
				runRanks(t, net, func(tr Transport, rank int) error {
					contrib := longs(int64(rank+1), int64(10*(rank+1)))
					recv := make([]byte, len(contrib))
					s, err := Reduce(tr, 11, coll.OpSum, datatype.Long, contrib, recv, root, algo)
					if err != nil {
						return err
					}
					if err := s.Wait(); err != nil {
						return err
					}
					if rank == root && !bytes.Equal(recv, longs(wantSum, 10*wantSum)) {
						return fmt.Errorf("algo %d p%d root %d: wrong sum", algo, size, root)
					}
					return nil
				})
			}
		}
	}
}

// TestReduceNonCommutative pins the satellite regression: a
// subtraction operator (non-commutative, left-associative) must fold
// in strict rank order. With contributions 1,2,4,8,... the chain
// yields v0-v1-...-v{P-1}; the binomial tree would pair ranks and
// produce a different (wrong) value for P >= 4.
func TestReduceNonCommutative(t *testing.T) {
	sub := coll.CreateOp(func(in, inout []byte, count int, elem *datatype.Type) error {
		// Chain order: inout holds the later-ranks partial (the
		// accumulated suffix), in is this rank's value; the fold at
		// rank r computes v_r - suffix.
		for i := 0; i < count; i++ {
			a := int64(binary.LittleEndian.Uint64(in[8*i:]))
			b := int64(binary.LittleEndian.Uint64(inout[8*i:]))
			binary.LittleEndian.PutUint64(inout[8*i:], uint64(a-b))
		}
		return nil
	}, false)
	if coll.Commutative(sub) {
		t.Fatal("subtraction registered as commutative")
	}

	const size = 4
	// v_r = 2^r: chain = 1-(2-(4-8)) = 1-(2-(-4)) = 1-6 = -5.
	const want = -5
	net := newFakeNet(size, 1, 0)
	runRanks(t, net, func(tr Transport, rank int) error {
		contrib := longs(int64(1) << uint(rank))
		recv := make([]byte, 8)
		// Request the binomial algorithm: Reduce must override it to
		// the chain because the op is non-commutative.
		s, err := Reduce(tr, 13, sub, datatype.Long, contrib, recv, 0, metrics.CollReduceBinomial)
		if err != nil {
			return err
		}
		if s.Algo != metrics.CollReduceChain {
			return fmt.Errorf("non-commutative op not forced onto chain (algo %d)", s.Algo)
		}
		if err := s.Wait(); err != nil {
			return err
		}
		if rank == 0 {
			if got := int64(binary.LittleEndian.Uint64(recv)); got != want {
				return fmt.Errorf("rank-ordered subtraction: got %d want %d", got, want)
			}
		}
		return nil
	})
}

func TestAllreduceAlgorithms(t *testing.T) {
	algos := []int{
		metrics.CollAllreduceRecDoubling,
		metrics.CollAllreduceRedScatGather,
		metrics.CollAllreduceTwoLevel,
		metrics.CollAllreduceReduceBcast,
	}
	for _, algo := range algos {
		for _, size := range []int{1, 2, 3, 4, 5, 8} {
			// 8 elements: divisible by every pow2 size here, so RSAG
			// runs for real on 2/4/8 and falls back elsewhere. 12
			// elements gives non-power-of-two per-rank counts (3 on 4
			// ranks, 6 on 2) so the RSAG retrace can't rely on
			// size-aligned block offsets.
			for _, elems := range []int{8, 12} {
				var want []int64
				for e := 0; e < elems; e++ {
					var sum int64
					for r := 0; r < size; r++ {
						sum += int64(r*10 + e)
					}
					want = append(want, sum)
				}
				wantB := longs(want...)
				net := newFakeNet(size, 2, 0)
				runRanks(t, net, func(tr Transport, rank int) error {
					var vals []int64
					for e := 0; e < elems; e++ {
						vals = append(vals, int64(rank*10+e))
					}
					contrib := longs(vals...)
					recv := make([]byte, len(contrib))
					s, err := Allreduce(tr, 15, coll.OpSum, datatype.Long, contrib, recv, algo)
					if err != nil {
						return err
					}
					if err := s.Wait(); err != nil {
						return err
					}
					if !bytes.Equal(recv, wantB) {
						return fmt.Errorf("algo %d p%d n%d: wrong result", algo, size, elems)
					}
					return nil
				})
			}
		}
	}
}

func TestAllgatherAlgorithms(t *testing.T) {
	for _, algo := range []int{metrics.CollAllgatherRing, metrics.CollAllgatherBruck} {
		for _, size := range []int{1, 2, 3, 4, 5, 8} {
			const bs = 24
			var want []byte
			for r := 0; r < size; r++ {
				want = append(want, pattern(r, bs)...)
			}
			net := newFakeNet(size, 1, 0)
			runRanks(t, net, func(tr Transport, rank int) error {
				recv := make([]byte, bs*size)
				s, err := Allgather(tr, 17, pattern(rank, bs), recv, algo)
				if err != nil {
					return err
				}
				if err := s.Wait(); err != nil {
					return err
				}
				if !bytes.Equal(recv, want) {
					return fmt.Errorf("algo %d p%d: wrong result", algo, size)
				}
				return nil
			})
		}
	}
}

func TestAlltoallAlgorithms(t *testing.T) {
	for _, algo := range []int{metrics.CollAlltoallPairwise, metrics.CollAlltoallPosted} {
		for _, size := range []int{1, 2, 3, 4, 5, 8} {
			const bs = 16
			net := newFakeNet(size, 1, 0)
			runRanks(t, net, func(tr Transport, rank int) error {
				send := make([]byte, bs*size)
				for d := 0; d < size; d++ {
					copy(send[d*bs:], pattern(rank*100+d, bs))
				}
				recv := make([]byte, bs*size)
				s, err := Alltoall(tr, 19, send, recv, algo)
				if err != nil {
					return err
				}
				if err := s.Wait(); err != nil {
					return err
				}
				for srcRank := 0; srcRank < size; srcRank++ {
					want := pattern(srcRank*100+rank, bs)
					if !bytes.Equal(recv[srcRank*bs:(srcRank+1)*bs], want) {
						return fmt.Errorf("algo %d p%d: wrong block from %d", algo, size, srcRank)
					}
				}
				return nil
			})
		}
	}
}

// TestSegmentation forces an eager limit far below the payload and
// checks both that the result reassembles correctly and that no
// injected message exceeded the limit.
func TestSegmentation(t *testing.T) {
	const size, n, eager = 4, 1000, 64
	want := pattern(2, n)
	net := newFakeNet(size, 1, eager)
	runRanks(t, net, func(tr Transport, rank int) error {
		buf := make([]byte, n)
		if rank == 2 {
			copy(buf, want)
		}
		s, err := Bcast(tr, 21, buf, 2, metrics.CollBcastBinomial)
		if err != nil {
			return err
		}
		if err := s.Wait(); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("segmented bcast corrupted payload")
		}
		return nil
	})
	// Every fragment must fit the eager limit (queues are drained, but
	// sends were counted): ceil(1000/64) = 16 fragments per hop, and a
	// binomial bcast on 4 ranks has 3 hops.
	var total int64
	for _, c := range net.sent {
		total += c
	}
	if wantMsgs := int64(3 * 16); total != wantMsgs {
		t.Fatalf("segmentation: %d messages injected, want %d", total, wantMsgs)
	}
}

// TestPollingProgress drives a schedule only through Test (the
// MPI_Test path) — no blocking waits anywhere.
func TestPollingProgress(t *testing.T) {
	const size = 4
	net := newFakeNet(size, 1, 0)
	runRanks(t, net, func(tr Transport, rank int) error {
		contrib := longs(int64(rank + 1))
		recv := make([]byte, 8)
		s, err := Allreduce(tr, 23, coll.OpSum, datatype.Long, contrib, recv, metrics.CollAllreduceRecDoubling)
		if err != nil {
			return err
		}
		for {
			done, err := s.Test()
			if err != nil {
				return err
			}
			if done {
				break
			}
			runtime.Gosched()
		}
		if got := int64(binary.LittleEndian.Uint64(recv)); got != 10 {
			return fmt.Errorf("got %d want 10", got)
		}
		return nil
	})
}

func TestTwoLevelDetection(t *testing.T) {
	if TwoLevel(newFakeNet(4, 1, 0).rankView(0)) {
		t.Error("rpn=1 (all ranks on distinct nodes) reported two-level")
	}
	if TwoLevel(newFakeNet(4, 4, 0).rankView(0)) {
		t.Error("single node reported two-level")
	}
	if !TwoLevel(newFakeNet(4, 2, 0).rankView(0)) {
		t.Error("4 ranks on 2 nodes not reported two-level")
	}
}

func TestSelection(t *testing.T) {
	flat := newFakeNet(8, 1, 0).rankView(0)
	hier := newFakeNet(8, 2, 0).rankView(0)

	if got := SelectBcast(flat, 64, ForceAuto); got != metrics.CollBcastBinomial {
		t.Errorf("small flat bcast: %s", metrics.CollAlgoNames[got])
	}
	if got := SelectBcast(flat, 1<<20, ForceAuto); got != metrics.CollBcastScatterAllgather {
		t.Errorf("large flat bcast: %s", metrics.CollAlgoNames[got])
	}
	if got := SelectBcast(hier, 64, ForceAuto); got != metrics.CollBcastTwoLevel {
		t.Errorf("hierarchical bcast: %s", metrics.CollAlgoNames[got])
	}
	if got := SelectBcast(hier, 64, ForceFlat); got != metrics.CollBcastBinomial {
		t.Errorf("forced-flat bcast: %s", metrics.CollAlgoNames[got])
	}

	if got := SelectAllreduce(flat, 8, 8, true, ForceAuto); got != metrics.CollAllreduceRecDoubling {
		t.Errorf("small pow2 allreduce: %s", metrics.CollAlgoNames[got])
	}
	if got := SelectAllreduce(flat, 1<<16, 8, true, ForceAuto); got != metrics.CollAllreduceRedScatGather {
		t.Errorf("large pow2 allreduce: %s", metrics.CollAlgoNames[got])
	}
	if got := SelectAllreduce(hier, 8, 8, true, ForceAuto); got != metrics.CollAllreduceTwoLevel {
		t.Errorf("hierarchical allreduce: %s", metrics.CollAlgoNames[got])
	}
	if got := SelectAllreduce(flat, 8, 8, false, ForceAuto); got != metrics.CollAllreduceReduceBcast {
		t.Errorf("non-commutative allreduce: %s", metrics.CollAlgoNames[got])
	}
	nonPow2 := newFakeNet(6, 1, 0).rankView(0)
	if got := SelectAllreduce(nonPow2, 8, 8, true, ForceAuto); got != metrics.CollAllreduceReduceBcast {
		t.Errorf("non-pow2 allreduce: %s", metrics.CollAlgoNames[got])
	}

	if got := SelectAllgather(flat, 256, ForceAuto); got != metrics.CollAllgatherBruck {
		t.Errorf("small allgather: %s", metrics.CollAlgoNames[got])
	}
	if got := SelectAllgather(flat, 1<<16, ForceAuto); got != metrics.CollAllgatherRing {
		t.Errorf("large allgather: %s", metrics.CollAlgoNames[got])
	}
	if got := SelectAlltoall(flat, 256, ForceAuto); got != metrics.CollAlltoallPosted {
		t.Errorf("small alltoall: %s", metrics.CollAlgoNames[got])
	}
	if got := SelectAlltoall(flat, 1<<16, ForceAuto); got != metrics.CollAlltoallPairwise {
		t.Errorf("large alltoall: %s", metrics.CollAlgoNames[got])
	}

	if _, err := ParseForce("no-such-algo"); err == nil {
		t.Error("ParseForce accepted junk")
	}
	if f, err := ParseForce("two-level"); err != nil || f != ForceTwoLevel {
		t.Errorf("ParseForce(two-level) = %v, %v", f, err)
	}
}

// rebindCase is one compiler under TestCacheRebind: bufs
// builds the (send, recv) pair exactly as the MPI layer hands it to the
// cache, and build compiles against that pair.
type rebindCase struct {
	name  string
	bufs  func(rank, size int) (send, recv []byte)
	build func(tr Transport, tag int, send, recv []byte) (*Schedule, error)
}

// rebindCases covers every compiler and algorithm the schedule cache
// can rebind, with blocks of bs bytes (bs longs divide by any world
// size up to 8, so reduce-scatter/allgather applies where selected).
func rebindCases(bs int) []rebindCase {
	sum, long := coll.OpSum, datatype.Long
	pair := func(sendLen, recvLen int) func(rank, size int) ([]byte, []byte) {
		return func(int, int) ([]byte, []byte) { return make([]byte, sendLen), make([]byte, recvLen) }
	}
	rooted := func(sendLen, recvLen func(size int) int, atRootOnly int) func(rank, size int) ([]byte, []byte) {
		// atRootOnly: 0 = recv significant at root only, 1 = send.
		return func(rank, size int) ([]byte, []byte) {
			send, recv := make([]byte, sendLen(size)), make([]byte, recvLen(size))
			if rank != 1 {
				if atRootOnly == 0 {
					recv = nil
				} else {
					send = nil
				}
			}
			return send, recv
		}
	}
	one := func(int) int { return bs }
	all := func(size int) int { return bs * size }
	counts := func(size int) ([]int, []int, int) {
		c, d, off := make([]int, size), make([]int, size), 0
		for r := range c {
			c[r], d[r] = 8*(r+1), off
			off += c[r] + 8 // a gap, so displacements matter
		}
		return c, d, off
	}
	ring := func(tr Transport) ([]int, []int) {
		r, n := tr.Rank(), tr.Size()
		return []int{(r + n - 1) % n, (r + 1) % n}, []int{(r + 1) % n, (r + n - 1) % n}
	}
	var cases []rebindCase
	cases = append(cases, rebindCase{"barrier", func(int, int) ([]byte, []byte) { return nil, nil },
		func(tr Transport, tag int, _, _ []byte) (*Schedule, error) { return Barrier(tr, tag), nil }})
	for _, algo := range []int{metrics.CollBcastBinomial, metrics.CollBcastScatterAllgather, metrics.CollBcastTwoLevel} {
		algo := algo
		cases = append(cases, rebindCase{metrics.CollAlgoNames[algo],
			func(int, int) ([]byte, []byte) { return nil, make([]byte, bs) },
			func(tr Transport, tag int, _, buf []byte) (*Schedule, error) { return Bcast(tr, tag, buf, 1, algo) }})
	}
	for _, algo := range []int{metrics.CollReduceBinomial, metrics.CollReduceChain} {
		algo := algo
		cases = append(cases, rebindCase{metrics.CollAlgoNames[algo], rooted(one, one, 0),
			func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
				return Reduce(tr, tag, sum, long, send, recv, 1, algo)
			}})
	}
	for _, algo := range []int{metrics.CollAllreduceRecDoubling, metrics.CollAllreduceRedScatGather,
		metrics.CollAllreduceTwoLevel, metrics.CollAllreduceReduceBcast} {
		algo := algo
		cases = append(cases, rebindCase{metrics.CollAlgoNames[algo], pair(bs, bs),
			func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
				return Allreduce(tr, tag, sum, long, send, recv, algo)
			}})
	}
	for _, algo := range []int{metrics.CollAllgatherRing, metrics.CollAllgatherBruck} {
		algo := algo
		cases = append(cases, rebindCase{metrics.CollAlgoNames[algo],
			func(_, size int) ([]byte, []byte) { return make([]byte, bs), make([]byte, bs*size) },
			func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
				return Allgather(tr, tag, send, recv, algo)
			}})
	}
	for _, algo := range []int{metrics.CollAlltoallPairwise, metrics.CollAlltoallPosted} {
		algo := algo
		cases = append(cases, rebindCase{metrics.CollAlgoNames[algo],
			func(_, size int) ([]byte, []byte) { return make([]byte, bs*size), make([]byte, bs*size) },
			func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
				return Alltoall(tr, tag, send, recv, algo)
			}})
	}
	cases = append(cases,
		rebindCase{"gather", rooted(one, all, 0), func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
			return Gather(tr, tag, send, recv, 1)
		}},
		rebindCase{"scatter", rooted(all, one, 1), func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
			return Scatter(tr, tag, send, recv, 1)
		}},
		rebindCase{"reduce-scatter-block",
			func(_, size int) ([]byte, []byte) { return make([]byte, bs*size), make([]byte, bs) },
			func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
				return ReduceScatterBlock(tr, tag, sum, long, send, recv)
			}},
		rebindCase{"scan", pair(bs, bs), func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
			return Scan(tr, tag, sum, long, send, recv)
		}},
		rebindCase{"exscan", pair(bs, bs), func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
			return Exscan(tr, tag, sum, long, send, recv)
		}},
		rebindCase{"gatherv",
			func(rank, size int) ([]byte, []byte) {
				c, _, need := counts(size)
				if rank != 1 {
					return make([]byte, c[rank]), nil
				}
				return make([]byte, c[rank]), make([]byte, need)
			},
			func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
				c, d, _ := counts(tr.Size())
				return Gatherv(tr, tag, send, recv, c, d, 1)
			}},
		rebindCase{"scatterv",
			func(rank, size int) ([]byte, []byte) {
				c, _, need := counts(size)
				if rank != 1 {
					return nil, make([]byte, c[rank])
				}
				return make([]byte, need), make([]byte, c[rank])
			},
			func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
				c, d, _ := counts(tr.Size())
				return Scatterv(tr, tag, send, c, d, recv, 1)
			}},
		rebindCase{"allgatherv",
			func(rank, size int) ([]byte, []byte) {
				c, _, need := counts(size)
				return make([]byte, c[rank]), make([]byte, need)
			},
			func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
				c, d, _ := counts(tr.Size())
				return Allgatherv(tr, tag, send, recv, c, d)
			}},
		rebindCase{"neighbor-allgather", pair(bs, 2*bs),
			func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
				src, dst := ring(tr)
				return NeighborAllgather(tr, tag, send, recv, src, dst)
			}},
		rebindCase{"neighbor-alltoall", pair(2*bs, 2*bs),
			func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
				src, dst := ring(tr)
				return NeighborAlltoall(tr, tag, bs, send, recv, src, dst)
			}},
		rebindCase{"neighbor-alltoallv", pair(3*bs, 3*bs),
			func(tr Transport, tag int, send, recv []byte) (*Schedule, error) {
				src, dst := ring(tr)
				// bs bytes go right, 2*bs left; displacements reorder the blocks.
				c, d := []int{bs, 2 * bs}, []int{2 * bs, 0}
				return NeighborAlltoallv(tr, tag, send, c, d, recv, c, d, src, dst)
			}},
	)
	return cases
}

// TestCacheRebind replays each compiler's cached schedule on fresh
// buffers of the same shape and checks every replay against a schedule
// compiled from scratch on copies of the same inputs: a compiler whose
// steps capture caller memory outside the (send, recv) pair the cache
// is handed would read a stale input or write a stale output, and the
// buffers would differ. Every call after the first hits one entry.
// Flat and hierarchical, power-of-two and not, whole and segmented.
func TestCacheRebind(t *testing.T) {
	const calls = 3
	fill := func(b []byte, rank, call int) {
		for i := range b {
			b[i] = byte(rank*37 + call*11 + i)
		}
	}
	clone := func(b []byte) []byte {
		if b == nil {
			return nil
		}
		return append([]byte{}, b...)
	}
	for _, geo := range []struct{ size, rpn, eager int }{{4, 2, 0}, {5, 2, 24}, {3, 1, 0}} {
		for _, tc := range rebindCases(64) {
			name := fmt.Sprintf("%s/%d-ranks-rpn%d-eager%d", tc.name, geo.size, geo.rpn, geo.eager)
			t.Run(name, func(t *testing.T) {
				runRanks(t, newFakeNet(geo.size, geo.rpn, geo.eager), func(tr Transport, rank int) error {
					var cache Cache
					var mismatch error // reported after the last call, so no peer is left waiting
					for call := 0; call < calls; call++ {
						send, recv := tc.bufs(rank, geo.size)
						fill(send, rank, call)
						fill(recv, rank+100, call)
						refSend, refRecv := clone(send), clone(recv)
						ref, err := tc.build(tr, 10+2*call, refSend, refRecv)
						if err != nil {
							return err
						}
						if err := ref.Wait(); err != nil {
							return err
						}
						s, ok := cache.Get(CacheKey{}, send, recv)
						if ok {
							s.Reset(11 + 2*call)
						} else {
							if s, err = tc.build(tr, 11+2*call, send, recv); err != nil {
								return err
							}
							cache.Put(CacheKey{}, s, send, recv)
						}
						if err := s.Wait(); err != nil {
							return err
						}
						if mismatch == nil && (!bytes.Equal(send, refSend) || !bytes.Equal(recv, refRecv)) {
							mismatch = fmt.Errorf("call %d: replay on fresh buffers differs from a fresh compile", call)
						}
					}
					if mismatch != nil {
						return mismatch
					}
					if hits, misses := cache.Stats(); hits != calls-1 || misses != 1 || cache.Len() != 1 {
						return fmt.Errorf("%d hits, %d misses, %d entries", hits, misses, cache.Len())
					}
					return nil
				})
			})
		}
	}
}
