package nbc

import (
	"fmt"

	"gompi/internal/coll"
	"gompi/internal/datatype"
	"gompi/internal/metrics"
)

// Step constructors.
func sendTo(buf []byte, peer int) step   { return step{kind: opSend, peer: peer, buf: buf} }
func recvFrom(buf []byte, peer int) step { return step{kind: opRecv, peer: peer, buf: buf} }
func reduceInto(op coll.Op, elem *datatype.Type, dst, src []byte) step {
	return step{kind: opReduce, op: op, elem: elem, dst: dst, src: src}
}
func copyInto(dst, src []byte) step { return step{kind: opCopy, dst: dst, src: src} }

// sendNoCopyTo marks a send eligible for the zero-copy handoff path:
// the buffer may be lent to the receiver for the rest of the round, so
// only use it for buffers the round does not mutate. Falls back to a
// plain send when the transport has no handoff or the payload is
// small, so compilers may mark on-node sends unconditionally.
func sendNoCopyTo(buf []byte, peer int) step {
	return step{kind: opSend, peer: peer, buf: buf, noCopy: true}
}

// recvReduceFrom folds the incoming payload from peer into acc in
// place (acc = incoming OP acc, arrival order). Emit only toward
// unsegmented peers — the payload must arrive as one message.
func recvReduceFrom(op coll.Op, elem *datatype.Type, acc []byte, peer int) step {
	return step{kind: opRecvReduce, peer: peer, dst: acc, op: op, elem: elem}
}

// lowbit returns the lowest set bit of v, or 0 for v == 0.
func lowbit(v int) int { return v & -v }

// nextPow2 returns the smallest power of two >= v.
func nextPow2(v int) int {
	p := 1
	for p < v {
		p *= 2
	}
	return p
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// topo is the node structure the two-level compilers exchange through.
type topo struct {
	leader  int   // my node's leader rank
	locals  []int // other ranks on my node, excluding the leader and me
	leaders []int // one leader per node, ascending node id
	myIdx   int   // my leader's index in leaders (-1 when I'm no leader)
}

// computeTopo derives the communicator's node structure. Each node's
// leader is its lowest rank, except that when prefer >= 0 (a broadcast
// root) the preferred rank leads its own node so the root's data never
// takes an extra intra-node hop. Transports that cache (TopoCache) or
// expose block geometry (BlockTopo) skip the O(size) derivation.
func computeTopo(t Transport, prefer int) topo {
	tc, cached := t.(TopoCache)
	if cached {
		if v, ok := tc.LoadTopo(prefer); ok {
			return v.(topo)
		}
	}
	tp := computeTopoScan(t, prefer)
	if cached {
		tc.StoreTopo(prefer, tp)
	}
	return tp
}

// blockTopo is computeTopo for the contiguous block mapping
// node(r) = r/rpn: every piece of the structure is arithmetic, so the
// cost is O(nodes) for the leader list plus O(rpn) for the local list.
func blockTopo(t Transport, prefer, rpn int) topo {
	size, me := t.Size(), t.Rank()
	nnodes := (size + rpn - 1) / rpn
	leaderOf := func(nd int) int {
		if prefer >= 0 && prefer/rpn == nd {
			return prefer
		}
		return nd * rpn
	}
	var tp topo
	myNode := me / rpn
	tp.leader = leaderOf(myNode)
	tp.leaders = make([]int, nnodes)
	for i := range tp.leaders {
		tp.leaders[i] = leaderOf(i)
	}
	tp.myIdx = -1
	if me == tp.leader {
		tp.myIdx = myNode
	}
	lo, hi := myNode*rpn, (myNode+1)*rpn
	if hi > size {
		hi = size
	}
	for r := lo; r < hi; r++ {
		if r != me && r != tp.leader {
			tp.locals = append(tp.locals, r)
		}
	}
	return tp
}

// computeTopoScan is the general derivation over an arbitrary
// rank→node mapping.
func computeTopoScan(t Transport, prefer int) topo {
	if bt, ok := t.(BlockTopo); ok {
		if rpn, ok := bt.RanksPerNodeBlock(); ok && rpn > 0 {
			return blockTopo(t, prefer, rpn)
		}
	}
	size := t.Size()
	leaderOf := map[int]int{}
	var nodes []int
	for r := 0; r < size; r++ {
		nd := t.Node(r)
		if cur, ok := leaderOf[nd]; !ok {
			leaderOf[nd] = r
			nodes = append(nodes, nd)
		} else if r < cur {
			leaderOf[nd] = r
		}
	}
	if prefer >= 0 {
		leaderOf[t.Node(prefer)] = prefer
	}
	var tp topo
	myNode := t.Node(t.Rank())
	tp.leader = leaderOf[myNode]
	tp.myIdx = -1
	// Node ids ascend with rank order on the world mapping; sort keeps
	// arbitrary subcommunicator mappings deterministic.
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && nodes[j] < nodes[j-1]; j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
	for i, nd := range nodes {
		tp.leaders = append(tp.leaders, leaderOf[nd])
		if nd == myNode {
			tp.myIdx = i
		}
	}
	if t.Rank() != tp.leader {
		tp.myIdx = -1
	}
	for r := 0; r < size; r++ {
		if r != t.Rank() && r != tp.leader && t.Node(r) == myNode {
			tp.locals = append(tp.locals, r)
		}
	}
	return tp
}

// TwoLevel reports whether the topology rewards hierarchical
// algorithms: more than one node, and at least one node hosting more
// than one rank (so the intra-node phase rides the shm path).
func TwoLevel(t Transport) bool {
	size := t.Size()
	if size < 2 {
		return false
	}
	if bt, ok := t.(BlockTopo); ok {
		if rpn, ok := bt.RanksPerNodeBlock(); ok && rpn > 0 {
			return size > rpn && rpn > 1
		}
	}
	first := t.Node(0)
	multiNode, sharedNode := false, false
	seen := map[int]int{first: 1}
	for r := 1; r < size; r++ {
		nd := t.Node(r)
		seen[nd]++
		if nd != first {
			multiNode = true
		}
		if seen[nd] > 1 {
			sharedNode = true
		}
	}
	return multiNode && sharedNode
}

// Barrier compiles the dissemination barrier: ceil(log2 P) rounds of
// one send + one receive at doubling distance.
func Barrier(t Transport, tag int) *Schedule {
	s := newSchedule(t, tag, metrics.CollBarrierDissem, 0)
	rank, size := t.Rank(), t.Size()
	token := []byte{1}
	rbuf := make([]byte, 1)
	for dist := 1; dist < size; dist *= 2 {
		to := (rank + dist) % size
		from := (rank - dist + size) % size
		s.addRound(round{comm: []step{sendTo(token, to), recvFrom(rbuf, from)}})
	}
	return s
}

// Bcast compiles a broadcast of root's buf with the given algorithm
// (metrics.CollBcast*).
func Bcast(t Transport, tag int, buf []byte, root, algo int) (*Schedule, error) {
	if root < 0 || root >= t.Size() {
		return nil, fmt.Errorf("nbc: bcast root %d outside [0,%d)", root, t.Size())
	}
	s := newSchedule(t, tag, algo, len(buf))
	if t.Size() == 1 {
		return s, nil
	}
	switch algo {
	case metrics.CollBcastScatterAllgather:
		bcastScatterAllgather(s, buf, root)
	case metrics.CollBcastTwoLevel:
		bcastTwoLevel(s, buf, root)
	default:
		s.Algo = metrics.CollBcastBinomial
		bcastBinomial(s, buf, root)
	}
	return s, nil
}

// bcastBinomial emits the binomial tree: one receive round from the
// parent (none on the root), then one round sending to every child.
func bcastBinomial(s *Schedule, buf []byte, root int) {
	rank, size := s.t.Rank(), s.t.Size()
	vrank := (rank - root + size) % size
	if vrank != 0 {
		parent := (vrank&(vrank-1) + root) % size
		s.addRound(round{comm: []step{recvFrom(buf, parent)}})
	}
	limit := lowbit(vrank)
	if vrank == 0 {
		limit = nextPow2(size)
	}
	var sends []step
	for m := limit / 2; m >= 1; m /= 2 {
		if child := vrank + m; child < size {
			sends = append(sends, sendTo(buf, (child+root)%size))
		}
	}
	if len(sends) > 0 {
		s.addRound(round{comm: sends})
	}
}

// bcastScatterAllgather emits the long-message broadcast: the root
// scatters ceil(n/P)-byte blocks directly, then a ring allgather
// reassembles the full buffer everywhere — each rank moves ~2n bytes
// instead of the binomial's n*log P.
func bcastScatterAllgather(s *Schedule, buf []byte, root int) {
	rank, size := s.t.Rank(), s.t.Size()
	n := len(buf)
	bs := (n + size - 1) / size
	block := func(i int) []byte {
		lo, hi := i*bs, (i+1)*bs
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		return buf[lo:hi]
	}
	if rank == root {
		var sends []step
		for r := 0; r < size; r++ {
			if r != root {
				sends = append(sends, sendTo(block(r), r))
			}
		}
		s.addRound(round{comm: sends})
	} else {
		s.addRound(round{comm: []step{recvFrom(block(rank), root)}})
	}
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	for st := 0; st < size-1; st++ {
		sb := block((rank - st + size) % size)
		rb := block((rank - st - 1 + size) % size)
		s.addRound(round{comm: []step{sendTo(sb, right), recvFrom(rb, left)}})
	}
}

// bcastTwoLevel emits the hierarchical broadcast: the root sends once
// to each other node's leader over the network, and leaders fan out to
// their node-local ranks over shared memory — (#nodes-1)*n net bytes
// total, independent of ranks-per-node.
func bcastTwoLevel(s *Schedule, buf []byte, root int) {
	tp := computeTopo(s.t, root)
	rank := s.t.Rank()
	switch {
	case rank == root:
		var sends []step
		for _, l := range tp.leaders {
			if l != root {
				sends = append(sends, sendTo(buf, l))
			}
		}
		// The intra-node fan-out lends buf zero-copy when the transport
		// offers handoff: buf is read-only for the round, so one lent
		// view can serve every local receiver.
		for _, r := range tp.locals {
			sends = append(sends, sendNoCopyTo(buf, r))
		}
		if len(sends) > 0 {
			s.addRound(round{comm: sends})
		}
	case rank == tp.leader:
		s.addRound(round{comm: []step{recvFrom(buf, root)}})
		var sends []step
		for _, r := range tp.locals {
			sends = append(sends, sendNoCopyTo(buf, r))
		}
		if len(sends) > 0 {
			s.addRound(round{comm: sends})
		}
	default:
		s.addRound(round{comm: []step{recvFrom(buf, tp.leader)}})
	}
}

// Reduce compiles a reduction to root with the given algorithm
// (metrics.CollReduce*). recv is consumed only on the root.
func Reduce(t Transport, tag int, op coll.Op, elem *datatype.Type, sendBuf, recv []byte, root, algo int) (*Schedule, error) {
	if root < 0 || root >= t.Size() {
		return nil, fmt.Errorf("nbc: reduce root %d outside [0,%d)", root, t.Size())
	}
	if !coll.Commutative(op) {
		algo = metrics.CollReduceChain
	}
	s := newSchedule(t, tag, algo, len(sendBuf))
	if t.Size() == 1 {
		s.init(recv, sendBuf)
		return s, nil
	}
	if algo == metrics.CollReduceChain {
		reduceChain(s, op, elem, sendBuf, recv, root)
	} else {
		s.Algo = metrics.CollReduceBinomial
		reduceBinomial(s, op, elem, sendBuf, recv, root)
	}
	return s, nil
}

// reduceBinomial folds partials up the binomial tree (commutative ops
// only: children fold in tree order). The working accumulator is the
// root's recv buffer, or a private copy elsewhere, snapshotted at
// compile time as MPI's nonblocking semantics permit.
func reduceBinomial(s *Schedule, op coll.Op, elem *datatype.Type, sendBuf, recv []byte, root int) {
	rank, size := s.t.Rank(), s.t.Size()
	vrank := (rank - root + size) % size
	var acc []byte
	if rank == root {
		acc = recv[:len(sendBuf)]
	} else {
		acc = make([]byte, len(sendBuf))
	}
	s.init(acc, sendBuf)
	for m := 1; m < size; m *= 2 {
		if vrank&m != 0 {
			parent := ((vrank - m) + root) % size
			s.addRound(round{comm: []step{sendTo(acc, parent)}})
			return // leaf done
		}
		if childV := vrank + m; childV < size {
			child := (childV + root) % size
			tmp := make([]byte, len(sendBuf))
			s.addRound(round{
				comm:  []step{recvFrom(tmp, child)},
				local: []step{reduceInto(op, elem, acc, tmp)},
			})
		}
	}
}

// reduceChain folds contributions in strict rank order (the
// non-commutative algorithm): rank P-1 starts, each rank computes
// v_r OP partial and passes it down, rank 0 forwards the result to
// root.
func reduceChain(s *Schedule, op coll.Op, elem *datatype.Type, sendBuf, recv []byte, root int) {
	rank, size := s.t.Rank(), s.t.Size()
	if rank == size-1 {
		s.addRound(round{comm: []step{sendTo(sendBuf, rank-1)}})
	} else {
		tmp := make([]byte, len(sendBuf))
		s.addRound(round{
			comm:  []step{recvFrom(tmp, rank+1)},
			local: []step{reduceInto(op, elem, tmp, sendBuf)},
		})
		switch {
		case rank > 0:
			s.addRound(round{comm: []step{sendTo(tmp, rank-1)}})
		case root == 0:
			s.addRound(round{local: []step{copyInto(recv, tmp)}})
		default:
			s.addRound(round{comm: []step{sendTo(tmp, root)}})
		}
	}
	if rank == root && root != 0 {
		s.addRound(round{comm: []step{recvFrom(recv[:len(sendBuf)], 0)}})
	}
}

// Allreduce compiles an all-reduce with the given algorithm
// (metrics.CollAllreduce*). Non-commutative ops always take the
// rank-ordered reduce + broadcast composition.
func Allreduce(t Transport, tag int, op coll.Op, elem *datatype.Type, sendBuf, recv []byte, algo int) (*Schedule, error) {
	commutative := coll.Commutative(op)
	if !commutative {
		algo = metrics.CollAllreduceReduceBcast
	}
	s := newSchedule(t, tag, algo, len(sendBuf))
	size := t.Size()
	if size == 1 {
		s.init(recv, sendBuf)
		return s, nil
	}
	switch algo {
	case metrics.CollAllreduceRecDoubling:
		if !isPow2(size) {
			s.Algo = metrics.CollAllreduceReduceBcast
			allreduceReduceBcast(s, op, elem, sendBuf, recv)
			break
		}
		allreduceRecDoubling(s, op, elem, sendBuf, recv)
	case metrics.CollAllreduceRedScatGather:
		es := elem.Size()
		if !isPow2(size) || es == 0 || len(sendBuf)%(size*es) != 0 {
			s.Algo = metrics.CollAllreduceReduceBcast
			allreduceReduceBcast(s, op, elem, sendBuf, recv)
			break
		}
		allreduceRSAG(s, op, elem, sendBuf, recv)
	case metrics.CollAllreduceTwoLevel:
		allreduceTwoLevel(s, op, elem, sendBuf, recv)
	case metrics.CollAllreduceTwoLevelZC:
		// The zero-copy variant folds lent views in place, which needs
		// the transport extensions, an element-divisible payload, and a
		// commutative op (folds run in arrival order).
		ht, hok := t.(HandoffTransport)
		_, rok := t.(ReduceTransport)
		es := elem.Size()
		if !hok || !rok || ht.HandoffEager() <= 0 || es == 0 || len(sendBuf)%es != 0 {
			s.Algo = metrics.CollAllreduceTwoLevel
			allreduceTwoLevel(s, op, elem, sendBuf, recv)
			break
		}
		allreduceTwoLevelZC(s, op, elem, sendBuf, recv)
	default:
		s.Algo = metrics.CollAllreduceReduceBcast
		allreduceReduceBcast(s, op, elem, sendBuf, recv)
	}
	return s, nil
}

// allreduceRecDoubling is the classic log-P exchange for power-of-two
// worlds: each round swaps full vectors with rank^m and folds.
func allreduceRecDoubling(s *Schedule, op coll.Op, elem *datatype.Type, sendBuf, recv []byte) {
	rank, size := s.t.Rank(), s.t.Size()
	res := recv[:len(sendBuf)]
	s.init(res, sendBuf)
	tmp := make([]byte, len(sendBuf))
	for m := 1; m < size; m *= 2 {
		peer := rank ^ m
		s.addRound(round{
			comm:  []step{sendTo(res, peer), recvFrom(tmp, peer)},
			local: []step{reduceInto(op, elem, res, tmp)},
		})
	}
}

// allreduceRSAG is the Rabenseifner composition: recursive-halving
// reduce-scatter followed by a recursive-doubling allgather — each
// rank moves ~2n bytes instead of recursive doubling's n*log P, the
// long-message winner. Requires a power-of-two size and an element
// count divisible by it (the caller guarantees both).
func allreduceRSAG(s *Schedule, op coll.Op, elem *datatype.Type, sendBuf, recv []byte) {
	rank, size := s.t.Rank(), s.t.Size()
	es := elem.Size()
	res := recv[:len(sendBuf)]
	s.init(res, sendBuf)
	total := len(res) / es
	lo, cnt := 0, total
	tmp := make([]byte, (total/2)*es)
	for m := size / 2; m >= 1; m /= 2 {
		peer := rank ^ m
		half := cnt / 2
		var sendSeg, target []byte
		if rank&m == 0 {
			sendSeg = res[(lo+half)*es : (lo+cnt)*es]
			target = res[lo*es : (lo+half)*es]
		} else {
			sendSeg = res[lo*es : (lo+half)*es]
			target = res[(lo+half)*es : (lo+cnt)*es]
		}
		rbuf := tmp[:half*es]
		s.addRound(round{
			comm:  []step{sendTo(sendSeg, peer), recvFrom(rbuf, peer)},
			local: []step{reduceInto(op, elem, target, rbuf)},
		})
		if rank&m != 0 {
			lo += half
		}
		cnt = half
	}
	// Allgather retrace: mask m mirrors the reduce-scatter step that
	// split a 2*cnt block in half. The rank that kept the lower half
	// (rank&m == 0) fetches the upper from its peer, and vice versa —
	// computed from lo directly, since blocks are only size-aligned in
	// elements when the per-rank count is a power of two.
	for m := 1; m < size; m *= 2 {
		peer := rank ^ m
		peerLo := lo - cnt
		if rank&m == 0 {
			peerLo = lo + cnt
		}
		s.addRound(round{comm: []step{
			sendTo(res[lo*es:(lo+cnt)*es], peer),
			recvFrom(res[peerLo*es:(peerLo+cnt)*es], peer),
		}})
		if peerLo < lo {
			lo = peerLo
		}
		cnt *= 2
	}
}

// allreduceReduceBcast composes the rank-ordered (non-commutative) or
// binomial reduce to rank 0 with a binomial broadcast — the general
// fallback for non-power-of-two worlds. Same-tag composition is safe:
// both sides issue their rounds in the same global order, and no rank
// both sends reduce traffic and bcast traffic to the same peer.
func allreduceReduceBcast(s *Schedule, op coll.Op, elem *datatype.Type, sendBuf, recv []byte) {
	res := recv[:len(sendBuf)]
	if coll.Commutative(op) {
		reduceBinomial(s, op, elem, sendBuf, res, 0)
	} else {
		reduceChain(s, op, elem, sendBuf, res, 0)
	}
	bcastBinomial(s, res, 0)
}

// allreduceTwoLevel is the hierarchical algorithm: node-local ranks
// send their vectors to the node leader over shm, leaders reduce and
// exchange among themselves over the network (recursive doubling when
// the leader count is a power of two, gather+bcast through the first
// leader otherwise), and leaders broadcast the result back intra-node.
// Only the leader exchange crosses nodes: 2n net bytes on two nodes
// versus flat recursive doubling's 4n on the 4-rank reference layout.
func allreduceTwoLevel(s *Schedule, op coll.Op, elem *datatype.Type, sendBuf, recv []byte) {
	tp := computeTopo(s.t, -1)
	rank := s.t.Rank()
	n := len(sendBuf)
	res := recv[:n]
	if rank != tp.leader {
		s.addRound(round{comm: []step{sendTo(sendBuf, tp.leader)}})
		s.addRound(round{comm: []step{recvFrom(res, tp.leader)}})
		return
	}
	s.init(res, sendBuf)
	// Intra-node gather-reduce: one round, every local contribution.
	if len(tp.locals) > 0 {
		var recvs []step
		var folds []step
		for _, r := range tp.locals {
			tmp := make([]byte, n)
			recvs = append(recvs, recvFrom(tmp, r))
			folds = append(folds, reduceInto(op, elem, res, tmp))
		}
		s.addRound(round{comm: recvs, local: folds})
	}
	allreduceLeaderExchange(s, tp, op, elem, res, n)
	// Intra-node broadcast of the result.
	if len(tp.locals) > 0 {
		var sends []step
		for _, r := range tp.locals {
			sends = append(sends, sendTo(res, r))
		}
		s.addRound(round{comm: sends})
	}
}

// allreduceLeaderExchange emits the inter-node phase shared by the
// two-level allreduce variants: leaders exchange and fold their
// node-reduced vectors (recursive doubling when the leader count is a
// power of two, gather+bcast through the first leader otherwise).
// Non-leaders emit nothing.
func allreduceLeaderExchange(s *Schedule, tp topo, op coll.Op, elem *datatype.Type, res []byte, n int) {
	if s.t.Rank() != tp.leader {
		return
	}
	L := len(tp.leaders)
	if L <= 1 {
		return
	}
	if isPow2(L) {
		tmp := make([]byte, n)
		for m := 1; m < L; m *= 2 {
			peer := tp.leaders[tp.myIdx^m]
			s.addRound(round{
				comm:  []step{sendTo(res, peer), recvFrom(tmp, peer)},
				local: []step{reduceInto(op, elem, res, tmp)},
			})
		}
	} else if tp.myIdx == 0 {
		var recvs, folds []step
		for _, l := range tp.leaders[1:] {
			tmp := make([]byte, n)
			recvs = append(recvs, recvFrom(tmp, l))
			folds = append(folds, reduceInto(op, elem, res, tmp))
		}
		s.addRound(round{comm: recvs, local: folds})
		var sends []step
		for _, l := range tp.leaders[1:] {
			sends = append(sends, sendTo(res, l))
		}
		s.addRound(round{comm: sends})
	} else {
		s.addRound(round{comm: []step{sendTo(res, tp.leaders[0])}})
		s.addRound(round{comm: []step{recvFrom(res, tp.leaders[0])}})
	}
}

// allreduceTwoLevelZC is the zero-copy two-level allreduce for large
// payloads on handoff-capable transports. The intra-node phase is an
// in-place reduce-scatter over lent views: the payload is chunked
// element-aligned across the node's members, each member folds every
// peer's lent chunk directly into its slice of the result — no staging
// copies, no scratch vectors — then the node leader collects the
// reduced chunks, leaders run the usual inter-node exchange, and the
// result fans back out as one lent view per local rank. Compared to
// allreduceTwoLevel the leader folds k chunks of n/k bytes instead of
// k full vectors, and the k scratch buffers disappear.
func allreduceTwoLevelZC(s *Schedule, op coll.Op, elem *datatype.Type, sendBuf, recv []byte) {
	tp := computeTopo(s.t, -1)
	rank, size := s.t.Rank(), s.t.Size()
	n := len(sendBuf)
	res := recv[:n]

	// My node's member list, ascending — identical on every member, so
	// chunk ownership agrees without communication.
	myNode := s.t.Node(rank)
	var members []int
	myIdx := 0
	for r := 0; r < size; r++ {
		if s.t.Node(r) == myNode {
			if r == rank {
				myIdx = len(members)
			}
			members = append(members, r)
		}
	}
	k := len(members)
	es := elem.Size()
	total := n / es
	// chunk returns the byte range of the result owned by member j.
	chunk := func(j int) (int, int) {
		base, rem := total/k, total%k
		lo := j*base + min(j, rem)
		cnt := base
		if j < rem {
			cnt++
		}
		return lo * es, (lo + cnt) * es
	}

	// Round A — intra-node reduce-scatter in place. I seed my chunk
	// from my own contribution, lend every other member its chunk of
	// my sendBuf, and fold their lent chunks into mine as they land.
	mylo, myhi := chunk(myIdx)
	s.init(res[mylo:myhi], sendBuf[mylo:myhi])
	if k > 1 {
		var recvs, sends []step
		for j, m := range members {
			if m == rank {
				continue
			}
			if myhi > mylo {
				recvs = append(recvs, recvReduceFrom(op, elem, res[mylo:myhi], m))
			}
			lo, hi := chunk(j)
			if hi > lo {
				sends = append(sends, sendNoCopyTo(sendBuf[lo:hi], m))
			}
		}
		if len(recvs)+len(sends) > 0 {
			s.addRound(round{comm: append(recvs, sends...)})
		}
	}

	// Round B — leader collects the reduced chunks.
	if k > 1 {
		if rank == tp.leader {
			var recvs []step
			for j, m := range members {
				if m == rank {
					continue
				}
				lo, hi := chunk(j)
				if hi > lo {
					recvs = append(recvs, recvFrom(res[lo:hi], m))
				}
			}
			if len(recvs) > 0 {
				s.addRound(round{comm: recvs})
			}
		} else if myhi > mylo {
			s.addRound(round{comm: []step{sendNoCopyTo(res[mylo:myhi], tp.leader)}})
		}
	}

	// Round C — the usual inter-node leader exchange.
	allreduceLeaderExchange(s, tp, op, elem, res, n)

	// Round D — result fans back out, one lent view serving every
	// local receiver.
	if rank == tp.leader {
		if len(tp.locals) > 0 {
			var sends []step
			for _, r := range tp.locals {
				sends = append(sends, sendNoCopyTo(res, r))
			}
			s.addRound(round{comm: sends})
		}
	} else {
		s.addRound(round{comm: []step{recvFrom(res, tp.leader)}})
	}
}

// Allgather compiles an allgather with the given algorithm
// (metrics.CollAllgather*).
func Allgather(t Transport, tag int, sendBuf, recv []byte, algo int) (*Schedule, error) {
	size := t.Size()
	bs := len(sendBuf)
	if len(recv) < bs*size {
		return nil, fmt.Errorf("nbc: allgather recv buffer %d < %d", len(recv), bs*size)
	}
	s := newSchedule(t, tag, algo, bs)
	s.init(recv[t.Rank()*bs:(t.Rank()+1)*bs], sendBuf)
	if size == 1 {
		return s, nil
	}
	if algo == metrics.CollAllgatherBruck {
		allgatherBruck(s, bs, recv)
	} else {
		s.Algo = metrics.CollAllgatherRing
		allgatherRing(s, bs, recv)
	}
	return s, nil
}

// allgatherRing passes the newest block around the ring: P-1 rounds,
// each one send right + one receive left.
func allgatherRing(s *Schedule, bs int, recv []byte) {
	rank, size := s.t.Rank(), s.t.Size()
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	for st := 0; st < size-1; st++ {
		sb := (rank - st + size) % size
		rb := (rank - st - 1 + size) % size
		s.addRound(round{comm: []step{
			sendTo(recv[sb*bs:(sb+1)*bs], right),
			recvFrom(recv[rb*bs:(rb+1)*bs], left),
		}})
	}
}

// allgatherBruck doubles the gathered prefix each round in a rotated
// temporary, then unrotates locally in a final round.
func allgatherBruck(s *Schedule, bs int, recv []byte) {
	rank, size := s.t.Rank(), s.t.Size()
	tmp := make([]byte, bs*size)
	s.init(tmp[:bs], recv[rank*bs:(rank+1)*bs])
	have := 1
	for m := 1; m < size; m *= 2 {
		to := (rank - m + size) % size
		from := (rank + m) % size
		n := have
		if n > size-have {
			n = size - have
		}
		s.addRound(round{comm: []step{
			sendTo(tmp[:n*bs], to),
			recvFrom(tmp[have*bs:(have+n)*bs], from),
		}})
		have += n
	}
	var unrot []step
	for i := 0; i < size; i++ {
		dst := (rank + i) % size
		unrot = append(unrot, copyInto(recv[dst*bs:(dst+1)*bs], tmp[i*bs:(i+1)*bs]))
	}
	s.addRound(round{local: unrot})
}

// Alltoall compiles an all-to-all exchange with the given algorithm
// (metrics.CollAlltoall*).
func Alltoall(t Transport, tag int, sendBuf, recv []byte, algo int) (*Schedule, error) {
	size := t.Size()
	if size == 0 || len(sendBuf)%size != 0 {
		return nil, fmt.Errorf("nbc: alltoall send buffer %d not divisible by %d", len(sendBuf), size)
	}
	bs := len(sendBuf) / size
	if len(recv) < bs*size {
		return nil, fmt.Errorf("nbc: alltoall recv buffer %d < %d", len(recv), bs*size)
	}
	s := newSchedule(t, tag, algo, bs*size)
	rank := t.Rank()
	s.init(recv[rank*bs:(rank+1)*bs], sendBuf[rank*bs:(rank+1)*bs])
	if size == 1 {
		return s, nil
	}
	if algo == metrics.CollAlltoallPosted {
		var comms []step
		for off := 1; off < size; off++ {
			peer := (rank + off) % size
			comms = append(comms, sendTo(sendBuf[peer*bs:(peer+1)*bs], peer))
		}
		for off := 1; off < size; off++ {
			peer := (rank - off + size) % size
			comms = append(comms, recvFrom(recv[peer*bs:(peer+1)*bs], peer))
		}
		s.addRound(round{comm: comms})
		return s, nil
	}
	s.Algo = metrics.CollAlltoallPairwise
	if isPow2(size) {
		for st := 1; st < size; st++ {
			peer := rank ^ st
			s.addRound(round{comm: []step{
				sendTo(sendBuf[peer*bs:(peer+1)*bs], peer),
				recvFrom(recv[peer*bs:(peer+1)*bs], peer),
			}})
		}
	} else {
		for st := 1; st < size; st++ {
			to := (rank + st) % size
			from := (rank - st + size) % size
			s.addRound(round{comm: []step{
				sendTo(sendBuf[to*bs:(to+1)*bs], to),
				recvFrom(recv[from*bs:(from+1)*bs], from),
			}})
		}
	}
	return s, nil
}

// Gather compiles the linear gather: every rank sends its block to the
// root, which posts one receive per peer into that peer's slot of recv
// and copies its own block locally. recv is consumed only on the root.
func Gather(t Transport, tag int, sendBuf, recv []byte, root int) (*Schedule, error) {
	rank, size := t.Rank(), t.Size()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("nbc: gather root %d outside [0,%d)", root, size)
	}
	bs := len(sendBuf)
	s := newSchedule(t, tag, metrics.CollGatherLinear, bs)
	if rank != root {
		s.addRound(round{comm: []step{sendTo(sendBuf, root)}})
		return s, nil
	}
	if len(recv) < bs*size {
		return nil, fmt.Errorf("nbc: gather recv buffer %d < %d", len(recv), bs*size)
	}
	var recvs []step
	for r := 0; r < size; r++ {
		if r != root {
			recvs = append(recvs, recvFrom(recv[r*bs:(r+1)*bs], r))
		}
	}
	s.addRound(round{comm: recvs, local: []step{copyInto(recv[root*bs:(root+1)*bs], sendBuf)}})
	return s, nil
}

// Scatter compiles the linear scatter: the root sends block r of
// sendBuf to rank r and copies its own block; every other rank receives
// its block into recv. sendBuf is consumed only on the root.
func Scatter(t Transport, tag int, sendBuf, recv []byte, root int) (*Schedule, error) {
	size := t.Size()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("nbc: scatter root %d outside [0,%d)", root, size)
	}
	bs := len(recv)
	if t.Rank() == root && len(sendBuf) < bs*size {
		return nil, fmt.Errorf("nbc: scatter send buffer %d < %d", len(sendBuf), bs*size)
	}
	s := newSchedule(t, tag, metrics.CollScatterLinear, bs)
	scatterRound(s, sendBuf, recv, root)
	return s, nil
}

// scatterRound emits the linear scatter of full (significant on root)
// into each rank's mine. The root's own copy is a local step of its
// send round, so a composition may fill full in earlier rounds.
func scatterRound(s *Schedule, full, mine []byte, root int) {
	rank, size := s.t.Rank(), s.t.Size()
	bs := len(mine)
	if rank != root {
		s.addRound(round{comm: []step{recvFrom(mine, root)}})
		return
	}
	var sends []step
	for r := 0; r < size; r++ {
		if r != root {
			sends = append(sends, sendTo(full[r*bs:(r+1)*bs], r))
		}
	}
	s.addRound(round{comm: sends, local: []step{copyInto(mine, full[root*bs:(root+1)*bs])}})
}

// ReduceScatterBlock compiles the reduce+scatter composition: the
// size equal blocks of sendBuf are reduced onto rank 0 (binomial tree,
// or the rank-ordered chain for non-commutative operators), which then
// scatters block r to rank r's recv. Same-tag composition is safe: no
// rank receives from rank 0 during the reduce.
func ReduceScatterBlock(t Transport, tag int, op coll.Op, elem *datatype.Type, sendBuf, recv []byte) (*Schedule, error) {
	size := t.Size()
	if size == 0 || len(sendBuf)%size != 0 {
		return nil, fmt.Errorf("nbc: reduce_scatter send buffer %d not divisible by %d", len(sendBuf), size)
	}
	bs := len(sendBuf) / size
	if len(recv) < bs {
		return nil, fmt.Errorf("nbc: reduce_scatter recv buffer %d < %d", len(recv), bs)
	}
	s := newSchedule(t, tag, metrics.CollRedScatBlock, len(sendBuf))
	var full []byte
	if t.Rank() == 0 {
		full = make([]byte, len(sendBuf))
	}
	if coll.Commutative(op) {
		reduceBinomial(s, op, elem, sendBuf, full, 0)
	} else {
		reduceChain(s, op, elem, sendBuf, full, 0)
	}
	scatterRound(s, full, recv[:bs], 0)
	return s, nil
}
