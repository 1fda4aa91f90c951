package gompi

import (
	"gompi/internal/coll"
	"gompi/internal/metrics"
	"gompi/internal/nbc"
	"gompi/internal/trace"
	"gompi/internal/vtime"
)

// Op is a predefined reduction operator.
type Op = coll.Op

// Predefined reduction operators.
const (
	OpSum     = coll.OpSum
	OpProd    = coll.OpProd
	OpMax     = coll.OpMax
	OpMin     = coll.OpMin
	OpLAnd    = coll.OpLAnd
	OpLOr     = coll.OpLOr
	OpBAnd    = coll.OpBAnd
	OpBOr     = coll.OpBOr
	OpReplace = coll.OpReplace
	OpNoOp    = coll.OpNoOp
)

// One collective engine. Every collective has one resolver that
// validates the arguments, selects the algorithm, builds the
// schedule-cache key and compiles the nbc schedule on a miss through
// schedule. A collective with several public forms has it as an xSched
// method the forms share; one with a blocking form only resolves
// inline. The forms:
//
//   - X (blocking) runs the schedule to completion on the caller's
//     goroutine (run): no Request, no closures.
//   - IX (nonblocking) wraps it in a Request progressed off the
//     request engine (istart, icoll.go).
//   - XInit (persistent) compiles a private schedule once and replays
//     it per Start (persistWrap, persistcoll.go).
//
// So Config.CollAlgorithm and CollAlgorithmKey mean the same thing for
// every form of a collective.

// collMode selects how a resolver hands out its schedule.
type collMode uint8

const (
	// collCached: blocking and nonblocking calls replay the
	// communicator's cached schedule for the call's shape, rebound to
	// the call's buffers, under a fresh tag from the NBC sequence.
	collCached collMode = iota
	// collPersist: an Init compiles a private, uncached schedule under
	// a tag of the persistent-collective range.
	collPersist
)

// schedule is the tail every resolver shares. key carries the
// collective's own shape; send and recv are the caller's buffers
// exactly as build hands them to the compiler, so a cache hit can
// rebind the cached steps to them. In collCached mode every call
// consumes a fresh tag whether or not it hits, so the sequence — and
// with it the matching tags — advances in lockstep on every rank.
func (c *Comm) schedule(mode collMode, key nbc.CacheKey, send, recv []byte, build func(tag int) (*nbc.Schedule, error)) (*nbc.Schedule, error) {
	m := c.p.rank.Metrics()
	var tag int
	if mode == collPersist {
		tag = c.persistTag()
	} else {
		tag = c.nbcTag()
		if s, ok := c.sched.Get(key, send, recv); ok {
			m.NoteSchedCache(true)
			s.Reset(tag)
			return s, nil
		}
	}
	m.NoteSchedCache(false)
	s, err := build(tag)
	if err != nil {
		return nil, errc(ErrArg, "%v", err)
	}
	c.traceRounds(s)
	if mode == collCached {
		c.sched.Put(key, s, send, recv)
	}
	return s, nil
}

// traceRounds hangs the Chrome-trace round spans off a freshly
// compiled schedule, once, so replays record them without a per-call
// closure. Blocking collectives record them inside their TraceColl
// span.
func (c *Comm) traceRounds(s *nbc.Schedule) {
	p := c.p
	if !p.tlog.Enabled() {
		return
	}
	var roundStart vtime.Time
	bytes := s.Bytes
	s.OnRound = func(idx int, start bool) {
		if start {
			roundStart = p.rank.Now()
			return
		}
		p.tlog.Record(trace.Event{
			Kind: trace.KindSched, Peer: idx, Bytes: bytes, VCI: -1,
			Start: roundStart, End: p.rank.Now(),
		})
	}
}

// run is the blocking form of every collective: it drives the resolved
// schedule to completion on the caller's goroutine.
func (c *Comm) run(s *nbc.Schedule, err error) error {
	if err != nil {
		return err
	}
	c.p.noteColl(s.Algo, s.Bytes)
	return s.Wait()
}

// collExit closes a collective entry: it releases the thread lock and
// records the traced interval. A value, not a closure, so the entry
// allocates nothing.
type collExit struct {
	unlock func()
	end    func()
}

func (x collExit) done() {
	x.unlock()
	if x.end != nil {
		x.end()
	}
}

// collEnter charges the MPI-layer costs every collective entry pays.
// The caller defers done on the returned exit.
func (c *Comm) collEnter() (collExit, error) {
	p := c.p
	x := collExit{end: p.span(TraceColl, -1, 0)}
	p.chargeCall()
	x.unlock = p.chargeThread(c.c, false)
	if p.bc.ErrorChecking {
		if err := p.checkComm(c); err != nil {
			x.done()
			return collExit{}, err
		}
	}
	return x, nil
}

// Barrier blocks until every rank of the communicator has entered
// (MPI_BARRIER).
func (c *Comm) Barrier() error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	return c.run(c.barrierSched())
}

// barrierSched resolves the dissemination barrier.
func (c *Comm) barrierSched() (*nbc.Schedule, error) {
	t := c.nbcPort()
	key := nbc.CacheKey{Kind: nbc.CacheBarrier, Algo: metrics.CollBarrierDissem, Root: -1}
	return c.schedule(collCached, key, nil, nil, func(tag int) (*nbc.Schedule, error) {
		return nbc.Barrier(t, tag), nil
	})
}

// Bcast broadcasts root's buffer to all ranks (MPI_BCAST). buf must be
// count elements of dt on every rank; contiguous layouts only (derived
// types take the pack path in the devices; collectives here move raw
// bytes, as the machine-independent layer does). Selection is size-
// and topology-based: two-level on hierarchical layouts, binomial tree
// for short messages, scatter+ring-allgather for long ones.
func (c *Comm) Bcast(buf []byte, count int, dt *Datatype, root int) error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	return c.run(c.bcastSched(buf, count, dt, root, collCached))
}

// bcastSched resolves a broadcast.
func (c *Comm) bcastSched(buf []byte, count int, dt *Datatype, root int, mode collMode) (*nbc.Schedule, error) {
	f, err := c.collForce()
	if err != nil {
		return nil, err
	}
	n := count * dt.Size()
	t := c.nbcPort()
	algo := nbc.SelectBcast(t, n, f)
	key := nbc.CacheKey{Kind: nbc.CacheBcast, Algo: algo, Root: root}
	return c.schedule(mode, key, nil, buf[:n], func(tag int) (*nbc.Schedule, error) {
		return nbc.Bcast(t, tag, buf[:n], root, algo)
	})
}

// Reduce folds count elements of elem from every rank into recv on root
// (MPI_REDUCE). recv is ignored elsewhere. Non-commutative operators
// fold in strict rank order (the chain algorithm).
func (c *Comm) Reduce(send, recv []byte, count int, elem *Datatype, op Op, root int) error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	return c.run(c.reduceSched(send, recv, count, elem, op, root))
}

// reduceSched resolves a reduction to root.
func (c *Comm) reduceSched(send, recv []byte, count int, elem *Datatype, op Op, root int) (*nbc.Schedule, error) {
	f, err := c.collForce()
	if err != nil {
		return nil, err
	}
	n := count * elem.Size()
	var out []byte
	if c.Rank() == root {
		out = recv[:n]
	}
	t := c.nbcPort()
	algo := nbc.SelectReduce(t, n, coll.Commutative(op), f)
	key := nbc.CacheKey{Kind: nbc.CacheReduce, Algo: algo, Root: root, Op: uint8(op), Elem: nbc.PtrKey(elem)}
	return c.schedule(collCached, key, send[:n], out, func(tag int) (*nbc.Schedule, error) {
		return nbc.Reduce(t, tag, op, elem, send[:n], out, root, algo)
	})
}

// Allreduce folds contributions and delivers the result everywhere
// (MPI_ALLREDUCE). Selection: two-level on hierarchical layouts,
// recursive doubling for short messages on power-of-two worlds,
// Rabenseifner reduce-scatter + allgather for long ones, reduce+bcast
// otherwise; non-commutative operators always take the rank-ordered
// chain composition.
func (c *Comm) Allreduce(send, recv []byte, count int, elem *Datatype, op Op) error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	return c.run(c.allreduceSched(send, recv, count, elem, op, collCached))
}

// allreduceSched resolves an allreduce.
func (c *Comm) allreduceSched(send, recv []byte, count int, elem *Datatype, op Op, mode collMode) (*nbc.Schedule, error) {
	f, err := c.collForce()
	if err != nil {
		return nil, err
	}
	n := count * elem.Size()
	t := c.nbcPort()
	algo := nbc.SelectAllreduce(t, count, elem.Size(), coll.Commutative(op), f)
	key := nbc.CacheKey{Kind: nbc.CacheAllreduce, Algo: algo, Root: -1, Op: uint8(op), Elem: nbc.PtrKey(elem)}
	return c.schedule(mode, key, send[:n], recv[:n], func(tag int) (*nbc.Schedule, error) {
		return nbc.Allreduce(t, tag, op, elem, send[:n], recv[:n], algo)
	})
}

// Gather concentrates equal-size blocks on root (MPI_GATHER), linear:
// every rank sends its block to the root. recv matters only on root.
func (c *Comm) Gather(send, recv []byte, count int, dt *Datatype, root int) error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	n := count * dt.Size()
	var out []byte
	if c.Rank() == root {
		if len(recv) < n*c.Size() {
			return errc(ErrBuffer, "gather recv buffer %d < %d", len(recv), n*c.Size())
		}
		out = recv[:n*c.Size()]
	}
	t := c.nbcPort()
	key := nbc.CacheKey{Kind: nbc.CacheGather, Algo: metrics.CollGatherLinear, Root: root}
	return c.run(c.schedule(collCached, key, send[:n], out, func(tag int) (*nbc.Schedule, error) {
		return nbc.Gather(t, tag, send[:n], out, root)
	}))
}

// Scatter distributes root's equal-size blocks (MPI_SCATTER), linear:
// the root sends each rank its block. send matters only on root.
func (c *Comm) Scatter(send, recv []byte, count int, dt *Datatype, root int) error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	n := count * dt.Size()
	var in []byte
	if c.Rank() == root {
		if len(send) < n*c.Size() {
			return errc(ErrBuffer, "scatter send buffer %d < %d", len(send), n*c.Size())
		}
		in = send[:n*c.Size()]
	}
	t := c.nbcPort()
	key := nbc.CacheKey{Kind: nbc.CacheScatter, Algo: metrics.CollScatterLinear, Root: root}
	return c.run(c.schedule(collCached, key, in, recv[:n], func(tag int) (*nbc.Schedule, error) {
		return nbc.Scatter(t, tag, in, recv[:n], root)
	}))
}

// Allgather concentrates equal-size blocks everywhere (MPI_ALLGATHER):
// Bruck for short blocks, ring for long ones.
func (c *Comm) Allgather(send, recv []byte, count int, dt *Datatype) error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	return c.run(c.allgatherSched(send, recv, count, dt))
}

// allgatherSched resolves an allgather.
func (c *Comm) allgatherSched(send, recv []byte, count int, dt *Datatype) (*nbc.Schedule, error) {
	f, err := c.collForce()
	if err != nil {
		return nil, err
	}
	n := count * dt.Size()
	all := n * c.Size()
	if len(recv) < all {
		return nil, errc(ErrBuffer, "allgather recv buffer %d < %d", len(recv), all)
	}
	t := c.nbcPort()
	algo := nbc.SelectAllgather(t, n, f)
	key := nbc.CacheKey{Kind: nbc.CacheAllgather, Algo: algo, Root: -1}
	return c.schedule(collCached, key, send[:n], recv[:all], func(tag int) (*nbc.Schedule, error) {
		return nbc.Allgather(t, tag, send[:n], recv[:all], algo)
	})
}

// Alltoall exchanges equal-size blocks (MPI_ALLTOALL): all sends and
// receives posted in one round for small blocks on small worlds,
// pairwise exchange rounds otherwise.
func (c *Comm) Alltoall(send, recv []byte, count int, dt *Datatype) error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	return c.run(c.alltoallSched(send, recv, count, dt, collCached))
}

// alltoallSched resolves an all-to-all exchange.
func (c *Comm) alltoallSched(send, recv []byte, count int, dt *Datatype, mode collMode) (*nbc.Schedule, error) {
	f, err := c.collForce()
	if err != nil {
		return nil, err
	}
	n := count * dt.Size()
	all := n * c.Size()
	if len(send) < all || len(recv) < all {
		return nil, errc(ErrBuffer, "alltoall buffers short")
	}
	t := c.nbcPort()
	algo := nbc.SelectAlltoall(t, n, f)
	key := nbc.CacheKey{Kind: nbc.CacheAlltoall, Algo: algo, Root: -1}
	return c.schedule(mode, key, send[:all], recv[:all], func(tag int) (*nbc.Schedule, error) {
		return nbc.Alltoall(t, tag, send[:all], recv[:all], algo)
	})
}

// ReduceScatterBlock reduces and scatters equal blocks
// (MPI_REDUCE_SCATTER_BLOCK): a reduction onto rank 0 followed by a
// linear scatter.
func (c *Comm) ReduceScatterBlock(send, recv []byte, count int, elem *Datatype, op Op) error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	n := count * elem.Size()
	all := n * c.Size()
	if len(send) < all || len(recv) < n {
		return errc(ErrBuffer, "reduce_scatter buffers short")
	}
	t := c.nbcPort()
	key := nbc.CacheKey{Kind: nbc.CacheReduceScatterBlock, Algo: metrics.CollRedScatBlock, Root: -1,
		Op: uint8(op), Elem: nbc.PtrKey(elem)}
	return c.run(c.schedule(collCached, key, send[:all], recv[:n], func(tag int) (*nbc.Schedule, error) {
		return nbc.ReduceScatterBlock(t, tag, op, elem, send[:all], recv[:n])
	}))
}

// OpCreate registers a user-defined reduction operator (MPI_OP_CREATE)
// usable in every reduction collective and in ReduceLocal. fn folds
// `in` into `inout` elementwise for count elements of elem; it must be
// associative. commute declares whether it is also commutative: a
// non-commutative operator makes every reduction collective fold
// contributions in strict rank order (the chain algorithms), exactly
// as MPI requires.
func OpCreate(fn func(in, inout []byte, count int, elem *Datatype) error, commute bool) Op {
	return coll.CreateOp(coll.UserFunc(fn), commute)
}

// OpCommutative reports whether op was declared commutative
// (MPI_OP_COMMUTATIVE). Predefined operators always are.
func OpCommutative(op Op) bool { return coll.Commutative(op) }

// ReduceLocal folds inbuf into inoutbuf with op (MPI_REDUCE_LOCAL): a
// purely local building block for user-level reduction trees.
func ReduceLocal(inbuf, inoutbuf []byte, count int, elem *Datatype, op Op) error {
	n := count * elem.Size()
	if err := coll.Apply(op, elem, inoutbuf[:n], inbuf[:n]); err != nil {
		return errc(ErrArg, "%v", err)
	}
	return nil
}

// AllreduceFloat64 is a typed convenience for the dominant application
// pattern: allreduce over float64 values. Its buffers are fresh on
// every call; the schedule cache keys on shape, so every call after
// the first replays the cached schedule rebound to them.
func (c *Comm) AllreduceFloat64(vals []float64, op Op) ([]float64, error) {
	send := Float64Bytes(vals, nil)
	recv := make([]byte, len(send))
	if err := c.Allreduce(send, recv, len(vals), Double, op); err != nil {
		return nil, err
	}
	return BytesFloat64(recv, vals), nil
}
