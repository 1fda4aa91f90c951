package gompi

import (
	"gompi/internal/coll"
	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/match"
	"gompi/internal/nbc"
	"gompi/internal/request"
)

// CollAlgorithmKey is the communicator info key that pins collective
// algorithm selection (MPI_COMM_SET_INFO): values are the algorithm
// family names of Config.CollAlgorithm ("auto", "flat", "two-level",
// "binomial", "scatter-allgather", "rdouble", "rsag", "reduce-bcast",
// "chain", "ring", "bruck", "pairwise", "posted"). The info key takes
// precedence over Config.CollAlgorithm.
const CollAlgorithmKey = comm.HintCollAlgorithm

// Collective schedule tags: each blocking or nonblocking collective
// call draws a fresh tag from a per-communicator sequence on the
// collective context, so several schedules can be outstanding on one
// communicator without their traffic cross-matching (same-tag traffic
// of one schedule matches in FIFO order, which is exactly what
// fragment reassembly needs). The range is carved out in internal/match
// alongside the library's fixed tags and the partitioned and
// persistent-collective tag spaces.
const (
	nbcTagBase = match.TagNBCBase
	nbcTagSpan = match.TagNBCSpan
)

// nbcPending adapts a device request to the schedule engine. A
// receive must fill exactly r.Want bytes: every compiler posts the
// block its peer sends, so a shorter fragment is a signature mismatch
// between the ranks' arguments (a Gatherv contribution below
// counts[r], say), reported instead of leaving stale bytes behind. The
// adapter stays one pointer wide so boxing it allocates nothing.
type nbcPending struct {
	r *request.Request
}

func (pd nbcPending) settle() error {
	st, want := pd.r.Status, pd.r.Want
	pd.r.Free()
	return settleFragment(st, want)
}

// settleFragment maps a completed fragment's status to the schedule's
// error: an overlong fragment truncates, a short one is a count
// mismatch.
func settleFragment(st request.Status, want int) error {
	if st.Truncated {
		return errc(ErrTruncate, "collective fragment from rank %d truncated", st.Source)
	}
	if st.Count < want {
		return errc(ErrCount, "collective fragment from rank %d is %d bytes, expected %d", st.Source, st.Count, want)
	}
	return nil
}

// Done implements nbc.Pending: a poll that pumps device progress.
func (pd nbcPending) Done() (bool, error) {
	if !pd.r.Done() {
		return false, nil
	}
	return true, pd.settle()
}

// Wait implements nbc.Pending: park until the fragment lands.
func (pd nbcPending) Wait() error {
	pd.r.Wait()
	return pd.settle()
}

// nbcPort adapts the device to the schedule engine: eager requestless
// sends and nonblocking matched receives on the communicator's
// collective context, plus the topology and protocol facts selection
// and segmentation need.
type nbcPort struct {
	p  *Proc
	cv *comm.Comm
}

// Rank implements nbc.Transport.
func (np nbcPort) Rank() int { return np.cv.MyRank }

// Size implements nbc.Transport.
func (np nbcPort) Size() int { return np.cv.Size() }

// Send implements nbc.Transport with a requestless eager send: the
// payload is captured at injection and the call never blocks, which is
// what makes schedule rounds deadlock-free.
func (np nbcPort) Send(data []byte, dest, tag int) error {
	_, err := np.p.dev.Isend(data, len(data), Byte, dest, tag, np.cv, core.FlagNoReq|core.FlagNoProcNull)
	return err
}

// Recv implements nbc.Transport with a nonblocking matched receive.
func (np nbcPort) Recv(buf []byte, src, tag int) (nbc.Pending, error) {
	r, err := np.p.dev.Irecv(buf, len(buf), Byte, src, tag, np.cv, core.FlagNoProcNull)
	if err != nil {
		return nil, err
	}
	r.Want = len(buf)
	return nbcPending{r: r}, nil
}

// Node implements nbc.Transport: communicator rank to node id, through
// the world mapping.
func (np nbcPort) Node(rank int) int {
	w, err := np.cv.WorldRank(rank)
	if err != nil {
		return 0
	}
	return np.p.rank.World().Node(w)
}

// EagerLimit implements nbc.Transport: the resolved fabric threshold,
// so schedules segment rather than rendezvous.
func (np nbcPort) EagerLimit() int { return np.p.eagerLimit }

// RanksPerNodeBlock implements nbc.BlockTopo: identity-table
// communicators inherit the world's contiguous block mapping
// node(r) = r/rpn, so two-level compilers can derive the node
// structure arithmetically instead of scanning all ranks.
func (np nbcPort) RanksPerNodeBlock() (int, bool) {
	if np.cv.Table.Kind() == comm.TableIdentity {
		return np.p.rank.World().RanksPerNode(), true
	}
	return 0, false
}

// LoadTopo / StoreTopo implement nbc.TopoCache on the communicator, so
// repeated collectives reuse the derived node structure.
func (np nbcPort) LoadTopo(key int) (any, bool) { return np.cv.LoadTopo(key) }
func (np nbcPort) StoreTopo(key int, v any)     { np.cv.StoreTopo(key, v) }

// HandoffEager implements nbc.HandoffTransport: the device's shm
// staged/handoff threshold, or 0 when the device has no zero-copy
// path (baseline device, handoff disabled).
func (np nbcPort) HandoffEager() int {
	if d, ok := np.p.dev.(interface{ ShmHandoffMax() int }); ok {
		return d.ShmHandoffMax()
	}
	return 0
}

// SendNoCopy implements nbc.HandoffTransport: lend data over the shm
// handoff path when the device offers one and the geometry applies
// (on-node peer, payload above the threshold). ok=false sends nothing
// and the schedule falls back to plain eager sends.
func (np nbcPort) SendNoCopy(data []byte, dest, tag int) (nbc.Pending, bool, error) {
	d, ok := np.p.dev.(interface {
		IsendNoCopy([]byte, int, int, *comm.Comm) (*request.Request, bool, error)
	})
	if !ok {
		return nil, false, nil
	}
	r, sent, err := d.IsendNoCopy(data, dest, tag, np.cv)
	if err != nil || !sent {
		return nil, false, err
	}
	return nbcPending{r: r}, true, nil
}

// RecvReduce implements nbc.ReduceTransport: post a receive that folds
// the incoming payload into acc in place. On a handoff-capable device
// the fold reads the sender's lent view directly — zero copies; on any
// other device it receives into scratch and folds at completion.
func (np nbcPort) RecvReduce(acc []byte, op coll.Op, elem *Datatype, src, tag int) (nbc.Pending, error) {
	if d, ok := np.p.dev.(interface {
		IrecvReduce([]byte, int, int, *comm.Comm, func(dst, incoming []byte)) (*request.Request, error)
	}); ok {
		r, err := d.IrecvReduce(acc, src, tag, np.cv, func(dst, incoming []byte) {
			coll.Apply(op, elem, dst, incoming)
		})
		if err != nil {
			return nil, err
		}
		r.Want = len(acc)
		return nbcPending{r: r}, nil
	}
	tmp := make([]byte, len(acc))
	r, err := np.p.dev.Irecv(tmp, len(tmp), Byte, src, tag, np.cv, core.FlagNoProcNull)
	if err != nil {
		return nil, err
	}
	return nbcFoldPending{r: r, acc: acc, tmp: tmp, op: op, elem: elem}, nil
}

// SegLimit implements nbc.Segmenter: on-node peers of a
// handoff-capable device are unsegmented (shm has no rendezvous to
// avoid, and whole payloads are what the handoff path lends); anything
// else keeps the flat eager limit. Symmetric in the pair, so senders
// and receivers derive identical fragment cuts.
func (np nbcPort) SegLimit(peer int) int {
	if np.HandoffEager() > 0 && np.Node(peer) == np.Node(np.cv.MyRank) {
		return 0
	}
	return np.p.eagerLimit
}

// nbcFoldPending is the RecvReduce fallback for devices without an
// in-place receive: the payload lands in tmp and folds into acc when
// the fragment settles.
type nbcFoldPending struct {
	r    *request.Request
	acc  []byte
	tmp  []byte
	op   coll.Op
	elem *Datatype
}

func (pd nbcFoldPending) settle() error {
	st := pd.r.Status
	pd.r.Free()
	if err := settleFragment(st, len(pd.acc)); err != nil {
		return err
	}
	return coll.Apply(pd.op, pd.elem, pd.acc, pd.tmp)
}

// Done implements nbc.Pending.
func (pd nbcFoldPending) Done() (bool, error) {
	if !pd.r.Done() {
		return false, nil
	}
	return true, pd.settle()
}

// Wait implements nbc.Pending.
func (pd nbcFoldPending) Wait() error {
	pd.r.Wait()
	return pd.settle()
}

// nbcPort returns the communicator's transport adapter, built once: a
// pointer satisfies nbc.Transport without boxing a fresh value per
// call.
func (c *Comm) nbcPort() *nbcPort {
	if c.port.p == nil {
		c.port = nbcPort{p: c.p, cv: c.c.CollView()}
	}
	return &c.port
}

// nbcTag draws the next schedule tag from the communicator's sequence.
func (c *Comm) nbcTag() int { return nbcTagBase + c.c.NextNBCSeq()%nbcTagSpan }

// collForce resolves the pinned algorithm family for this
// communicator: the gompi_coll_algorithm info key wins over
// Config.CollAlgorithm; empty means automatic selection.
func (c *Comm) collForce() (nbc.Force, error) {
	raw := c.c.CollAlgo
	if raw == "" {
		raw = c.p.collAlgo
	}
	f, err := nbc.ParseForce(raw)
	if err != nil {
		return nbc.ForceAuto, errc(ErrArg, "%v", err)
	}
	return f, nil
}

// istart is the nonblocking form of every collective: it wraps the
// resolved schedule into a public Request progressed off the request
// engine. Test polls the schedule (issuing rounds and running local
// reduction steps as receives land), Wait drives it to completion
// parking on the transport. The first Done poll here kicks round 0's
// sends into flight before the call returns, so peers make progress
// even if this rank computes for a long time before waiting.
func (c *Comm) istart(s *nbc.Schedule, err error) (*Request, error) {
	if err != nil {
		return nil, err
	}
	p := c.p
	p.noteColl(s.Algo, s.Bytes)
	r := &request.Request{Kind: request.KindColl}
	var collErr error
	r.Poll = func(rq *request.Request) bool {
		done, err := s.Test()
		if !done {
			return false
		}
		if err != nil && collErr == nil {
			collErr = err
		}
		rq.MarkComplete(request.Status{})
		return true
	}
	r.Block = func(rq *request.Request) {
		if err := s.Wait(); err != nil && collErr == nil {
			collErr = err
		}
		rq.MarkComplete(request.Status{})
	}
	req := &Request{r: r, p: p, collErr: &collErr}
	r.Done()
	return req, nil
}

// Ibarrier starts a nonblocking barrier (MPI_IBARRIER): the returned
// request completes once every rank of the communicator has entered.
func (c *Comm) Ibarrier() (*Request, error) {
	x, err := c.collEnter()
	if err != nil {
		return nil, err
	}
	defer x.done()
	return c.istart(c.barrierSched())
}

// Ibcast starts a nonblocking broadcast (MPI_IBCAST), selected as
// Bcast is; pin it with CollAlgorithmKey or Config.CollAlgorithm.
func (c *Comm) Ibcast(buf []byte, count int, dt *Datatype, root int) (*Request, error) {
	x, err := c.collEnter()
	if err != nil {
		return nil, err
	}
	defer x.done()
	return c.istart(c.bcastSched(buf, count, dt, root, collCached))
}

// Ireduce starts a nonblocking reduction to root (MPI_IREDUCE). recv
// is consumed only on the root. Non-commutative operators fold in
// strict rank order (the chain algorithm).
func (c *Comm) Ireduce(send, recv []byte, count int, elem *Datatype, op Op, root int) (*Request, error) {
	x, err := c.collEnter()
	if err != nil {
		return nil, err
	}
	defer x.done()
	return c.istart(c.reduceSched(send, recv, count, elem, op, root))
}

// Iallreduce starts a nonblocking allreduce (MPI_IALLREDUCE), selected
// as Allreduce is.
func (c *Comm) Iallreduce(send, recv []byte, count int, elem *Datatype, op Op) (*Request, error) {
	x, err := c.collEnter()
	if err != nil {
		return nil, err
	}
	defer x.done()
	return c.istart(c.allreduceSched(send, recv, count, elem, op, collCached))
}

// Iallgather starts a nonblocking allgather (MPI_IALLGATHER): Bruck
// for short blocks, ring for long ones.
func (c *Comm) Iallgather(send, recv []byte, count int, dt *Datatype) (*Request, error) {
	x, err := c.collEnter()
	if err != nil {
		return nil, err
	}
	defer x.done()
	return c.istart(c.allgatherSched(send, recv, count, dt))
}

// Ialltoall starts a nonblocking all-to-all exchange (MPI_IALLTOALL),
// selected as Alltoall is.
func (c *Comm) Ialltoall(send, recv []byte, count int, dt *Datatype) (*Request, error) {
	x, err := c.collEnter()
	if err != nil {
		return nil, err
	}
	defer x.done()
	return c.istart(c.alltoallSched(send, recv, count, dt, collCached))
}
