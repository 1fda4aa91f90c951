// Package nbc is the collectives engine: each collective compiles into
// a Schedule — a DAG of primitive steps (eager send, nonblocking recv,
// local reduce, local copy) organized in dependency rounds. A blocking
// collective runs its schedule to completion with Wait on the caller's
// goroutine; an I-collective is progressed incrementally off the
// request engine, so it returns immediately and genuinely overlaps
// with user computation; a persistent collective replays one schedule
// per Start. All three forms share the compilers and the selection.
//
// The round structure encodes the DAG: every communication step of
// round k is issued as soon as round k-1 completes, every local step of
// round k runs once all of round k's receives have landed, and steps
// within a round are independent. Sends are eager (the transport copies
// the payload at injection and never blocks), so a schedule can never
// deadlock as long as its receive dependencies are acyclic — which each
// compiler here guarantees by construction. Payloads larger than the
// transport's eager limit are segmented into eager-sized fragments
// (same tag, FIFO-matched in order), so schedules never enter the
// rendezvous protocol.
//
// One tag isolates one schedule instance: the MPI layer allocates a
// fresh tag per collective call from a per-communicator sequence
// (persistent collectives draw one per Init from their own range), so
// several collectives may be outstanding on one communicator at once,
// and a rank that runs ahead into round k+1 cannot confuse a peer still
// matching round k (same-tag traffic matches FIFO).
package nbc

import (
	"fmt"
	"runtime"

	"gompi/internal/coll"
	"gompi/internal/datatype"
)

// Pending is one outstanding nonblocking receive. Done must be
// non-blocking (pumping transport progress is allowed); Wait parks
// until the message lands. After either reports completion the Pending
// is dead — the engine never calls into it again.
type Pending interface {
	Done() (bool, error)
	Wait() error
}

// Transport is what a schedule runs over: the eager matched send /
// nonblocking matched receive pair of the device's collective context,
// plus the topology and protocol facts the compiler and the segmenter
// need.
type Transport interface {
	Rank() int
	Size() int
	// Send transmits data to dest with the given tag, eagerly: the
	// payload is captured at injection and the call never blocks.
	Send(data []byte, dest, tag int) error
	// Recv posts a nonblocking matched receive and returns its handle.
	Recv(buf []byte, src, tag int) (Pending, error)
	// Node maps a communicator rank to its node id (two-level
	// algorithms exchange through one leader per node).
	Node(rank int) int
	// EagerLimit is the eager/rendezvous threshold in bytes; 0 means
	// unlimited eager. Sends above it are segmented.
	EagerLimit() int
}

// BlockTopo is an optional Transport extension for transports whose
// rank→node mapping is the contiguous block mapping: communicator rank
// r lives on node r/rpn (rank 0 at a node boundary). The two-level
// compilers then derive the node structure arithmetically in
// O(nodes + rpn) instead of an O(size) scan with a per-call map — the
// difference between a 10K-rank allreduce compiling in microseconds
// and burning 100M map operations per call.
type BlockTopo interface {
	// RanksPerNodeBlock returns (rpn, true) when the block mapping
	// holds, (0, false) otherwise (irregular subcommunicators).
	RanksPerNodeBlock() (int, bool)
}

// TopoCache is an optional Transport extension: a transport backed by
// a long-lived communicator can memoize the derived node structure per
// prefer-rank, so repeated collectives skip even the fast derivation.
// Keys are the prefer argument; values are opaque to the transport.
type TopoCache interface {
	LoadTopo(prefer int) (any, bool)
	StoreTopo(prefer int, v any)
}

// HandoffTransport is the optional zero-copy extension a transport may
// implement (the ch4 device does when Config.ShmEagerMax is set): large
// on-node payloads are lent to the receiver instead of copied through
// staging cells. The engine type-asserts for it, so the core Transport
// interface — and every fake implementing it — is untouched.
type HandoffTransport interface {
	// SendNoCopy lends data to dest over the zero-copy handoff path.
	// ok=false means the path does not apply (off-node peer, payload
	// under the threshold, handoff disabled) and nothing was sent —
	// the caller falls back to ordinary eager sends. On ok=true the
	// returned Pending completes when the receiver has released the
	// buffer; data must stay untouched until then, so schedules gate
	// the round on it like a receive. A nil Pending with ok=true means
	// the transport staged after all and the buffer is already free.
	SendNoCopy(data []byte, dest, tag int) (Pending, bool, error)
	// HandoffEager is the zero-copy threshold in bytes (0 = handoff
	// unavailable); the algorithm selection keys off it.
	HandoffEager() int
}

// ReduceTransport is the optional in-place reduction extension: the
// receive consumes its payload by folding it into acc element-wise
// instead of copying. Over a zero-copy handoff view the payload is
// reduced where the sender left it — zero copies end to end.
type ReduceTransport interface {
	RecvReduce(acc []byte, op coll.Op, elem *datatype.Type, src, tag int) (Pending, error)
}

// Segmenter is the optional per-peer refinement of EagerLimit: a
// transport that knows a peer is reachable without the rendezvous
// protocol (on-node shm with handoff enabled) returns 0 for it, so
// both sides skip segmentation and large payloads stay whole — which
// is what lets them ride the handoff path. Senders and receivers
// derive the same cuts because SegLimit is symmetric in the pair.
type Segmenter interface {
	SegLimit(peer int) int
}

// stepKind enumerates the primitive operations a schedule is built of.
type stepKind uint8

const (
	opSend stepKind = iota
	opRecv
	opReduce     // dst = src OP dst (coll.Apply operand order)
	opCopy       // copy(dst, src)
	opRecvReduce // fold the incoming payload into dst in place
)

// step is one primitive. Send/recv use peer+buf; reduce/copy use
// dst/src (reduce also op+elem); recv-reduce uses peer+dst+op+elem.
// noCopy marks a send whose buffer may be lent over the zero-copy
// handoff path when the transport offers one.
type step struct {
	kind     stepKind
	peer     int
	noCopy   bool
	buf      []byte
	dst, src []byte
	op       coll.Op
	elem     *datatype.Type
}

// round is one dependency level: comm steps are issued together when
// the round starts, local steps run in order once every receive of the
// round has landed.
type round struct {
	comm  []step
	local []step
}

// Schedule is one compiled collective instance. It is owned by the
// rank that built it; Test and Wait must be called from that rank's
// goroutine (they run local reduction steps and post receives).
type Schedule struct {
	// Algo is the metrics algorithm id the selection chose.
	Algo int
	// Bytes is the per-rank payload size, for metrics and tracing.
	Bytes int

	// OnRound, when set, fires at each round boundary on the owning
	// goroutine: (idx, true) as round idx's communication is issued,
	// (idx, false) as its local steps finish. The MPI layer hangs the
	// Chrome-trace round spans off it.
	OnRound func(idx int, start bool)

	t       Transport
	tag     int
	rounds  []round
	cur     int
	issued  bool
	pending []Pending
	done    bool
	err     error

	// prologue records the compile-time buffer initializations (the
	// seed copies compilers perform while building the rounds) so Reset
	// can re-run them: a cached schedule replays from the caller's
	// current buffer contents instead of a stale snapshot.
	prologue []step

	// bound holds the caller's (send, recv) buffers the steps currently
	// view, so the cache can rebind a replay to fresh buffers.
	bound [2][]byte
}

// newSchedule wires an empty schedule.
func newSchedule(t Transport, tag, algo, bytes int) *Schedule {
	return &Schedule{t: t, tag: tag, Algo: algo, Bytes: bytes}
}

// addRound appends a dependency round.
func (s *Schedule) addRound(r round) {
	if len(r.comm) == 0 && len(r.local) == 0 {
		return
	}
	s.rounds = append(s.rounds, r)
}

// Rounds reports the schedule's depth (tests and tooling).
func (s *Schedule) Rounds() int { return len(s.rounds) }

// Running reports whether the schedule has issued traffic it has not
// yet completed: it is neither freshly compiled nor finished. A running
// schedule must not be Reset (its in-flight receives would orphan), so
// the schedule cache refuses to hand one out.
func (s *Schedule) Running() bool {
	return !s.done && (s.issued || s.cur > 0 || len(s.pending) > 0)
}

// Reset rewinds a completed (or never-started) schedule for replay
// under the given tag: the compiled round structure — the expensive
// part — is kept verbatim, only the progress cursor is cleared. The
// pending slice keeps its capacity, so a replayed schedule issues with
// zero allocations once warm. Resetting a Running schedule is a
// programming error; callers gate on Running first.
func (s *Schedule) Reset(tag int) {
	s.tag = tag
	s.cur = 0
	s.issued = false
	s.done = false
	s.err = nil
	s.pending = s.pending[:0]
	// Re-seed working buffers from the caller's current payload: the
	// compilers' initialization copies ran once at compile time, and a
	// replay must not fold into stale accumulator contents.
	for _, st := range s.prologue {
		copy(st.dst, st.src)
	}
}

// init copies src into dst immediately (the compiler needs the seed in
// place while building later rounds) and records the copy in the
// schedule's prologue so Reset can re-run it before a replay.
func (s *Schedule) init(dst, src []byte) {
	copy(dst, src)
	s.prologue = append(s.prologue, copyInto(dst, src))
}

// Tag reports the tag the schedule runs under.
func (s *Schedule) Tag() int { return s.tag }

// Cur reports the index of the round currently in progress (equal to
// Rounds once the schedule has finished).
func (s *Schedule) Cur() int { return s.cur }

// fail latches the first error and finishes the schedule: a transport
// error is not recoverable mid-collective.
func (s *Schedule) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	s.done = true
	return s.err
}

// segLimit is the fragment limit toward one peer: the transport's
// per-peer refinement when it offers one, the flat eager limit
// otherwise. Both endpoints of a pair compute the same value, so
// fragments pair up by FIFO order.
func (s *Schedule) segLimit(peer int) int {
	if sg, ok := s.t.(Segmenter); ok {
		return sg.SegLimit(peer)
	}
	return s.t.EagerLimit()
}

// segments returns the fragment boundaries of an n-byte payload toward
// peer: [0, n] for an eager-sized payload, ceil(n/limit) cuts
// otherwise.
func (s *Schedule) segments(n, peer int) int {
	lim := s.segLimit(peer)
	if lim <= 0 || n <= lim {
		return 1
	}
	return (n + lim - 1) / lim
}

// issueSend injects one send step, segmenting above the eager limit. A
// noCopy step first offers the payload to the transport's zero-copy
// handoff; when accepted, the returned completion gates the round like
// a receive (the buffer is lent until the receiver releases it).
func (s *Schedule) issueSend(st step) error {
	if st.noCopy {
		if ht, ok := s.t.(HandoffTransport); ok {
			p, sent, err := ht.SendNoCopy(st.buf, st.peer, s.tag)
			if err != nil {
				return err
			}
			if sent {
				if p != nil {
					s.pending = append(s.pending, p)
				}
				return nil
			}
		}
	}
	lim := s.segLimit(st.peer)
	if lim <= 0 || len(st.buf) <= lim {
		return s.t.Send(st.buf, st.peer, s.tag)
	}
	for off := 0; off < len(st.buf); off += lim {
		end := off + lim
		if end > len(st.buf) {
			end = len(st.buf)
		}
		if err := s.t.Send(st.buf[off:end], st.peer, s.tag); err != nil {
			return err
		}
	}
	return nil
}

// issueRecv posts one receive step, segmenting above the eager limit,
// and appends the resulting Pendings.
func (s *Schedule) issueRecv(st step) error {
	lim := s.segLimit(st.peer)
	if lim <= 0 || len(st.buf) <= lim {
		p, err := s.t.Recv(st.buf, st.peer, s.tag)
		if err != nil {
			return err
		}
		s.pending = append(s.pending, p)
		return nil
	}
	for off := 0; off < len(st.buf); off += lim {
		end := off + lim
		if end > len(st.buf) {
			end = len(st.buf)
		}
		p, err := s.t.Recv(st.buf[off:end], st.peer, s.tag)
		if err != nil {
			return err
		}
		s.pending = append(s.pending, p)
	}
	return nil
}

// issueRecvReduce posts one in-place receive-reduce step. Compilers
// emit these only toward unsegmented peers (SegLimit 0), so the whole
// payload arrives as one message and folds once.
func (s *Schedule) issueRecvReduce(st step) error {
	rt, ok := s.t.(ReduceTransport)
	if !ok {
		return fmt.Errorf("nbc: schedule uses recv-reduce but transport lacks it")
	}
	p, err := rt.RecvReduce(st.dst, st.op, st.elem, st.peer, s.tag)
	if err != nil {
		return err
	}
	s.pending = append(s.pending, p)
	return nil
}

// startRound issues the current round's communication: sends inject
// immediately (eager), receives post and become pending.
func (s *Schedule) startRound() error {
	if s.OnRound != nil {
		s.OnRound(s.cur, true)
	}
	for _, st := range s.rounds[s.cur].comm {
		var err error
		switch st.kind {
		case opSend:
			err = s.issueSend(st)
		case opRecv:
			err = s.issueRecv(st)
		case opRecvReduce:
			err = s.issueRecvReduce(st)
		default:
			err = fmt.Errorf("nbc: local step in comm list")
		}
		if err != nil {
			return err
		}
	}
	s.issued = true
	return nil
}

// finishRound runs the current round's local steps and advances.
func (s *Schedule) finishRound() error {
	for _, st := range s.rounds[s.cur].local {
		switch st.kind {
		case opReduce:
			if err := coll.Apply(st.op, st.elem, st.dst, st.src); err != nil {
				return err
			}
		case opCopy:
			copy(st.dst, st.src)
		default:
			return fmt.Errorf("nbc: comm step in local list")
		}
	}
	if s.OnRound != nil {
		s.OnRound(s.cur, false)
	}
	s.cur++
	s.issued = false
	s.pending = s.pending[:0]
	return nil
}

// Test makes non-blocking progress: it issues any ready round, polls
// the outstanding receives, and runs local steps as rounds complete.
// It returns true once the whole schedule has finished (possibly with
// the schedule's first error).
func (s *Schedule) Test() (bool, error) {
	for {
		if s.done {
			return true, s.err
		}
		if s.cur >= len(s.rounds) {
			s.done = true
			return true, s.err
		}
		if !s.issued {
			if err := s.startRound(); err != nil {
				return true, s.fail(err)
			}
		}
		for i, p := range s.pending {
			if p == nil {
				continue
			}
			ok, err := p.Done()
			if err != nil {
				return true, s.fail(err)
			}
			if !ok {
				// Yield before reporting "not yet": ranks are
				// goroutines, and a rank spinning Test on an
				// oversubscribed machine would otherwise starve the
				// peers whose sends it is waiting for.
				runtime.Gosched()
				return false, nil
			}
			s.pending[i] = nil
		}
		if err := s.finishRound(); err != nil {
			return true, s.fail(err)
		}
	}
}

// Wait drives the schedule to completion, parking on each outstanding
// receive in turn. Deadlock-free: sends are eager and every compiler
// emits acyclic receive dependencies.
func (s *Schedule) Wait() error {
	for {
		if s.done {
			return s.err
		}
		if s.cur >= len(s.rounds) {
			s.done = true
			return s.err
		}
		if !s.issued {
			if err := s.startRound(); err != nil {
				return s.fail(err)
			}
		}
		for i, p := range s.pending {
			if p == nil {
				continue
			}
			if err := p.Wait(); err != nil {
				return s.fail(err)
			}
			s.pending[i] = nil
		}
		if err := s.finishRound(); err != nil {
			return s.fail(err)
		}
	}
}
