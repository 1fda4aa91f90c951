// Package flight is the always-on flight recorder: a fixed-size
// per-rank ring of recent protocol events, far cheaper than full event
// tracing (no per-event allocation, no growth, 24 bytes per entry, and
// below MPI_THREAD_MULTIPLE one plain store per event) and therefore
// left running on every build. Its job is post-mortem
// diagnosis: when a job aborts, tears down on error, or trips the
// stall watchdog, each rank's last protocol steps are dumped so the
// failure's communication history is visible without re-running under
// Config.Trace.
package flight

import (
	"fmt"
	"io"
	"sync"
)

// Kind classifies one recorded protocol event.
type Kind uint8

// Protocol event kinds.
const (
	SendEager   Kind = iota // eager tagged send injected (peer = dst)
	SendRndv                // rendezvous tagged send injected (peer = dst)
	ShmSend                 // shared-memory send started (peer = dst)
	Deposit                 // incoming message matched a posted receive on arrival (peer = src, T = arrival; recorded at reap)
	Unexpected              // message that waited unexpected (peer = src, T = arrival; recorded when a receive or probe takes it)
	PostRecv                // receive posted, no unexpected match (peer = src or -1)
	UnexHit                 // receive posted, satisfied from unexpected queue
	RecvDone                // receive completion reaped
	AMSend                  // active message injected (peer = dst)
	AMRecv                  // active message delivered (peer = src)
	Park                    // goroutine blocked waiting for transport events
	ShmHandoff              // zero-copy handoff descriptor published (peer = dst, bytes = full payload)
	HandoffDone             // handoff completion ack observed by the sender (peer = dst)
	RmaPut                  // one-sided put issued (peer = target)
	RmaGet                  // one-sided get issued (peer = target)
	RmaAcc                  // one-sided accumulate/get-accumulate issued (peer = target)
	RmaFlush                // passive-target flush completed (peer = target or -1 for all)
	NotifyWait              // notified-access wait posted (peer = origin)
	Pready                  // partitioned send: partition marked ready (peer = dst, bytes = partition)
	Parrived                // partitioned recv: chunk observed complete (peer = src, bytes = chunk)
	numKinds
)

var kindNames = [numKinds]string{
	"send-eager", "send-rndv", "shm-send", "deposit", "unexpected",
	"post-recv", "unex-hit", "recv-done", "am-send", "am-recv", "park",
	"shm-handoff", "handoff-done",
	"rma-put", "rma-get", "rma-acc", "rma-flush", "notify-wait",
	"pready", "parrived",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded protocol step. T is the recording rank's
// virtual clock in cycles; Peer is the other rank involved (-1 when
// not applicable); VCI is the virtual interface (-1 when not
// applicable).
type Event struct {
	Seq   uint64
	T     int64
	Kind  Kind
	VCI   int16
	Peer  int32
	Bytes int32
}

// Size is the number of events a reader sees: enough recent history
// to see the protocol exchange that led to a stall, small enough to
// live inside every rank's metrics registry.
const Size = 128

// slot is one stored event. Seq is not stored: it is the slot's
// position in the recording sequence, derived when the ring is read.
type slot struct {
	t     int64
	peer  int32
	bytes int32
	vci   int16
	kind  Kind
}

// Ring is a bounded ring of the rank's most recent protocol events.
// Readers (Events, Dump, Total) see the last Size published events and
// are safe on any goroutine. How Record publishes depends on who
// writes, following instr.Profile:
//
//   - Shared (the zero value, and a rank under MPI_THREAD_MULTIPLE):
//     Record takes the mutex and publishes every event at once.
//   - Single writer (SetSingleWriter(true), a rank below
//     MPI_THREAD_MULTIPLE): Record is one plain slot write. The ring
//     keeps 2*Size slots and a published watermark pub; readers copy
//     events [pub-Size, pub) under the mutex, and the owner advances
//     pub under the mutex in Flush — and in Record itself once Size
//     events are unpublished. Unpublished events therefore only ever
//     occupy the other Size slots, so a reader never races the
//     writer. Events recorded since the last Flush are invisible: a
//     dump is exact for a rank that is parked or finished (it flushed
//     on the way) and shows a busy rank as of its last flush.
type Ring struct {
	mu     sync.Mutex
	single bool
	buf    [2 * Size]slot
	n      uint64 // events recorded (owner-only when single, else under mu)
	pub    uint64 // events published to readers; written under mu
}

// SetSingleWriter selects the single-writer form (true) or the locked
// one (false). In the single-writer form only the owning goroutine may
// Record and Flush. Call before the first Record.
func (r *Ring) SetSingleWriter(single bool) { r.single = single }

// Record appends one event, overwriting the oldest. It never
// allocates.
func (r *Ring) Record(k Kind, t int64, peer, bytes, vci int) {
	// The slot about to be written last held event n-2*Size, which a
	// reader may be copying while n-pub >= Size.
	if !r.single || r.n-r.pub >= Size {
		r.recordSlow(k, t, peer, bytes, vci)
		return
	}
	r.put(k, t, peer, bytes, vci)
}

// recordSlow is Record in the locked form, or for a single writer that
// must publish before it may write. Kept out of Record so that the
// common single-writer path calls nothing and spills no arguments.
func (r *Ring) recordSlow(k Kind, t int64, peer, bytes, vci int) {
	if r.single {
		r.Flush()
		r.put(k, t, peer, bytes, vci)
		return
	}
	r.mu.Lock()
	r.put(k, t, peer, bytes, vci)
	r.pub = r.n
	r.mu.Unlock()
}

// put stores one event. Field by field: a composite-literal store is
// built on the stack and copied, which stalls store forwarding.
func (r *Ring) put(k Kind, t int64, peer, bytes, vci int) {
	s := &r.buf[r.n%(2*Size)]
	s.t, s.peer, s.bytes, s.vci, s.kind = t, int32(peer), int32(bytes), int16(vci), k
	r.n++
}

// Flush publishes every event recorded so far. The single writer calls
// it wherever another goroutine may read the ring (the rank publishes
// before it parks, when its body returns, and on abort and dump); in
// the locked form every event is already published.
func (r *Ring) Flush() {
	if !r.single || r.pub == r.n {
		return
	}
	r.mu.Lock()
	r.pub = r.n
	r.mu.Unlock()
}

// Total returns the number of events published (the most recent Size
// of them are retained).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pub
}

// Events returns the retained published events oldest-first. Dump-time
// only: it allocates the copy.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsLocked()
}

func (r *Ring) eventsLocked() []Event {
	lo := uint64(0)
	if r.pub > Size {
		lo = r.pub - Size
	}
	out := make([]Event, 0, r.pub-lo)
	for seq := lo; seq < r.pub; seq++ {
		s := &r.buf[seq%(2*Size)]
		out = append(out, Event{Seq: seq, T: s.t, Kind: s.kind, VCI: s.vci, Peer: s.peer, Bytes: s.bytes})
	}
	return out
}

// Dump renders the retained events human-readably, oldest first, one
// line each, prefixed by label.
func (r *Ring) Dump(w io.Writer, label string) {
	r.mu.Lock()
	evs, total := r.eventsLocked(), r.pub
	r.mu.Unlock()
	fmt.Fprintf(w, "%s flight recorder: %d event(s) recorded, last %d:\n", label, total, len(evs))
	for _, e := range evs {
		fmt.Fprintf(w, "%s   #%d @%d %s peer=%d bytes=%d vci=%d\n",
			label, e.Seq, e.T, e.Kind, e.Peer, e.Bytes, e.VCI)
	}
}
