package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gompi"
)

// kind names a traced public gompi call, or the round that parents it.
type kind uint8

const (
	kIsend kind = iota
	kIrecv
	kRecv
	kSend
	kWait
	kPut
	kGet
	kFlush
	kAllreduce
	kRound
	numKinds
)

var kindNames = [numKinds]string{"isend", "irecv", "recv", "send", "wait", "put", "get", "flush", "allreduce", "round"}

// Bounds on what a traced run keeps per rank: aggregates cover every
// span, while the spans written out and the flush durations sampled
// for rma.flush_p50_cyc stop growing at these caps.
const (
	keptSpans  = 20000
	keptFlushV = 100000
)

// span is one recorded interval on both clocks. Round spans carry
// their own round number in Round; call spans carry their parent's.
type span struct {
	Kind   string   `json:"kind"`
	Rank   int      `json:"rank"`
	Round  int      `json:"round"`
	WallNs [2]int64 `json:"wall_ns"` // since the Run call
	VCyc   [2]int64 `json:"vcycles"`
}

// mark is a span's start on both clocks.
type mark struct {
	wall time.Time
	v    int64
}

// tracer records spans around one rank's public gompi calls, from the
// benchmark's own code. Off, it costs a branch per call.
type tracer struct {
	on     bool
	p      *gompi.Proc
	origin time.Time

	round      int
	roundStart mark
	childNs    int64 // wall time the open round's calls cover

	calls   [numKinds]int64
	selfNs  [numKinds]int64
	roundNs int64   // wall time of all rounds
	flushV  []int64 // virtual cycles of Flush calls
	kept    []span
}

func (t *tracer) begin() mark {
	if !t.on {
		return mark{}
	}
	return mark{time.Now(), t.p.VirtualCycles()}
}

// end closes a call span. Calls are leaves, so self time is duration.
func (t *tracer) end(k kind, m mark) {
	if !t.on {
		return
	}
	now, v := time.Now(), t.p.VirtualCycles()
	d := now.Sub(m.wall).Nanoseconds()
	t.childNs += d
	t.record(k, t.round, m, now, v, d)
}

func (t *tracer) beginRound(n int, at time.Time, v int64) {
	if !t.on {
		return
	}
	t.round, t.roundStart, t.childNs = n, mark{at, v}, 0
}

// endRound closes the open round span; its self time is its duration
// minus the time its calls cover.
func (t *tracer) endRound(now time.Time, v int64) {
	if !t.on {
		return
	}
	d := now.Sub(t.roundStart.wall).Nanoseconds()
	t.roundNs += d
	t.record(kRound, t.round, t.roundStart, now, v, d-t.childNs)
}

func (t *tracer) record(k kind, round int, m mark, now time.Time, v, self int64) {
	t.calls[k]++
	t.selfNs[k] += self
	if k == kFlush && len(t.flushV) < keptFlushV {
		t.flushV = append(t.flushV, v-m.v)
	}
	if len(t.kept) < keptSpans {
		t.kept = append(t.kept, span{
			Kind: kindNames[k], Rank: t.p.Rank(), Round: round,
			WallNs: [2]int64{m.wall.Sub(t.origin).Nanoseconds(), now.Sub(t.origin).Nanoseconds()},
			VCyc:   [2]int64{m.v, v},
		})
	}
}

// writeSpans writes every rank's kept spans as JSON lines.
func writeSpans(path string, ranks []*rankState) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range ranks {
		for i := range r.tr.kept {
			if err := enc.Encode(&r.tr.kept[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
