package flight

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// record writes events first..last-1, event i carrying T=i and
// Peer=i%7, Bytes=i, VCI=i%3.
func record(r *Ring, first, last int) {
	for i := first; i < last; i++ {
		r.Record(Kind(i%int(numKinds)), int64(i), i%7, i, i%3)
	}
}

// checkTail asserts evs are exactly events [from, to) as written by
// record, oldest first, with Seq equal to the recording index.
func checkTail(t *testing.T, evs []Event, from, to int) {
	t.Helper()
	if len(evs) != to-from {
		t.Fatalf("got %d events, want %d (seq %d..%d)", len(evs), to-from, from, to-1)
	}
	for j, e := range evs {
		i := from + j
		want := Event{Seq: uint64(i), T: int64(i), Kind: Kind(i % int(numKinds)), VCI: int16(i % 3), Peer: int32(i % 7), Bytes: int32(i)}
		if e != want {
			t.Fatalf("event %d = %+v, want %+v", j, e, want)
		}
	}
}

func TestRingOrderAndOverwrite(t *testing.T) {
	for _, single := range []bool{false, true} {
		t.Run(fmt.Sprintf("single=%v", single), func(t *testing.T) {
			var r Ring
			r.SetSingleWriter(single)
			if evs := r.Events(); len(evs) != 0 || r.Total() != 0 {
				t.Fatalf("empty ring: %d events, total %d", len(evs), r.Total())
			}
			record(&r, 0, 5)
			r.Flush()
			checkTail(t, r.Events(), 0, 5)
			// Wrap several times: only the last Size survive, in order.
			record(&r, 5, 5*Size+3)
			r.Flush()
			if got := r.Total(); got != 5*Size+3 {
				t.Fatalf("Total = %d, want %d", got, 5*Size+3)
			}
			checkTail(t, r.Events(), 4*Size+3, 5*Size+3)
		})
	}
}

// TestSingleWriterPublishes pins the single-writer contract: events are
// invisible to readers until Flush, and Record publishes by itself
// once Size events are unpublished, so a reader never lags the writer
// by more than Size events.
func TestSingleWriterPublishes(t *testing.T) {
	var r Ring
	r.SetSingleWriter(true)
	record(&r, 0, 10)
	if r.Total() != 0 || len(r.Events()) != 0 {
		t.Fatalf("unflushed events visible: total %d", r.Total())
	}
	r.Flush()
	checkTail(t, r.Events(), 0, 10)
	record(&r, 10, 10+Size)
	if got := r.Total(); got != 10 {
		t.Fatalf("Total after %d unpublished events = %d, want 10", Size, got)
	}
	// The next event finds Size unpublished and publishes them first.
	record(&r, 10+Size, 11+Size)
	if got := r.Total(); got != 10+Size {
		t.Fatalf("Total after self-flush = %d, want %d", got, 10+Size)
	}
	checkTail(t, r.Events(), 10, 10+Size)
	r.Flush()
	checkTail(t, r.Events(), 11, 11+Size)
}

// TestLockedRingPublishesEachEvent: the zero value (shared form) needs
// no Flush.
func TestLockedRingPublishesEachEvent(t *testing.T) {
	var r Ring
	record(&r, 0, 3)
	checkTail(t, r.Events(), 0, 3)
}

func TestDump(t *testing.T) {
	var r Ring
	r.SetSingleWriter(true)
	r.Record(SendEager, 100, 3, 8, 1)
	r.Record(RecvDone, 250, -1, 0, -1)
	r.Flush()
	var b bytes.Buffer
	r.Dump(&b, "rank 2")
	want := "rank 2 flight recorder: 2 event(s) recorded, last 2:\n" +
		"rank 2   #0 @100 send-eager peer=3 bytes=8 vci=1\n" +
		"rank 2   #1 @250 recv-done peer=-1 bytes=0 vci=-1\n"
	if b.String() != want {
		t.Fatalf("Dump =\n%s\nwant\n%s", b.String(), want)
	}
}

// TestSingleWriterConcurrentReader races a dump reader against the
// single writer. The writer flushes periodically, as a rank publishes
// before it parks; the reader sees a coherent published tail each
// time. Under -race this fails if Record ever writes a slot a reader
// may be copying (a ring of only Size slots would).
func TestSingleWriterConcurrentReader(t *testing.T) {
	const events = 100000
	var r Ring
	r.SetSingleWriter(true)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var b strings.Builder
		for {
			select {
			case <-done:
				return
			default:
			}
			evs := r.Events()
			for j := 1; j < len(evs); j++ {
				if evs[j].Seq != evs[j-1].Seq+1 || evs[j].T != int64(evs[j].Seq) {
					t.Errorf("incoherent tail at %d: %+v after %+v", j, evs[j], evs[j-1])
					return
				}
			}
			b.Reset()
			r.Dump(&b, "r")
		}
	}()
	for i := 0; i < events; i++ {
		r.Record(Deposit, int64(i), 1, 1, 0)
		if i%37 == 0 {
			r.Flush()
		}
	}
	r.Flush()
	close(done)
	wg.Wait()
	if got := r.Total(); got != events {
		t.Fatalf("Total = %d, want %d", got, events)
	}
}

func TestRecordAllocFree(t *testing.T) {
	var r Ring
	r.SetSingleWriter(true)
	if n := testing.AllocsPerRun(1000, func() { r.Record(Park, 1, -1, 0, 0) }); n != 0 {
		t.Fatalf("Record allocates %.1f per call", n)
	}
}

// BenchmarkRecord prices one event in the locked form (the zero value,
// MPI_THREAD_MULTIPLE) and the single-writer form.
func BenchmarkRecord(b *testing.B) {
	for _, single := range []bool{false, true} {
		b.Run(fmt.Sprintf("single=%v", single), func(b *testing.B) {
			var r Ring
			r.SetSingleWriter(single)
			for i := 0; i < b.N; i++ {
				r.Record(SendEager, int64(i), 1, 8, 0)
			}
		})
	}
}
