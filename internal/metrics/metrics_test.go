package metrics

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestNoteAndSnapshot(t *testing.T) {
	var r Rank
	r.NetSend.Note(100)
	r.NetSend.Note(28)
	r.Eager.Note(128)
	r.MaxUnexpected(5)
	r.MaxUnexpected(3) // must not lower the high water
	r.ReqAllocs++
	r.ReqReuses++
	r.RmaPuts++

	s := r.Snapshot()
	if s.NetSend.Msgs != 2 || s.NetSend.Bytes != 128 {
		t.Errorf("NetSend = %+v, want {2 128}", s.NetSend)
	}
	if s.Match.UnexpectedMax != 5 {
		t.Errorf("UnexpectedMax = %d, want 5", s.Match.UnexpectedMax)
	}
	if s.Req.Allocs != 1 || s.Req.Reuses != 1 || s.Rma.Puts != 1 {
		t.Errorf("snapshot dropped counters: %+v", s)
	}
}

func TestMerge(t *testing.T) {
	var a, b Rank
	a.ShmSend.Note(64)
	a.MaxUnexpected(7)
	b.ShmRecv.Note(64)
	b.MaxUnexpected(3)
	b.MatchBinHits = 2

	m := a.Snapshot().Merge(b.Snapshot())
	if m.ShmSend.Bytes != 64 || m.ShmRecv.Bytes != 64 {
		t.Errorf("merge lost path bytes: %+v", m)
	}
	if m.Match.UnexpectedMax != 7 {
		t.Errorf("merged UnexpectedMax = %d, want max(7,3)=7", m.Match.UnexpectedMax)
	}
	if m.Match.BinHits != 2 {
		t.Errorf("merged BinHits = %d, want 2", m.Match.BinHits)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	var r Rank
	r.NetSend.Note(1)
	out, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"net_send", "shm_send", "match", "buffer_pool", "request_pool", "rma"} {
		if _, ok := m[key]; !ok {
			t.Errorf("snapshot JSON missing %q: %s", key, out)
		}
	}
}

// exercise drives every writer of the registry once per i.
func exercise(r *Rank, i int) {
	r.NetSend.Note(i)
	r.CopiesDirect.Note(2 * i)
	r.MaxUnexpected(i % 13)
	r.MaxPosted(i % 5)
	r.NoteReqAlloc(i%2 == 0)
	r.NoteColl(i%NumCollAlgos, int64(i))
	r.NoteSchedCache(i%3 == 0)
	r.NotePartitionsReady(1)
	r.NoteRmaPut()
	r.NoteRmaFlush()
	r.NotePeerState(i%4 == 0, 8)
	r.Lat.ReqLife.Observe(int64(i))
	r.Lat.WaitPark.Observe(int64(i % 17))
	r.Flight.Record(0, int64(i), i, i, 0)
}

// TestSingleWriterMatchesShared: the plain-update form a rank uses
// below MPI_THREAD_MULTIPLE snapshots exactly like the atomic form.
func TestSingleWriterMatchesShared(t *testing.T) {
	var shared, single Rank
	single.SetSingleWriter(true)
	for i := 0; i < 1000; i++ {
		exercise(&shared, i)
		exercise(&single, i)
	}
	single.Flight.Flush()
	if a, b := shared.Snapshot(), single.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("single-writer snapshot differs:\nshared %+v\nsingle %+v", a, b)
	}
	if a, b := shared.Flight.Events(), single.Flight.Events(); !reflect.DeepEqual(a, b) {
		t.Fatalf("single-writer flight ring differs")
	}
}

// TestSharedRankConcurrentWriters pins the zero value as the
// MPI_THREAD_MULTIPLE form: concurrent writers lose nothing (and are
// race-clean under -race).
func TestSharedRankConcurrentWriters(t *testing.T) {
	const goroutines, per = 8, 500
	var r, want Rank
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				exercise(&r, i)
			}
		}()
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < per; i++ {
			exercise(&want, i)
		}
	}
	wg.Wait()
	if a, b := r.Snapshot(), want.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("concurrent snapshot differs:\ngot  %+v\nwant %+v", a, b)
	}
	if got := r.Flight.Total(); got != goroutines*per {
		t.Fatalf("flight Total = %d, want %d", got, goroutines*per)
	}
}

// BenchmarkNote prices one path-counter bump in the atomic form (the
// zero value) and the single-writer form.
func BenchmarkNote(b *testing.B) {
	for _, single := range []bool{false, true} {
		b.Run(fmt.Sprintf("single=%v", single), func(b *testing.B) {
			var r Rank
			r.SetSingleWriter(single)
			for i := 0; i < b.N; i++ {
				r.NetSend.Note(i & 255)
			}
		})
	}
}
