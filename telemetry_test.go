package gompi

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
)

// telemetryProgram runs a seeded exchange on n ranks, two per node, so
// every rank talks to itself, to its node peer over shm and to the
// other node over the fabric. Each round every ordered pair exchanges
// one message with probability 1/2, tagged with the round and sized
// across the eager, rendezvous and handoff thresholds. The receiver
// picks how it takes the round's messages: exact receives, AnySource,
// AnyTag, or Mprobe+Mrecv — wildcards stay unambiguous because a rank
// gets at most one message per source and round. It returns the
// number of messages the rank received.
func telemetryProgram(p *Proc, seed int64, rounds int) (int64, error) {
	sizes := []int{0, 1, 64, 3000, 20000}
	n, me := p.Size(), p.Rank()
	w := p.World()
	var recvd int64
	rbuf := make([]byte, 20000)
	for r := 0; r < rounds; r++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(r)))
		size := make([][]int, n)
		for src := range size {
			size[src] = make([]int, n)
			for dst := range size[src] {
				size[src][dst] = -1
				if rng.Intn(2) == 0 {
					size[src][dst] = sizes[rng.Intn(len(sizes))]
				}
			}
		}
		var reqs []*Request
		for dst := 0; dst < n; dst++ {
			if sz := size[me][dst]; sz >= 0 {
				buf := make([]byte, sz)
				if sz >= 2 {
					buf[0], buf[1] = byte(me), byte(r)
				}
				req, err := w.Isend(buf, sz, Byte, dst, r)
				if err != nil {
					return 0, err
				}
				reqs = append(reqs, req)
			}
		}
		mode := rand.New(rand.NewSource(seed*7919 + int64(r*n+me))).Intn(4)
		for src := 0; src < n; src++ {
			sz := size[src][me]
			if sz < 0 {
				continue
			}
			var st Status
			var err error
			switch mode {
			case 0:
				st, err = w.Recv(rbuf, len(rbuf), Byte, src, r)
			case 1:
				st, err = w.Recv(rbuf, len(rbuf), Byte, AnySource, r)
			case 2:
				st, err = w.Recv(rbuf, len(rbuf), Byte, src, AnyTag)
			default:
				var m *Message
				if m, err = w.Mprobe(AnySource, r); err == nil {
					st, err = m.Recv(rbuf, m.Count(Byte), Byte)
				}
			}
			if err != nil {
				return 0, err
			}
			if st.Tag != r || (mode != 1 && mode != 3 && st.Source != src) {
				return 0, fmt.Errorf("rank %d round %d mode %d: got %+v from %d", me, r, mode, st, src)
			}
			if st.Count >= 2 && (rbuf[0] != byte(st.Source) || rbuf[1] != byte(r)) {
				return 0, fmt.Errorf("rank %d round %d: payload %v from %d", me, r, rbuf[:2], st.Source)
			}
			recvd++
		}
		if err := Waitall(reqs); err != nil {
			return 0, err
		}
	}
	return recvd, nil
}

// TestTelemetryAcrossThreadLevels checks the receive-side telemetry
// against the traffic that produced it, at both thread levels (the
// single-writer and the shared registry) and with one and four VCIs:
// every message a rank received closes exactly one post→match span and
// one unexpected-residency span, whichever goroutine landed it, and
// every byte sent on a path is received on it.
func TestTelemetryAcrossThreadLevels(t *testing.T) {
	const n, rounds = 4, 40
	for _, tm := range []bool{false, true} {
		for _, vcis := range []int{1, 4} {
			t.Run(fmt.Sprintf("tm=%v/vcis=%d", tm, vcis), func(t *testing.T) {
				var st Stats
				var got [n]int64
				cfg := Config{Device: DeviceCH4, Fabric: "ofi", RanksPerNode: 2,
					ThreadMultiple: tm, VCIs: vcis, Stats: &st}
				run(t, n, cfg, func(p *Proc) error {
					var err error
					got[p.Rank()], err = telemetryProgram(p, 5, rounds)
					return err
				})
				for i, rs := range st.Ranks {
					m := rs.Metrics
					msgs := m.NetRecv.Msgs + m.ShmRecv.Msgs + m.Self.Msgs
					if msgs != got[i] || m.Lat.PostMatch.Count != msgs || m.Lat.UnexRes.Count != msgs {
						t.Errorf("rank %d: received %d, paths %d, post→match %d, unexpected residency %d",
							i, got[i], msgs, m.Lat.PostMatch.Count, m.Lat.UnexRes.Count)
					}
					var vciMsgs int64
					for _, v := range m.VCIs {
						vciMsgs += v.Msgs
					}
					if len(m.VCIs) != vcis || vciMsgs != msgs {
						t.Errorf("rank %d: %d VCIs carrying %d messages, want %d carrying %d", i, len(m.VCIs), vciMsgs, vcis, msgs)
					}
				}
				agg := st.Aggregate()
				if agg.NetSend != agg.NetRecv || agg.ShmSend != agg.ShmRecv {
					t.Errorf("send != receive: net %+v / %+v, shm %+v / %+v",
						agg.NetSend, agg.NetRecv, agg.ShmSend, agg.ShmRecv)
				}
				if agg.NetRecv.Msgs == 0 || agg.ShmRecv.Msgs == 0 || agg.Self.Msgs == 0 {
					t.Errorf("a path carried nothing: net %+v shm %+v self %+v", agg.NetRecv, agg.ShmRecv, agg.Self)
				}
			})
		}
	}
}

// TestDumpStateDuringTraffic has rank 0 dump the whole world while its
// peers stream messages to each other. The dump reads every rank's
// published clock and flight ring from rank 0's goroutine, so under
// -race it fails if any of them is read where the owner writes it
// plainly.
func TestDumpStateDuringTraffic(t *testing.T) {
	const n, msgs = 4, 2000
	for _, tm := range []bool{false, true} {
		t.Run(fmt.Sprintf("tm=%v", tm), func(t *testing.T) {
			var streaming atomic.Int32
			streaming.Store(n - 1)
			var dumps atomic.Int32
			cfg := Config{Device: DeviceCH4, Fabric: "ofi", RanksPerNode: 2, ThreadMultiple: tm}
			run(t, n, cfg, func(p *Proc) error {
				w := p.World()
				if p.Rank() == 0 {
					var b strings.Builder
					for streaming.Load() > 0 {
						b.Reset()
						p.DumpState(&b)
						dumps.Add(1)
					}
					if !strings.Contains(b.String(), "flight recorder") {
						return fmt.Errorf("dump without flight rings:\n%s", b.String())
					}
					return nil
				}
				defer streaming.Add(-1)
				// Ranks 1..3 form a ring.
				right := p.Rank()%(n-1) + 1
				left := (p.Rank()+n-3)%(n-1) + 1
				sbuf, rbuf := make([]byte, 8), make([]byte, 8)
				for i := 0; i < msgs; i++ {
					req, err := w.Isend(sbuf, len(sbuf), Byte, right, 0)
					if err != nil {
						return err
					}
					if _, err := w.Recv(rbuf, len(rbuf), Byte, left, 0); err != nil {
						return err
					}
					if _, err := req.Wait(); err != nil {
						return err
					}
				}
				return nil
			})
			if dumps.Load() == 0 {
				t.Fatal("no dump overlapped the traffic")
			}
		})
	}
}
