package gompi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// failFast runs body and requires it to finish well under the test
// timeout — the whole point of world teardown.
func failFast(t *testing.T, n int, cfg Config, body func(p *Proc) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Run(n, cfg, body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("world did not tear down after a rank failure")
		return nil
	}
}

func TestAbortUnblocksPendingRecv(t *testing.T) {
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		dev := dev
		t.Run(string(dev), func(t *testing.T) {
			boom := errors.New("boom")
			err := failFast(t, 3, Config{Device: dev, Fabric: "ofi"}, func(p *Proc) error {
				if p.Rank() == 0 {
					return boom // never sends what rank 1 waits for
				}
				buf := make([]byte, 1)
				_, err := p.World().Recv(buf, 1, Byte, 0, 0)
				return err
			})
			if !errors.Is(err, boom) {
				t.Fatalf("original failure lost: %v", err)
			}
			if err != nil && strings.Contains(err.Error(), "world aborted") {
				t.Fatalf("fallout not filtered: %v", err)
			}
		})
	}
}

func TestAbortUnblocksCollective(t *testing.T) {
	boom := errors.New("collective boom")
	err := failFast(t, 4, Config{Fabric: "inf"}, func(p *Proc) error {
		if p.Rank() == 2 {
			return boom
		}
		return p.World().Barrier()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortUnblocksCommCreation(t *testing.T) {
	boom := errors.New("split boom")
	err := failFast(t, 3, Config{}, func(p *Proc) error {
		if p.Rank() == 1 {
			return boom
		}
		// The creation collective needs all ranks; rank 1 never joins.
		_, err := p.World().Split(0, p.Rank())
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortUnblocksPSCW(t *testing.T) {
	boom := errors.New("pscw boom")
	err := failFast(t, 2, Config{Fabric: "ucx"}, func(p *Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		if p.Rank() == 1 {
			return boom // never posts
		}
		if err := win.Start([]int{1}); err != nil { // blocks on the post token
			return err
		}
		return win.Complete()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortPanicAlsoTearsDown(t *testing.T) {
	// A rank panicking while a peer is blocked on it: the panic must
	// tear the world down and be the reported failure.
	err := failFast(t, 3, Config{Fabric: "ofi"}, func(p *Proc) error {
		if p.Rank() == 0 {
			panic("deliberate panic")
		}
		buf := make([]byte, 1)
		_, err := p.World().Recv(buf, 1, Byte, 0, 0)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic lost: %v", err)
	}
	if strings.Contains(err.Error(), "world aborted") {
		t.Fatalf("fallout not filtered: %v", err)
	}
}

func TestNoSpuriousAbortOnSuccess(t *testing.T) {
	// A clean run must not trip any abort machinery.
	err := failFast(t, 4, Config{Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
		if err := p.World().Barrier(); err != nil {
			return err
		}
		vals, err := p.World().AllreduceFloat64([]float64{1}, OpSum)
		if err != nil {
			return err
		}
		if vals[0] != 4 {
			return fmt.Errorf("allreduce %v", vals[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAbortMidTrafficDump fails one rank while its peers are still
// exchanging messages, below MPI_THREAD_MULTIPLE (single-writer clocks)
// and with a DiagWriter set: the dump runs on the failing rank's
// goroutine while the others keep charging, so it must read their
// clocks through what they published (clean under -race) and still
// list every rank's clock.
func TestAbortMidTrafficDump(t *testing.T) {
	const n = 4
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		t.Run(string(dev), func(t *testing.T) {
			var diag strings.Builder
			boom := errors.New("mid-traffic boom")
			cfg := Config{Device: dev, Fabric: "ofi", RanksPerNode: 2, DiagWriter: &diag}
			err := failFast(t, n, cfg, func(p *Proc) error {
				w := p.World()
				right, left := (p.Rank()+1)%n, (p.Rank()+n-1)%n
				sbuf, rbuf := make([]byte, 64), make([]byte, 64)
				for i := 0; ; i++ {
					if p.Rank() == 0 && i == 50 {
						return boom
					}
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
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the original failure", err)
			}
			out := diag.String()
			for i := 0; i < n; i++ {
				if !strings.Contains(out, fmt.Sprintf("rank %d: vcycles=", i)) {
					t.Errorf("dump missing rank %d's clock:\n%s", i, out)
				}
			}
			// The failing rank publishes before it tears the world
			// down, so its own line shows the traffic it charged.
			if strings.Contains(out, "rank 0: vcycles=0 ") {
				t.Errorf("failing rank's clock not published:\n%s", out)
			}
			// Its flight ring is published with the clock: the dump
			// shows the receives it completed and how each message
			// met its receive.
			var ring []string
			for _, l := range strings.Split(out, "\n") {
				if strings.HasPrefix(l, "rank 0   #") {
					ring = append(ring, l)
				}
			}
			tail := strings.Join(ring, "\n")
			if !strings.Contains(tail, " recv-done ") ||
				!(strings.Contains(tail, " deposit ") || strings.Contains(tail, " unex-hit ")) {
				t.Errorf("rank 0's flight ring lacks recv-done and deposit/unex-hit:\n%s", out)
			}
		})
	}
}
