package gompi

import (
	"fmt"
	"testing"

	"gompi/internal/core"
)

// The per-check costs errors.go charges, in the order the checks run.
var (
	sendCheckCosts = []int64{
		4,  // library initialized
		10, // communicator handle
		10, // rank range
		6,  // tag range
		4,  // count non-negative
		8,  // datatype handle
		6,  // datatype committed
		8,  // buffer present
		10, // size overflow and buffer capacity
		8,  // request slot
	}
	rmaCheckCosts = []int64{
		4 + 10, // library initialized; window handle
		8,      // inside an access epoch
		10,     // target rank range
		4,      // count non-negative
		8,      // datatype handle
		6,      // datatype committed
		8,      // origin buffer
		14,     // target displacement
	}
)

// prefix is the cost of checks[0..i], the charge of a call that fails
// at check i (a rank out of range: 4+10+10 = 24). i == len(checks)
// means the call passed every check: 74 for Isend/Irecv, 72 for Put.
func prefix(checks []int64, i int) int64 {
	var n int64
	for _, c := range checks[:min(i+1, len(checks))] {
		n += c
	}
	return n
}

// TestErrorPathCharges pins the Error checking charge of failing
// Isend, Irecv and Put calls: each charges exactly the checks that ran
// up to and including the one that rejected it, and the success paths
// keep Table 1's 74 (Isend) and 72 (Put).
func TestErrorPathCharges(t *testing.T) {
	run(t, 2, Config{Device: "ch4", Fabric: "inf", Build: "default"}, func(p *Proc) error {
		w := p.World()
		freed, err := w.Dup()
		if err != nil {
			return err
		}
		if err := freed.Free(); err != nil {
			return err
		}
		win, _, err := w.WinAllocate(64, 1)
		if err != nil {
			return err
		}
		if p.Rank() != 0 {
			if err := win.Fence(); err != nil {
				return err
			}
			if err := win.Fence(); err != nil {
				return err
			}
			return win.Free()
		}

		loose, err := TypeContiguous(4, Byte) // never committed
		if err != nil {
			return err
		}
		buf := make([]byte, 8)
		nilComm := &Comm{p: p}
		nilWin := &Win{p: p}
		type tc struct {
			name   string
			checks []int64
			failAt int // index of the rejecting check; len(checks) = success
			class  ErrorClass
			call   func() error
		}
		isend := func(c *Comm, b []byte, n int, dt *Datatype, dest, tag int) func() error {
			return func() error { _, err := c.Isend(b, n, dt, dest, tag); return err }
		}
		irecv := func(c *Comm, b []byte, n int, dt *Datatype, src, tag int) func() error {
			return func() error { _, err := c.Irecv(b, n, dt, src, tag); return err }
		}
		put := func(wn *Win, b []byte, n int, dt *Datatype, target, disp int) func() error {
			return func() error { return wn.Put(b, n, dt, target, disp) }
		}
		s, r := sendCheckCosts, rmaCheckCosts
		outside := []tc{
			{"put/nil-window", r, 0, ErrWin, put(nilWin, buf, 1, Byte, 1, 0)},
			{"put/no-epoch", r, 1, ErrRMASync, put(win, buf, 1, Byte, 1, 0)},
		}
		inside := []tc{
			{"isend/nil-comm", s, 1, ErrComm, isend(nilComm, buf, 8, Byte, 1, 0)},
			{"isend/freed-comm", s, 1, ErrComm, isend(freed, buf, 8, Byte, 1, 0)},
			{"isend/rank-out-of-range", s, 2, ErrRank, isend(w, buf, 8, Byte, 2, 0)},
			{"isend/any-source", s, 2, ErrRank, isend(w, buf, 8, Byte, core.AnySource, 0)},
			{"isend/negative-tag", s, 3, ErrTag, isend(w, buf, 8, Byte, 1, -5)},
			{"isend/negative-count", s, 4, ErrCount, isend(w, buf, -1, Byte, 1, 0)},
			{"isend/nil-datatype", s, 5, ErrType, isend(w, buf, 8, nil, 1, 0)},
			{"isend/uncommitted-datatype", s, 6, ErrType, isend(w, buf, 1, loose, 1, 0)},
			{"isend/nil-buffer", s, 7, ErrBuffer, isend(w, nil, 8, Byte, 1, 0)},
			{"isend/short-buffer", s, 8, ErrBuffer, isend(w, buf, 9, Byte, 1, 0)},
			{"isend/ok", s, len(s), ErrNone, isend(w, buf, 8, Byte, core.ProcNull, 0)},
			{"irecv/nil-comm", s, 1, ErrComm, irecv(nilComm, buf, 8, Byte, 1, 0)},
			{"irecv/freed-comm", s, 1, ErrComm, irecv(freed, buf, 8, Byte, 1, 0)},
			{"irecv/rank-out-of-range", s, 2, ErrRank, irecv(w, buf, 8, Byte, 7, 0)},
			{"irecv/tag-above-max", s, 3, ErrTag, irecv(w, buf, 8, Byte, 1, 1<<31)},
			{"irecv/negative-count", s, 4, ErrCount, irecv(w, buf, -3, Byte, 1, 0)},
			{"irecv/nil-datatype", s, 5, ErrType, irecv(w, buf, 8, nil, 1, 0)},
			{"irecv/uncommitted-datatype", s, 6, ErrType, irecv(w, buf, 1, loose, 1, 0)},
			{"irecv/nil-buffer", s, 7, ErrBuffer, irecv(w, nil, 8, Byte, 1, 0)},
			{"irecv/short-buffer", s, 8, ErrBuffer, irecv(w, buf[:4], 8, Byte, 1, 0)},
			{"irecv/ok", s, len(s), ErrNone, irecv(w, buf, 8, Byte, core.ProcNull, 0)},
			{"put/rank-out-of-range", r, 2, ErrRank, put(win, buf, 1, Byte, 2, 0)},
			{"put/negative-count", r, 3, ErrCount, put(win, buf, -1, Byte, 1, 0)},
			{"put/nil-datatype", r, 4, ErrType, put(win, buf, 1, nil, 1, 0)},
			{"put/uncommitted-datatype", r, 5, ErrType, put(win, buf, 1, loose, 1, 0)},
			{"put/nil-buffer", r, 6, ErrBuffer, put(win, nil, 1, Byte, 1, 0)},
			{"put/negative-disp", r, 7, ErrArg, put(win, buf, 1, Byte, 1, -1)},
			{"put/ok", r, len(r), ErrNone, put(win, buf, 1, Byte, 1, 0)},
		}
		check := func(c tc) error {
			before := p.Counters()
			err := c.call()
			d := p.Counters().Sub(before)
			if got := ClassOf(err); got != c.class {
				return fmt.Errorf("%s: error class %v (%v), want %v", c.name, got, err, c.class)
			}
			if want := prefix(c.checks, c.failAt); d.ErrorCheck != want {
				return fmt.Errorf("%s: charged %d error-check instructions, want %d", c.name, d.ErrorCheck, want)
			}
			return nil
		}
		for _, c := range outside {
			if err := check(c); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		for _, c := range inside {
			if err := check(c); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		return win.Free()
	})
}
