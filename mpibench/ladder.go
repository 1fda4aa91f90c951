package main

import (
	"fmt"
	"time"

	"gompi/internal/datatype"
	"gompi/internal/fabric"
	"gompi/internal/flight"
	"gompi/internal/hist"
	"gompi/internal/instr"
	"gompi/internal/match"
	"gompi/internal/metrics"
	"gompi/internal/proc"
	"gompi/internal/request"
	"gompi/internal/shm"
	"gompi/internal/vtime"
)

// The layer ladder is the wall-clock counterpart of the paper's
// Figure 2: one microbenchmark per internal layer on the small-message
// path, each calling only that package's exported functions and fed
// the generator's own message sizes, tags, pre-post queue depth and
// halo vector datatype for the run's seed.

// rung is one ladder microbenchmark: run performs n calls.
type rung struct {
	name string
	run  func(n int) error
}

const (
	ladderReps   = 5
	ladderTarget = 10 * time.Millisecond // wall time of one rep
)

// runLadder times every rung and returns its median wall ns per call.
func runLadder(seed int64) (map[string]float64, error) {
	rungs, err := ladderRungs(seed)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(rungs))
	for _, g := range rungs {
		ns, err := timeRung(g)
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", g.name, err)
		}
		out["ladder."+g.name+"_ns"] = ns
	}
	return out, nil
}

// timeRung sizes a rep to about ladderTarget, then reports the median
// ns per call over ladderReps reps.
func timeRung(g rung) (float64, error) {
	n := 1000
	for {
		t0 := time.Now()
		if err := g.run(n); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d >= ladderTarget/4 {
			n = int(float64(n) * float64(ladderTarget) / float64(d))
			break
		}
		n *= 4
	}
	per := make([]float64, ladderReps)
	for i := range per {
		t0 := time.Now()
		if err := g.run(n); err != nil {
			return 0, err
		}
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per), nil
}

func ladderRungs(seed int64) ([]rung, error) {
	msgIn, err := Generate("small-msg", seed)
	if err != nil {
		return nil, err
	}
	haloIn, err := Generate("halo-cg", seed)
	if err != nil {
		return nil, err
	}
	// The small-msg messages in schedule order: sizes, tags and each
	// window's pre-posted receive count.
	var payloads [][]byte
	var bits []match.Bits
	depth := 0
	for _, w := range msgIn.Windows {
		for _, op := range w.Ops {
			if op.Kind != opSend {
				continue
			}
			payloads = append(payloads, op.Payload)
			bits = append(bits, match.MakeBits(1, 0, op.Tag))
		}
	}
	for _, op := range msgIn.Windows[0].Ops {
		if op.Kind == opSend && op.Pre {
			depth++
		}
	}
	nm := len(payloads)
	h := haloIn.Halo[0]

	face, err := datatype.NewVector(h.NY, 1, h.NX, datatype.Double)
	if err != nil {
		return nil, err
	}
	if err := face.Commit(); err != nil {
		return nil, err
	}
	field := make([]byte, 8*h.NX*h.NY)
	packed := make([]byte, 8*h.NY)

	prof, _ := fabric.ByName("ofi")
	world := proc.NewWorld(2, 1, prof.Hz)
	fab := fabric.New(prof, 2)
	for i := 0; i < 2; i++ {
		fab.Endpoint(i).Bind(world.Rank(i))
	}
	src, dst := fab.Endpoint(0), fab.Endpoint(1)
	rbuf := make([]byte, maxSmall)
	op := &fabric.RecvOp{}

	shmWorld := proc.NewWorld(2, 2, prof.Hz)
	dom := shm.NewDomain(shm.DefaultProfile, 2, func(_ int, _ match.Bits, _ int, data []byte, _ vtime.Time, _ int) {
		copy(rbuf, data)
	}, nil)
	for i := 0; i < 2; i++ {
		dom.Bind(i, shmWorld.Rank(i))
	}

	var eng match.Engine
	var pool request.Pool
	var prf instr.Profile
	var hh hist.H
	var ring flight.Ring
	clk := vtime.NewClock(prof.Hz)
	var ps metrics.PathStat

	return []rung{
		{"datatype.pack", func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := datatype.Pack(face, 1, field[8*h.XFace:], packed); err != nil {
					return err
				}
			}
			return nil
		}},
		{"match.post_arrive", func(n int) error {
			// Keep depth receives posted; each call posts one and
			// matches the oldest against its arriving message.
			for i := 0; i < depth; i++ {
				eng.PostRecv(bits[i%nm], match.FullMask, nil)
			}
			for i := 0; i < n; i++ {
				eng.PostRecv(bits[(i+depth)%nm], match.FullMask, nil)
				if _, ok := eng.Arrive(bits[i%nm], nil); !ok {
					return fmt.Errorf("message %d found no posted receive", i)
				}
			}
			for i := n; i < n+depth; i++ {
				if _, ok := eng.Arrive(bits[i%nm], nil); !ok {
					return fmt.Errorf("drain %d found no posted receive", i)
				}
			}
			return nil
		}},
		{"request.get_put", func(n int) error {
			for i := 0; i < n; i++ {
				pool.Get(request.KindRecv).Free()
			}
			return nil
		}},
		{"fabric.send_drain", func(n int) error {
			for i := 0; i < n; i++ {
				op.Reset()
				op.Buf = rbuf
				dst.PostRecv(op, bits[i%nm], match.FullMask)
				src.TaggedSend(1, bits[i%nm], payloads[i%nm])
				if !dst.RecvDone(op) {
					return fmt.Errorf("receive %d did not complete", i)
				}
			}
			return nil
		}},
		{"shm.send_progress", func(n int) error {
			for i := 0; i < n; i++ {
				dom.Send(0, 1, bits[i%nm], payloads[i%nm])
				if dom.Progress(1) != 1 {
					return fmt.Errorf("message %d not delivered", i)
				}
			}
			return nil
		}},
		{"instr.charge", func(n int) error {
			for i := 0; i < n; i++ {
				prf.Charge(instr.Mandatory, int64(len(payloads[i%nm])))
			}
			return nil
		}},
		{"hist.observe", func(n int) error {
			for i := 0; i < n; i++ {
				hh.Observe(int64(len(payloads[i%nm])))
			}
			return nil
		}},
		{"flight.record", func(n int) error {
			for i := 0; i < n; i++ {
				ring.Record(flight.SendEager, int64(i), 1, len(payloads[i%nm]), 0)
			}
			return nil
		}},
		{"vtime.advance", func(n int) error {
			for i := 0; i < n; i++ {
				clk.Advance(int64(len(payloads[i%nm])))
			}
			return nil
		}},
		{"metrics.note", func(n int) error {
			for i := 0; i < n; i++ {
				ps.Note(len(payloads[i%nm]))
			}
			return nil
		}},
	}, nil
}
