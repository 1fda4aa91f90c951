package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"gompi"
)

// workloads are the benchmark's four seeded workloads, in the order
// BENCHMARK.json lists them. Every one is a closed loop with one
// client: rank 0 drives, the peers answer or step with it.
var workloads = []*workload{
	{
		name:  "small-msg",
		why:   "per-message software cost on ch4 over ofi: seeded 1-256 B Isend/Recv, expected and unexpected, plus 8 B Put flushed per window",
		ranks: 2,
		cfg:   gompi.Config{Device: gompi.DeviceCH4, Fabric: gompi.FabricOFI},
		body:  smallMsg,
	},
	{
		name:  "bulk-shm",
		why:   "byte copies dominate: seeded 4-256 KiB Send/Recv and Put/Get between two ranks of one node, staged and handoff paths",
		ranks: 2,
		cfg:   gompi.Config{Device: gompi.DeviceCH4, Fabric: gompi.FabricOFI, RanksPerNode: 2, ShmEagerMax: shmEagerMax},
		body:  bulkShm,
	},
	{
		name:  "halo-cg",
		why:   "application step: CG on a seeded sparse matrix, vector-datatype halo over shm and net, two Allreduce per iteration",
		ranks: 4,
		cfg:   gompi.Config{Device: gompi.DeviceCH4, Fabric: gompi.FabricOFI, RanksPerNode: 2},
		body:  haloCG,
	},
	{
		name:  "small-msg-ch3",
		why:   "the paper's baseline: small-msg's inputs on the CH3-style device (big lock, linear matching, O(n) RMA)",
		ranks: 2,
		cfg:   gompi.Config{Device: gompi.DeviceOriginal, Fabric: gompi.FabricOFI},
		body:  smallMsg,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Traced wrappers: each public gompi call of the measured loops goes
// through one of these, so a traced run puts a span around it.

func (r *rankState) isend(buf []byte, count int, dt *gompi.Datatype, dest, tag int) (*gompi.Request, error) {
	m := r.tr.begin()
	q, err := r.p.World().Isend(buf, count, dt, dest, tag)
	r.tr.end(kIsend, m)
	return q, err
}

func (r *rankState) irecv(buf []byte, count int, dt *gompi.Datatype, src, tag int) (*gompi.Request, error) {
	m := r.tr.begin()
	q, err := r.p.World().Irecv(buf, count, dt, src, tag)
	r.tr.end(kIrecv, m)
	return q, err
}

func (r *rankState) recv(buf []byte, src, tag int) (gompi.Status, error) {
	m := r.tr.begin()
	st, err := r.p.World().Recv(buf, len(buf), gompi.Byte, src, tag)
	r.tr.end(kRecv, m)
	return st, err
}

func (r *rankState) send(buf []byte, dest, tag int) error {
	m := r.tr.begin()
	err := r.p.World().Send(buf, len(buf), gompi.Byte, dest, tag)
	r.tr.end(kSend, m)
	return err
}

func (r *rankState) wait(q *gompi.Request) (gompi.Status, error) {
	m := r.tr.begin()
	st, err := q.Wait()
	r.tr.end(kWait, m)
	return st, err
}

func (r *rankState) put(win *gompi.Win, buf []byte, target, disp int) error {
	m := r.tr.begin()
	err := win.Put(buf, len(buf), gompi.Byte, target, disp)
	r.tr.end(kPut, m)
	return err
}

func (r *rankState) get(win *gompi.Win, buf []byte, target, disp int) error {
	m := r.tr.begin()
	err := win.Get(buf, len(buf), gompi.Byte, target, disp)
	r.tr.end(kGet, m)
	return err
}

func (r *rankState) flush(win *gompi.Win, target int) error {
	m := r.tr.begin()
	err := win.Flush(target)
	r.tr.end(kFlush, m)
	return err
}

func (r *rankState) allreduce(send, recv []float64) error {
	m := r.tr.begin()
	err := r.p.World().Allreduce(f64bytes(send), f64bytes(recv), len(send), gompi.Double, gompi.OpSum)
	r.tr.end(kAllreduce, m)
	return err
}

// statusOK checks a completed receive's envelope.
func statusOK(st gompi.Status, src, tag, count int) bool {
	return st.Source == src && st.Tag == tag && st.Count == count
}

// payloadOK compares received bytes with the generated ones. The
// payload fault flips one received byte first, once per job.
func (j *job) payloadOK(got, want []byte) bool {
	if j.o.inject.payload && len(got) > 0 && j.injectedPayload.CompareAndSwap(false, true) {
		got[0] ^= 0xFF
	}
	return bytes.Equal(got, want)
}

// phase runs loop once as warm-up (one schedule pass) and once as the
// measured region, with set-up timing in between.
func (j *job) phase(r *rankState, loop func(measured bool) error) error {
	if err := loop(false); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	ok, err := j.ready(r)
	if err != nil || !ok {
		return err
	}
	if err := loop(true); err != nil {
		return err
	}
	return j.finish(r)
}

// smallMsg runs windows of seeded small messages and Puts from rank 0
// to rank 1. Rank 1 pre-posts the receives the generator marked (the
// last message's among them) before acknowledging the previous window,
// so those match on arrival; it posts the rest once the last message
// is in, when every earlier one has arrived, so those match from the
// unexpected queue.
func smallMsg(j *job, r *rankState) error {
	w := r.p.World()
	win, mem, err := w.WinAllocate(windowOps*putBytes, 1)
	if err != nil {
		return err
	}
	if r.p.Rank() == 0 {
		if err := win.LockAll(); err != nil {
			return err
		}
		err = j.phase(r, func(measured bool) error { return j.msgDriver(r, win, measured) })
		if err == nil {
			err = win.UnlockAll()
		}
	} else {
		err = j.phase(r, func(measured bool) error { return j.msgPeer(r, mem, measured) })
	}
	if err != nil {
		return err
	}
	if err := w.Barrier(); err != nil {
		return err
	}
	return win.Free()
}

func (j *job) msgDriver(r *rankState, win *gompi.Win, measured bool) error {
	ack := make([]byte, 8)
	reqs := make([]*gompi.Request, 0, windowOps)
	ackOK := func(q *gompi.Request, want int) error {
		st, err := r.wait(q)
		if err != nil {
			return err
		}
		r.check(statusOK(st, 1, ackTag, 8) && int64(binary.LittleEndian.Uint64(ack)) == int64(want))
		return nil
	}
	// The peer's first message says its first receives are posted.
	q, err := r.irecv(ack, 8, gompi.Byte, 1, ackTag)
	if err != nil {
		return err
	}
	if err := ackOK(q, -1); err != nil {
		return err
	}
	for k := 0; ; k++ {
		if measured && k == msgCycle {
			r.passEnd(j)
		}
		wi := &j.in.Windows[k%msgCycle]
		r.beginRound()
		reqs = reqs[:0]
		for i, op := range wi.Ops[:windowOps-1] {
			if op.Kind == opPut {
				if err := r.put(win, op.Payload, 1, i*putBytes); err != nil {
					return err
				}
				continue
			}
			q, err := r.isend(op.Payload, len(op.Payload), gompi.Byte, 1, op.Tag)
			if err != nil {
				return err
			}
			reqs = append(reqs, q)
		}
		if err := r.flush(win, 1); err != nil {
			return err
		}
		// Decide before the last message: the peer reads the decision
		// once that message is in.
		last := k == msgCycle-1
		if measured {
			last = j.expired(r)
		}
		j.decide(k, last)
		ackReq, err := r.irecv(ack, 8, gompi.Byte, 1, ackTag)
		if err != nil {
			return err
		}
		op := &wi.Ops[windowOps-1]
		q, err := r.isend(op.Payload, len(op.Payload), gompi.Byte, 1, op.Tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, q)
		for _, q := range reqs {
			if _, err := r.wait(q); err != nil {
				return err
			}
		}
		if err := ackOK(ackReq, k); err != nil {
			return err
		}
		r.endRound(j, windowOps)
		if last {
			return nil
		}
	}
}

func (j *job) msgPeer(r *rankState, mem []byte, measured bool) error {
	var bufs [windowOps][maxSmall]byte
	var reqs [windowOps]*gompi.Request
	ack := make([]byte, 8)
	prepost := func(wi *Window) error {
		for i, op := range wi.Ops {
			if op.Kind == opSend && op.Pre {
				q, err := r.irecv(bufs[i][:], maxSmall, gompi.Byte, 0, op.Tag)
				if err != nil {
					return err
				}
				reqs[i] = q
			}
		}
		return nil
	}
	sendAck := func(k int) error {
		binary.LittleEndian.PutUint64(ack, uint64(int64(k)))
		return r.send(ack, 0, ackTag)
	}
	msgOK := func(st gompi.Status, i int, op *MsgOp) bool {
		n := len(op.Payload)
		return statusOK(st, 0, op.Tag, n) && j.payloadOK(bufs[i][:n], op.Payload)
	}
	if err := prepost(&j.in.Windows[0]); err != nil {
		return err
	}
	if err := sendAck(-1); err != nil {
		return err
	}
	for k := 0; ; k++ {
		if measured && k == msgCycle {
			r.passEnd(j)
		}
		wi := &j.in.Windows[k%msgCycle]
		r.beginRound()
		last := windowOps - 1
		st, err := r.wait(reqs[last])
		if err != nil {
			return err
		}
		r.check(msgOK(st, last, &wi.Ops[last]))
		for i := 0; i < last; i++ {
			op := &wi.Ops[i]
			switch {
			case op.Kind == opPut:
				// Rank 0 flushed before its last message, so the Put is
				// in the window; clear it so a lost Put cannot pass on
				// the next pass's identical bytes.
				slot := mem[i*putBytes : (i+1)*putBytes]
				r.check(bytes.Equal(slot, op.Payload))
				clear(slot)
				continue
			case op.Pre:
				st, err = r.wait(reqs[i])
			default:
				st, err = r.recv(bufs[i][:], 0, op.Tag)
			}
			if err != nil {
				return err
			}
			r.check(msgOK(st, i, op))
		}
		stop := j.stopsAt(k)
		if !stop {
			if err := prepost(&j.in.Windows[(k+1)%msgCycle]); err != nil {
				return err
			}
		}
		if err := sendAck(k); err != nil {
			return err
		}
		r.endRound(j, 0)
		if stop {
			return nil
		}
	}
}

// bulkShm runs seeded large transfers between two ranks of one node:
// Send/Recv (staged below ShmEagerMax, handoff above it) and Put/Get
// on a WinAllocate window, each flushed. A round is a quad of
// transfers ending on a Send; rank 0 decides to stop before that Send,
// and rank 1, which takes part in Sends only, reads the decision after
// receiving it.
func bulkShm(j *job, r *rankState) error {
	w := r.p.World()
	win, _, err := w.WinAllocate(bulkMax, 1)
	if err != nil {
		return err
	}
	buf := make([]byte, bulkMax)
	if r.p.Rank() == 0 {
		if err := win.LockAll(); err != nil {
			return err
		}
		err = j.phase(r, func(measured bool) error { return j.bulkDriver(r, win, buf, measured) })
		if err == nil {
			err = win.UnlockAll()
		}
	} else {
		err = j.phase(r, func(measured bool) error { return j.bulkPeer(r, buf, measured) })
	}
	if err != nil {
		return err
	}
	if err := w.Barrier(); err != nil {
		return err
	}
	return win.Free()
}

func (j *job) bulkDriver(r *rankState, win *gompi.Win, buf []byte, measured bool) error {
	for k := 0; ; k++ {
		if measured && k == bulkQuads {
			r.passEnd(j)
		}
		r.beginRound()
		last := false
		quad := j.in.Transfers[(k%bulkQuads)*bulkQuadOps:][:bulkQuadOps]
		for i := range quad {
			t := &quad[i]
			switch t.Kind {
			case opSend:
				if i == bulkQuadOps-1 {
					last = k == bulkQuads-1
					if measured {
						last = j.expired(r)
					}
					j.decide(k, last)
				}
				if err := r.send(t.Payload, 1, t.Tag); err != nil {
					return err
				}
			case opPut:
				if err := r.put(win, t.Payload, 1, 0); err != nil {
					return err
				}
				if err := r.flush(win, 1); err != nil {
					return err
				}
			case opGet:
				got := buf[:t.Size]
				if err := r.get(win, got, 1, 0); err != nil {
					return err
				}
				if err := r.flush(win, 1); err != nil {
					return err
				}
				r.check(j.payloadOK(got, t.Expect))
			}
		}
		r.endRound(j, bulkQuadOps)
		if last {
			return nil
		}
	}
}

func (j *job) bulkPeer(r *rankState, buf []byte, measured bool) error {
	for k := 0; ; k++ {
		if measured && k == bulkQuads {
			r.passEnd(j)
		}
		r.beginRound()
		quad := j.in.Transfers[(k%bulkQuads)*bulkQuadOps:][:bulkQuadOps]
		for i := range quad {
			if t := &quad[i]; t.Kind == opSend {
				st, err := r.recv(buf, 0, t.Tag)
				if err != nil {
					return err
				}
				r.check(statusOK(st, 0, t.Tag, t.Size) && j.payloadOK(buf[:t.Size], t.Payload))
			}
		}
		stop := j.stopsAt(k)
		r.endRound(j, 0)
		if stop {
			return nil
		}
	}
}

// cg is one rank's conjugate-gradient state over its Halo block.
type cg struct {
	j    *job
	r    *rankState
	h    *Halo
	n    int
	face *gompi.Datatype // the strided x-face
	ext  []float64       // search direction p, then x-face and y-face ghosts
	x    []float64
	res  []float64
	q    []float64
	red  [2]float64 // Allreduce operands and results
	sum  [2]float64
}

// haloCG solves the seeded system for each right-hand side in turn.
// Each iteration is one round: a halo exchange of p, the local SpMV
// (charged as modeled compute), and two dot-product Allreduce calls.
// After each solve every rank checks the true residual; the same
// Allreduce carries rank 0's stop decision.
func haloCG(j *job, r *rankState) error {
	h := &j.in.Halo[r.p.Rank()]
	n := h.NX * h.NY
	face, err := gompi.TypeVector(h.NY, 1, h.NX, gompi.Double)
	if err != nil {
		return err
	}
	if err := face.Commit(); err != nil {
		return err
	}
	c := &cg{j: j, r: r, h: h, n: n, face: face,
		ext: make([]float64, n+h.NY+h.NX),
		x:   make([]float64, n), res: make([]float64, n), q: make([]float64, n)}
	return j.phase(r, func(measured bool) error {
		for s := 0; ; s++ {
			if measured && s == haloSolves {
				r.passEnd(j)
			}
			stop, err := c.solve(h.RHS[s%haloSolves], measured)
			if err != nil {
				return err
			}
			if stop || (!measured && s == haloSolves-1) {
				return nil
			}
		}
	})
}

// halo fills the ghost part of ext from the two face neighbours.
func (c *cg) halo() error {
	h, n, r := c.h, c.n, c.r
	b := f64bytes(c.ext)
	var qs [4]*gompi.Request
	var err error
	if qs[0], err = r.irecv(b[8*n:8*(n+h.NY)], h.NY, gompi.Double, h.XNbr, h.XTag); err != nil {
		return err
	}
	if qs[1], err = r.irecv(b[8*(n+h.NY):], h.NX, gompi.Double, h.YNbr, h.YTag); err != nil {
		return err
	}
	if qs[2], err = r.isend(b[8*h.XFace:8*n], 1, c.face, h.XNbr, h.XTag); err != nil {
		return err
	}
	if qs[3], err = r.isend(b[8*h.YFace:8*(h.YFace+h.NX)], h.NX, gompi.Double, h.YNbr, h.YTag); err != nil {
		return err
	}
	for i, q := range qs {
		st, err := r.wait(q)
		if err != nil {
			return err
		}
		switch i {
		case 0:
			r.check(statusOK(st, h.XNbr, h.XTag, 8*h.NY))
		case 1:
			r.check(statusOK(st, h.YNbr, h.YTag, 8*h.NX))
		}
	}
	return nil
}

// spmv sets out = A*ext (ghosts filled) and charges the modeled work.
func (c *cg) spmv(out []float64) {
	h := c.h
	for i := range out {
		var s float64
		for k := h.RowPtr[i]; k < h.RowPtr[i+1]; k++ {
			s += h.Val[k] * c.ext[h.Col[k]]
		}
		out[i] = s
	}
	c.r.p.ChargeCompute(computePerNNZ * int64(len(h.Val)))
}

// reduce sums up to two values across the ranks with one Allreduce.
func (c *cg) reduce(vals ...float64) ([]float64, error) {
	k := copy(c.red[:], vals)
	if err := c.r.allreduce(c.red[:k], c.sum[:k]); err != nil {
		return nil, err
	}
	return c.sum[:k], nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// solve runs CG from x = 0 on right-hand side b, then checks the true
// residual. It reports rank 0's decision to stop.
func (c *cg) solve(b []float64, measured bool) (bool, error) {
	r, n := c.r, c.n
	p := c.ext[:n]
	clear(c.x)
	copy(c.res, b)
	copy(p, b)
	sum, err := c.reduce(dot(b, b))
	if err != nil {
		return false, err
	}
	rr, bb := sum[0], sum[0]
	it := 0
	for ; it < cgMaxIter && rr > cgTol*cgTol*bb; it++ {
		r.beginRound()
		if err := c.halo(); err != nil {
			return false, err
		}
		c.spmv(c.q)
		sum, err := c.reduce(dot(p, c.q))
		if err != nil {
			return false, err
		}
		alpha := rr / sum[0]
		for i := range p {
			c.x[i] += alpha * p[i]
			c.res[i] -= alpha * c.q[i]
		}
		if sum, err = c.reduce(dot(c.res, c.res)); err != nil {
			return false, err
		}
		rrNew := sum[0]
		beta := rrNew / rr
		rr = rrNew
		for i := range p {
			p[i] = c.res[i] + beta*p[i]
		}
		r.endRound(c.j, 1)
	}
	// True residual b - A x of the solution this solve returns.
	copy(p, c.x)
	if c.j.o.inject.residual && r.p.Rank() == 0 && c.j.injectedResidual.CompareAndSwap(false, true) {
		p[0] += 1
	}
	if err := c.halo(); err != nil {
		return false, err
	}
	c.spmv(c.q)
	var local float64
	for i := range b {
		d := b[i] - c.q[i]
		local += d * d
	}
	stop := 0.0
	if r.p.Rank() == 0 && measured && c.j.expired(r) {
		stop = 1
	}
	if sum, err = c.reduce(local, stop); err != nil {
		return false, err
	}
	if ok := math.Sqrt(sum[0]) <= residualTol*math.Sqrt(bb); !ok && r.p.Rank() == 0 {
		r.failed += int64(max(it, 1))
	}
	return sum[1] > 0, nil
}

// f64bytes views a float64 slice as its bytes (the library moves
// bytes; the solver works in float64).
func f64bytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 8*len(f))
}
