package original

import (
	"encoding/binary"

	"gompi/internal/coll"
	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/flight"
	"gompi/internal/instr"
	"gompi/internal/request"
	"gompi/internal/rma"
	"gompi/internal/vtime"
)

// winState is the target-side window record the packet handlers write
// into.
type winState struct {
	win *rma.Win
	mem []byte
}

// rmaOp is one queued RMA operation: CH3 queues operations on the
// window and issues them at synchronization; we queue then issue
// immediately, keeping the allocation/queue costs while staying
// synchronous.
type rmaOp struct {
	kind    uint8
	target  int
	payload []byte
	hdr     []byte
}

// WinCreate collectively creates a window. Window ids are agreed via
// the registry exchange; every rank installs the target-side record
// before any RMA packet can arrive (the trailing exchange is the
// barrier).
func (d *Device) WinCreate(mem []byte, dispUnit int, c *comm.Comm) (*rma.Win, error) {
	return d.winCreate(mem, dispUnit, c, false)
}

// WinCreateDynamic creates a window with no initial memory. The
// baseline device does not implement dynamic windows (CH3-era MPICH
// gated them behind the same packet path); windows must be created
// with memory.
func (d *Device) WinCreateDynamic(c *comm.Comm) (*rma.Win, error) {
	return nil, errf("dynamic windows not supported by the baseline device")
}

func (d *Device) winCreate(mem []byte, dispUnit int, c *comm.Comm, dynamic bool) (*rma.Win, error) {
	if dispUnit <= 0 {
		return nil, errString("win_create", rma.ErrBadWinArg)
	}
	// Agree on a window id: every rank computes it from the same
	// exchange (rank 0's proposal).
	vals := c.Exchange(winInfoOriginal{size: len(mem), dispUnit: dispUnit})
	var sh *rma.Shared
	var id int
	if c.MyRank == 0 {
		sh = rma.NewShared(c.Size(), dynamic)
		for r, v := range vals {
			wi := v.(winInfoOriginal)
			sh.Sizes[r], sh.DispUnits[r] = wi.size, wi.dispUnit
		}
		id = d.g.nextWinID()
		for r := range sh.Keys {
			sh.Keys[r] = id // one id addresses the window on every rank
		}
	}
	// Rank 0 fills sh before publishing it; the other ranks only read.
	vals = c.Exchange(sharedAndID{sh, id})
	si := vals[0].(sharedAndID)
	sh, id = si.sh, si.id

	w := rma.NewWin(c, mem, dispUnit, id, sh)
	d.lock()
	d.wins[id] = &winState{win: w, mem: mem}
	d.unlock()
	// Final rendezvous: no RMA packet may arrive before every rank has
	// installed its record.
	c.Exchange(nil)
	return w, nil
}

type winInfoOriginal struct{ size, dispUnit int }

type sharedAndID struct {
	sh *rma.Shared
	id int
}

// nextWinID allocates window ids under the global pool's lock.
func (g *Global) nextWinID() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.winSeq++
	return g.winSeq
}

// WinFree collectively releases the window. The critical section is
// dropped across the closing exchange (a cross-rank rendezvous must
// not hold a per-rank lock); the record is deleted only after it, so
// straggler packets from slower ranks still find the window.
func (d *Device) WinFree(w *rma.Win) error {
	d.lock()
	d.flushAM()
	d.unlock()
	w.Comm.Exchange(nil)
	d.lock()
	delete(d.wins, w.MyKey)
	d.unlock()
	return nil
}

// rmaHeader marshals the generic RMA packet header: window id, offset,
// length, op code, element code.
func rmaHeader(id, off, n int, op coll.Op, elem int, seq uint32) []byte {
	b := make([]byte, 24)
	binary.LittleEndian.PutUint32(b, uint32(id))
	binary.LittleEndian.PutUint32(b[4:], uint32(off))
	binary.LittleEndian.PutUint32(b[8:], uint32(n))
	binary.LittleEndian.PutUint32(b[12:], uint32(op))
	binary.LittleEndian.PutUint32(b[16:], uint32(elem))
	binary.LittleEndian.PutUint32(b[20:], seq)
	return b
}

func parseRMAHeader(b []byte) (id, off, n int, op coll.Op, elem int, seq uint32) {
	return int(binary.LittleEndian.Uint32(b)),
		int(binary.LittleEndian.Uint32(b[4:])),
		int(binary.LittleEndian.Uint32(b[8:])),
		coll.Op(binary.LittleEndian.Uint32(b[12:])),
		int(binary.LittleEndian.Uint32(b[16:])),
		binary.LittleEndian.Uint32(b[20:])
}

// chargePutPath charges the full CH3 one-sided origin path. The
// component totals (see device.go) plus validation and layering make
// the default MPI_PUT land at ~1,342 instructions.
func (d *Device) chargePutPath(dt *datatype.Type) {
	d.chargeDispatch(costDispatchLayersRMA)
	d.chargeRedundant(costRedundantMarshal + costRedundantReload +
		costRedundantBufAddr + costPacketGenericRMA + 15 /* op-union genericity */)
	d.chargeRedundantType(dt, costRedundantDatatype)
	d.charge(instr.Mandatory, costProcNull)
	d.charge(instr.Mandatory, costWinDerefEpoch)
	d.charge(instr.Mandatory, costRMAOpAlloc+costRMAOpQueue)
	d.charge(instr.Mandatory, costRMASegment)
	d.charge(instr.Mandatory, costRMAHeaders)
	d.charge(instr.Mandatory, costRMASendPath)
	d.charge(instr.Mandatory, costRMARequest)
	d.charge(instr.Mandatory, costRMAEpochState)
	d.charge(instr.Mandatory, costRMAAck)
}

// resolve translates (target, disp) to (world, offset), always paying
// the full translation (no virtual-address fast path here).
func (d *Device) resolve(target, disp, nbytes int, w *rma.Win) (world, off int, err error) {
	world, err = d.translateRank(w.Comm, target)
	if err != nil {
		return 0, 0, err
	}
	d.charge(instr.Mandatory, 4) // base + displacement-unit scaling
	off, err = w.TargetOffset(target, disp, nbytes)
	if err != nil {
		return 0, 0, err
	}
	return world, off, nil
}

// Put emulates the one-sided put two-sided: queue an op, marshal the
// generic headers, ship it through the packet machinery, and track the
// acknowledgement.
func (d *Device) Put(origin []byte, count int, dt *datatype.Type, target, disp int,
	w *rma.Win, flags core.OpFlags) error {

	d.lock()
	defer d.unlock()
	d.rank.Metrics().NoteRmaPut()
	d.chargePutPath(dt)
	if target == core.ProcNull {
		return nil
	}
	data, err := d.sendBytes(origin, count, dt)
	if err != nil {
		return err
	}
	world, off, err := d.resolve(target, disp, len(data), w)
	if err != nil {
		return errString("put", err)
	}
	// Queue then immediately issue (cost structure of the deferred
	// CH3 op list, synchronous semantics). The header carries the
	// flattened target layout so derived types scatter at the target.
	hdr := append(rmaHeader(w.Shared.Keys[target], off, len(data), 0, 0, 0), encodeLayout(dt, count)...)
	d.issue(&rmaOp{kind: amPut, target: world, hdr: hdr, payload: data})
	return nil
}

// encodeLayout flattens (count, extent, segments); zero segments means
// a contiguous blob.
func encodeLayout(dt *datatype.Type, count int) []byte {
	if dt.Contig() {
		return binary.LittleEndian.AppendUint32(nil, 0)
	}
	segs := dt.Segments()
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(segs)))
	b = binary.LittleEndian.AppendUint32(b, uint32(count))
	b = binary.LittleEndian.AppendUint32(b, uint32(dt.Extent()))
	for _, s := range segs {
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Off))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Len))
	}
	return b
}

// issue ships one queued op and counts the pending ack.
func (d *Device) issue(op *rmaOp) {
	d.amSent++
	d.ep.AMSend(op.target, op.kind, op.hdr, op.payload)
}

// handlePut applies an incoming put packet, scattering derived
// layouts.
func (d *Device) handlePut(src int, hdr, payload []byte, _ vtime.Time) {
	id, off, n, _, _, _ := parseRMAHeader(hdr)
	d.charge(instr.Mandatory, costRMATargetSide)
	ws := d.wins[id]
	if ws == nil {
		panic(errf("put packet for unknown window %d", id))
	}
	layout := hdr[24:]
	u := func(i int) int { return int(binary.LittleEndian.Uint32(layout[4*i:])) }
	nsegs := u(0)
	if nsegs == 0 {
		copy(ws.mem[off:off+n], payload)
	} else {
		count, extent := u(1), u(2)
		p := 0
		for k := 0; k < count; k++ {
			base := off + k*extent
			for i := 0; i < nsegs; i++ {
				so, sl := u(3+2*i), u(4+2*i)
				copy(ws.mem[base+so:base+so+sl], payload[p:p+sl])
				p += sl
			}
		}
	}
	d.ep.AMSend(src, amAck, nil, nil)
}

// Get emulates the one-sided get with a request/response packet pair.
// The target must be inside the progress engine for the response to be
// produced — the CH3 passive-progress problem, faithfully reproduced.
func (d *Device) Get(origin []byte, count int, dt *datatype.Type, target, disp int,
	w *rma.Win, flags core.OpFlags) error {

	d.lock()
	defer d.unlock()
	d.rank.Metrics().NoteRmaGet()
	d.chargePutPath(dt)
	if target == core.ProcNull {
		return nil
	}
	nbytes := datatype.PackedSize(dt, count)
	world, off, err := d.resolve(target, disp, nbytes, w)
	if err != nil {
		return errString("get", err)
	}
	d.getSeq++
	seq := d.getSeq
	gs := &getState{buf: make([]byte, nbytes)}
	d.getWait[seq] = gs
	d.ep.AMSend(world, amGetReq, rmaHeader(w.Shared.Keys[target], off, nbytes, 0, 0, seq), nil)
	d.waitUntil(func() bool { return gs.done })
	d.rank.Sync(gs.arrival) // the response's round-trip time
	delete(d.getWait, seq)

	if view, ok := datatype.ContigView(dt, count, origin); ok {
		copy(view, gs.buf)
		return nil
	}
	if _, err := datatype.Unpack(dt, count, gs.buf, origin); err != nil {
		return errString("get", err)
	}
	return nil
}

// handleGetReq serves a get request from window memory.
func (d *Device) handleGetReq(src int, hdr, _ []byte, _ vtime.Time) {
	id, off, n, _, _, seq := parseRMAHeader(hdr)
	d.charge(instr.Mandatory, costRMATargetSide)
	ws := d.wins[id]
	if ws == nil {
		panic(errf("get packet for unknown window %d", id))
	}
	d.ep.AMSend(src, amGetResp, rmaHeader(id, 0, n, 0, 0, seq), ws.mem[off:off+n])
}

// handleGetResp completes a pending get.
func (d *Device) handleGetResp(_ int, hdr, payload []byte, arrival vtime.Time) {
	_, _, _, _, _, seq := parseRMAHeader(hdr)
	gs := d.getWait[seq]
	if gs == nil {
		panic(errf("get response for unknown sequence %d", seq))
	}
	copy(gs.buf, payload)
	gs.arrival = arrival
	gs.done = true
}

// Accumulate ships the contribution as an accumulate packet applied by
// the target-side handler.
func (d *Device) Accumulate(origin []byte, count int, dt *datatype.Type, target, disp int,
	op coll.Op, w *rma.Win, flags core.OpFlags) error {

	d.lock()
	defer d.unlock()
	d.rank.Metrics().NoteRmaAcc()
	d.chargePutPath(dt)
	if target == core.ProcNull {
		return nil
	}
	elem := dt.BaseElem()
	if elem == nil {
		return errString("accumulate", coll.ErrBadOp)
	}
	data, err := d.sendBytes(origin, count, dt)
	if err != nil {
		return err
	}
	world, off, err := d.resolve(target, disp, len(data), w)
	if err != nil {
		return errString("accumulate", err)
	}
	ec := elemCode(elem)
	d.issue(&rmaOp{kind: amAcc, target: world,
		hdr:     rmaHeader(w.Shared.Keys[target], off, len(data), op, ec, 0),
		payload: data,
	})
	return nil
}

// GetAccumulate is emulated as a locked get followed by accumulate;
// atomicity comes from the target applying packets serially in its
// progress engine — but only per-packet, so the fetch and the update
// ride one packet: the handler does both.
func (d *Device) GetAccumulate(origin, result []byte, count int, dt *datatype.Type,
	target, disp int, op coll.Op, w *rma.Win, flags core.OpFlags) error {

	if result == nil {
		return errString("get_accumulate", rma.ErrBadWinArg)
	}
	// The emulated path also bumps RmaGets/RmaAccs below: the baseline
	// really does issue a get and an accumulate.
	d.rank.Metrics().NoteRmaGetAcc()
	// Fetch first under the same packet ordering: target applies
	// packets in arrival order, and we are the only origin touching
	// this location under a proper epoch.
	if err := d.Get(result, count, dt, target, disp, w, flags); err != nil {
		return err
	}
	return d.Accumulate(origin, count, dt, target, disp, op, w, flags)
}

// handleAcc applies an accumulate packet.
func (d *Device) handleAcc(src int, hdr, payload []byte, _ vtime.Time) {
	id, off, n, op, ec, _ := parseRMAHeader(hdr)
	d.charge(instr.Mandatory, costRMATargetSide+int64(n))
	ws := d.wins[id]
	if ws == nil {
		panic(errf("accumulate packet for unknown window %d", id))
	}
	elem := elemFromCode(ec)
	if err := coll.Apply(op, elem, ws.mem[off:off+n], payload); err != nil {
		panic(errString("am accumulate", err))
	}
	d.ep.AMSend(src, amAck, nil, nil)
}

// Fence flushes outstanding RMA packets and synchronizes. The critical
// section covers only the flush: the barrier re-enters Isend/Irecv,
// which take it per operation.
func (d *Device) Fence(w *rma.Win) error {
	d.lock()
	d.charge(instr.Mandatory, costRMAEpochState)
	d.flushAM()
	d.unlock()
	d.barrier(w.Comm)
	if err := w.OpenEpoch(rma.EpochFence, -1); err != nil {
		return err
	}
	w.OpenedAt = d.rank.Now()
	return nil
}

// FenceEnd closes the fence epoch sequence (MPI_MODE_NOSUCCEED).
func (d *Device) FenceEnd(w *rma.Win) error {
	d.lock()
	d.charge(instr.Mandatory, costRMAEpochState)
	d.flushAM()
	d.unlock()
	d.barrier(w.Comm)
	if w.InEpoch() {
		if _, err := w.CloseEpoch(); err != nil {
			return err
		}
	}
	return nil
}

// Lock opens a passive-target epoch.
func (d *Device) Lock(w *rma.Win, target int, exclusive bool) error {
	if err := w.OpenEpoch(rma.EpochLock, target); err != nil {
		return err
	}
	d.lock()
	d.charge(instr.Mandatory, costLockProto)
	d.rank.ChargeCycles(instr.Transport, 2*d.g.Fab.Profile().WireLatency)
	d.spinLock(func() bool { return w.Shared.TryAcquireLock(target, exclusive) })
	d.unlock()
	w.OpenedAt = d.rank.Now()
	w.LockExclusive = exclusive
	return nil
}

// Unlock flushes and closes the passive epoch.
func (d *Device) Unlock(w *rma.Win, target int) error {
	if lr := w.LockedRank(); lr != target {
		return errf("locked %d, unlocking %d", lr, target)
	}
	if _, err := w.CloseEpoch(); err != nil {
		return err
	}
	if err := d.Flush(w, target); err != nil {
		return err
	}
	d.charge(instr.Mandatory, costLockProto)
	w.Shared.ReleaseLock(target, w.LockExclusive)
	return nil
}

// Flush waits out all pending acknowledgements.
func (d *Device) Flush(w *rma.Win, target int) error {
	d.lock()
	defer d.unlock()
	d.charge(instr.Mandatory, costFlushProto)
	d.flushAM()
	d.rank.ChargeCycles(instr.Transport, 2*d.g.Fab.Profile().WireLatency)
	d.observeFlush(w, target)
	return nil
}

// observeFlush records the flush into the rank's observability fabric:
// op counter, epoch-open→flush latency histogram (only while the epoch
// is still open — Unlock's trailing flush runs after CloseEpoch and is
// deliberately not observed), and a flight-recorder breadcrumb.
func (d *Device) observeFlush(w *rma.Win, target int) {
	m := d.rank.Metrics()
	m.NoteRmaFlush()
	if w.InEpoch() && w.OpenedAt > 0 {
		m.Lat.EpochFlush.Observe(int64(d.rank.Now() - w.OpenedAt))
	}
	m.Flight.Record(flight.RmaFlush, int64(d.rank.Now()), target, 0, -1)
}

// FlushLocal completes operations locally. CH3 has no cheap
// local-completion path — the acknowledgement machinery is the only
// completion evidence — so the baseline pays the full remote flush.
func (d *Device) FlushLocal(w *rma.Win, target int) error {
	return d.Flush(w, target)
}

// FlushAll flushes every target. The baseline has no windowwide
// completion primitive, so it degenerates into a per-target flush loop:
// O(n) round trips, exactly the scaling the flush-based redesign in the
// ch4 device removes.
func (d *Device) FlushAll(w *rma.Win) error {
	for t := 0; t < w.Comm.Size(); t++ {
		if err := d.Flush(w, t); err != nil {
			return err
		}
	}
	return nil
}

// FlushRequest returns a request tracking remote completion. The
// baseline's flush is inherently blocking (the AM drain happens
// inline), so the request is born complete; only the request-allocation
// cost distinguishes it from Flush.
func (d *Device) FlushRequest(w *rma.Win, target int) (*request.Request, error) {
	if err := d.Flush(w, target); err != nil {
		return nil, err
	}
	r := d.g.pool.GetFor(request.KindRMA, d.rank.Metrics())
	r.Issued = int64(d.rank.Now())
	r.MarkComplete(request.Status{})
	return r, nil
}

// LockAll opens a passive epoch covering every rank. CH3 had no
// lock-all protocol: the baseline takes n individual locks, paying the
// per-target lock round trip each time — the O(n) cost the scalable
// rewrite collapses to one. The epoch state is still the single
// EpochLockAll object so the public API semantics match across devices.
func (d *Device) LockAll(w *rma.Win, exclusive bool) error {
	if err := w.OpenEpoch(rma.EpochLockAll, -1); err != nil {
		return err
	}
	w.OpenedAt = d.rank.Now()
	d.rank.Metrics().NoteRmaLockAll()
	for t := 0; t < w.Comm.Size(); t++ {
		d.lock()
		d.charge(instr.Mandatory, costLockProto)
		d.rank.ChargeCycles(instr.Transport, 2*d.g.Fab.Profile().WireLatency)
		t := t
		d.spinLock(func() bool { return w.Shared.TryAcquireLock(t, exclusive) })
		d.unlock()
	}
	w.LockExclusive = exclusive
	return nil
}

// UnlockAll flushes and releases every target, one at a time.
func (d *Device) UnlockAll(w *rma.Win) error {
	if w.Epoch != rma.EpochLockAll {
		return errString("unlock_all", rma.ErrNoEpoch)
	}
	for t := 0; t < w.Comm.Size(); t++ {
		if err := d.Flush(w, t); err != nil {
			return err
		}
	}
	if _, err := w.CloseEpoch(); err != nil {
		return err
	}
	d.charge(instr.Mandatory, costLockProto)
	for t := w.Comm.Size() - 1; t >= 0; t-- {
		w.Shared.ReleaseLock(t, w.LockExclusive)
	}
	return nil
}

// PutAllOpts is the fused fast-path entry. The baseline has no fast
// path — every put walks the full packet machinery — so the option
// fusion buys nothing here and the call delegates to Put.
func (d *Device) PutAllOpts(origin []byte, worldTarget, disp int, w *rma.Win) error {
	return d.Put(origin, len(origin), datatype.Byte, worldTarget, disp, w, 0)
}

// barrier mirrors the ch4 device-internal dissemination barrier.
const barrierTagBase = 1 << 20

func (d *Device) barrier(c *comm.Comm) {
	cv := c.CollView()
	rank, size := cv.MyRank, cv.Size()
	var token [1]byte
	round := 0
	for dist := 1; dist < size; dist *= 2 {
		to := (rank + dist) % size
		from := (rank - dist + size) % size
		tag := barrierTagBase + round
		if _, err := d.Isend(token[:], 1, datatype.Byte, to, tag, cv, core.FlagNoReq); err != nil {
			panic(errString("barrier send", err))
		}
		req, err := d.Irecv(token[:], 1, datatype.Byte, from, tag, cv, 0)
		if err != nil {
			panic(errString("barrier recv", err))
		}
		req.Wait()
		round++
	}
}

// elemCode mirrors the ch4 table (duplicated to keep devices
// independent).
var elemTable = []*datatype.Type{datatype.Byte, datatype.Char, datatype.Short,
	datatype.Int, datatype.Long, datatype.Float, datatype.Double}

func elemCode(t *datatype.Type) int {
	for i, e := range elemTable {
		if e == t {
			return i
		}
	}
	return -1
}

func elemFromCode(c int) *datatype.Type {
	if c < 0 || c >= len(elemTable) {
		return nil
	}
	return elemTable[c]
}
