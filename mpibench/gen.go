package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Shape constants are fixed by the benchmark, not drawn from the seed:
// the seed varies what a workload sends, never how much work one round
// holds, so rates from different seeds stay comparable.
const (
	windowOps     = 32   // small-msg: data ops per window (one round)
	msgCycle      = 32   // small-msg: distinct windows in one schedule pass
	maxSmall      = 256  // small-msg: largest message
	putBytes      = 8    // small-msg: Put size
	tagSpace      = 1024 // seeded tags are drawn from [0, tagSpace)
	ackTag        = 4096 // control tag of the small-msg window ack
	bulkQuads     = 47   // bulk-shm: rounds (quads of transfers) in one schedule pass
	bulkQuadOps   = 4    // bulk-shm: transfers in one round
	bulkCycle     = bulkQuads * bulkQuadOps
	bulkMin       = 4 << 10   // bulk-shm: smallest transfer
	bulkMax       = 256 << 10 // bulk-shm: largest transfer
	bulkJitter    = 0.01      // bulk-shm: seeded size spread around a band's midpoint
	shmEagerMax   = 16 << 10  // bulk-shm: Config.ShmEagerMax, well below the median round's 32 KiB
	haloSolves    = 4         // halo-cg: right-hand sides in one schedule pass
	cgTol         = 1e-8      // halo-cg: CG stops at ||r|| <= cgTol*||b||
	residualTol   = 1e-6      // halo-cg: a solve passes at ||b-Ax|| <= residualTol*||b||
	cgMaxIter     = 400
	computePerNNZ = 2 // halo-cg: modeled cycles charged per local nonzero
)

// Op kinds of the generated schedules.
const (
	opSend = iota
	opPut
	opGet
)

// MsgOp is one data op of a small-msg window: a message (Isend, with
// its receive pre-posted or posted late) or an 8-byte Put.
type MsgOp struct {
	Kind    int
	Tag     int
	Pre     bool // receive posted before the window's messages are sent
	Payload []byte
}

// Window is one small-msg round: windowOps ops, the last of them a
// pre-posted message.
type Window struct{ Ops []MsgOp }

// Transfer is one bulk-shm transfer: a Send/Recv, a Put, or a Get.
type Transfer struct {
	Kind    int
	Tag     int
	Size    int    // bytes moved
	Payload []byte // Send and Put data
	Expect  []byte // Get: the bytes its quad's Put wrote
}

// Halo is the halo-cg input of one rank: its block of a seeded
// banded-plus-random sparse SPD matrix in CSR form, and the right-hand
// sides it solves. Column indices address the extended vector
// [local nx*ny | x-face ghosts (ny) | y-face ghosts (nx)].
type Halo struct {
	NX, NY     int // local block: NY rows of NX points
	XNbr, YNbr int // face neighbours (x: strided face, y: contiguous face)
	XFace      int // first local index of the strided face sent to XNbr
	YFace      int // first local index of the contiguous face sent to YNbr
	XTag, YTag int
	RowPtr     []int
	Col        []int
	Val        []float64
	RHS        [][]float64
}

// Inputs is everything one workload run needs, generated from one seed.
// The library sees only these values.
type Inputs struct {
	Workload  string
	Seed      int64
	Windows   []Window   // small-msg, small-msg-ch3
	Transfers []Transfer // bulk-shm
	Halo      []Halo     // halo-cg, indexed by rank
}

// Generate turns a seed into a workload's inputs. small-msg-ch3 gets
// exactly the inputs small-msg gets for the same seed.
func Generate(workload string, seed int64) (*Inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &Inputs{Workload: workload, Seed: seed}
	switch workload {
	case "small-msg", "small-msg-ch3":
		in.Windows = genWindows(rng)
	case "bulk-shm":
		in.Transfers = genTransfers(rng)
	case "halo-cg":
		in.Halo = genHalo(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// logUniform draws an integer in [lo, hi] uniformly in log space.
func logUniform(rng *rand.Rand, lo, hi int) int {
	v := int(math.Exp(math.Log(float64(lo)) + rng.Float64()*math.Log(float64(hi)/float64(lo))))
	return min(max(v, lo), hi)
}

// pattern returns n seeded bytes, none of them zero, so a payload can
// never be mistaken for cleared memory.
func pattern(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	base, step := byte(rng.Intn(256)), byte(2*rng.Intn(128)+1)
	for i := range b {
		b[i] = base + byte(i)*step
		if b[i] == 0 {
			b[i] = 0xA5
		}
	}
	return b
}

// Every window holds windowPuts Puts and windowPre pre-posted receives
// besides the last message's; the seed picks which ops they are, and
// the sizes and tags. A fixed mix keeps instr_per_op comparable
// between seeds.
const (
	windowPuts = 6
	windowPre  = 12
)

func genWindows(rng *rand.Rand) []Window {
	ws := make([]Window, msgCycle)
	for k := range ws {
		tags := rng.Perm(tagSpace)[:windowOps]
		// Positions 0..windowOps-2 in seeded order: the first
		// windowPuts are Puts, the next windowPre pre-posted messages.
		role := make([]int, windowOps-1)
		for rank, pos := range rng.Perm(windowOps - 1) {
			role[pos] = rank
		}
		ops := make([]MsgOp, windowOps)
		for i := range ops {
			if i < windowOps-1 && role[i] < windowPuts {
				ops[i] = MsgOp{Kind: opPut, Payload: pattern(rng, putBytes)}
				continue
			}
			ops[i] = MsgOp{
				Kind:    opSend,
				Tag:     tags[i],
				Pre:     i == windowOps-1 || role[i] < windowPuts+windowPre,
				Payload: pattern(rng, logUniform(rng, 1, maxSmall)),
			}
		}
		ws[k] = Window{Ops: ops}
	}
	return ws
}

// genTransfers builds the bulk-shm pass as quads, one round each: a
// Put, a Get that reads the Put back, and two Sends; the last Send
// ends the round. Quad q moves the geometric midpoint of the q-th of
// bulkQuads equal log-width bands of [bulkMin, bulkMax], within a
// seeded bulkJitter, and the quads run in a seeded order. The bytes and
// the op mix of a pass, and so the median round, are then nearly the
// same for every seed. With sizes drawn across each band, or the kinds
// in a seeded order, the median round's time moved by 10-20% from seed
// to seed. No band's sizes straddle shmEagerMax.
func genTransfers(rng *rand.Rand) []Transfer {
	// Payloads are slices at seeded offsets of one seeded random block,
	// so a pass's source bytes stay cache-sized: with a buffer per
	// transfer, the wall clock followed the host's memory traffic more
	// than the library.
	block := make([]byte, 2*bulkMax)
	rng.Read(block)
	payload := func(n int) []byte {
		off := rng.Intn(len(block) - n + 1)
		return block[off : off+n]
	}
	ts := make([]Transfer, 0, bulkCycle)
	for _, q := range rng.Perm(bulkQuads) {
		mid := float64(bulkMin) * math.Pow(float64(bulkMax)/bulkMin, (float64(q)+0.5)/bulkQuads)
		n := int(mid * (1 + bulkJitter*(2*rng.Float64()-1)))
		send := func() Transfer {
			return Transfer{Kind: opSend, Tag: rng.Intn(tagSpace), Size: n, Payload: payload(n)}
		}
		put := Transfer{Kind: opPut, Size: n, Payload: payload(n)}
		get := Transfer{Kind: opGet, Size: n, Expect: put.Payload}
		ts = append(ts, put, get, send(), send())
	}
	return ts
}

// genHalo builds a 2x2 rank grid over a (2nx)x(2ny) point grid. Each
// point couples to its four grid neighbours with seeded symmetric
// weights (the band) and, inside each rank's block, to a few seeded
// random points (the random part); the diagonal dominates by a fixed
// shift, so the matrix is symmetric positive definite and every seed's
// solves take about as many iterations.
func genHalo(rng *rand.Rand) []Halo {
	const nx, ny = 32, 32
	gx, gy := 2*nx, 2*ny
	const shift = 0.3
	hw := make([]float64, gx*gy) // weight of edge (x,y)-(x+1,y)
	vw := make([]float64, gx*gy) // weight of edge (x,y)-(x,y+1)
	for i := range hw {
		hw[i], vw[i] = 0.5+rng.Float64(), 0.5+rng.Float64()
	}
	xTag, yTag := rng.Intn(tagSpace), rng.Intn(tagSpace)
	hs := make([]Halo, 4)
	for r := range hs {
		px, py := r%2, r/2
		h := Halo{NX: nx, NY: ny, XNbr: py*2 + 1 - px, YNbr: (1-py)*2 + px, XTag: xTag, YTag: yTag}
		n := nx * ny
		ghostX := func(ly int) int { return n + ly }
		ghostY := func(lx int) int { return n + ny + lx }
		if px == 0 {
			h.XFace = nx - 1
		}
		if py == 0 {
			h.YFace = (ny - 1) * nx
		}
		// Random local couplings, symmetric by construction. Their
		// seeded count moves the modeled compute per iteration by about
		// 1% between seeds.
		extra := make([]map[int]float64, n)
		for i := range extra {
			extra[i] = map[int]float64{}
		}
		for e := n/4 + rng.Intn(n/8); e > 0; e-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			w := 0.1 + 0.4*rng.Float64()
			extra[i][j] += w
			extra[j][i] += w
		}
		h.RowPtr = append(h.RowPtr, 0)
		for ly := 0; ly < ny; ly++ {
			for lx := 0; lx < nx; lx++ {
				x, y := px*nx+lx, py*ny+ly
				diag := shift
				add := func(col int, w float64) {
					h.Col = append(h.Col, col)
					h.Val = append(h.Val, -w)
					diag += w
				}
				if x > 0 { // west
					col := lx - 1 + nx*ly
					if lx == 0 {
						col = ghostX(ly)
					}
					add(col, hw[(x-1)+gx*y])
				}
				if x < gx-1 { // east
					col := lx + 1 + nx*ly
					if lx == nx-1 {
						col = ghostX(ly)
					}
					add(col, hw[x+gx*y])
				}
				if y > 0 { // south
					col := lx + nx*(ly-1)
					if ly == 0 {
						col = ghostY(lx)
					}
					add(col, vw[x+gx*(y-1)])
				}
				if y < gy-1 { // north
					col := lx + nx*(ly+1)
					if ly == ny-1 {
						col = ghostY(lx)
					}
					add(col, vw[x+gx*y])
				}
				i := lx + nx*ly
				for _, j := range sortedKeys(extra[i]) {
					add(j, extra[i][j])
				}
				h.Col = append(h.Col, i)
				h.Val = append(h.Val, diag)
				h.RowPtr = append(h.RowPtr, len(h.Col))
			}
		}
		for s := 0; s < haloSolves; s++ {
			b := make([]float64, n)
			for i := range b {
				b[i] = 2*rng.Float64() - 1
			}
			h.RHS = append(h.RHS, b)
		}
		hs[r] = h
	}
	return hs
}

// sortedKeys returns m's keys in increasing order, so generation does
// not depend on map iteration order.
func sortedKeys(m map[int]float64) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
