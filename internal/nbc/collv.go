package nbc

// Prefix reductions and the ragged (v-variant) rooted and gathering
// collectives. Each keeps the linear or chain algorithm MPICH's
// machine-independent layer uses for it; none has a per-algorithm
// metrics counter, so their schedules carry AlgoNone.

import (
	"fmt"

	"gompi/internal/coll"
	"gompi/internal/datatype"
)

// AlgoNone is the Schedule.Algo of collectives that are not tallied
// per algorithm in the metrics registry.
const AlgoNone = -1

// Scan compiles the inclusive prefix reduction (MPI_SCAN) as a chain:
// rank r receives the prefix of ranks 0..r-1 from its left neighbour,
// folds it in front of its own contribution (operand order preserved),
// and forwards the result right.
func Scan(t Transport, tag int, op coll.Op, elem *datatype.Type, sendBuf, recv []byte) (*Schedule, error) {
	rank, size := t.Rank(), t.Size()
	n := len(sendBuf)
	if len(recv) < n {
		return nil, fmt.Errorf("nbc: scan recv buffer %d < %d", len(recv), n)
	}
	s := newSchedule(t, tag, AlgoNone, n)
	res := recv[:n]
	s.init(res, sendBuf)
	if rank > 0 {
		prev := make([]byte, n)
		s.addRound(round{
			comm:  []step{recvFrom(prev, rank-1)},
			local: []step{reduceInto(op, elem, res, prev)},
		})
	}
	if rank < size-1 {
		s.addRound(round{comm: []step{sendTo(res, rank+1)}})
	}
	return s, nil
}

// Exscan compiles the exclusive prefix reduction (MPI_EXSCAN) as a
// chain: rank r keeps the prefix of ranks 0..r-1 it receives and
// forwards that prefix folded with its own contribution. Rank 0's recv
// is left untouched.
func Exscan(t Transport, tag int, op coll.Op, elem *datatype.Type, sendBuf, recv []byte) (*Schedule, error) {
	rank, size := t.Rank(), t.Size()
	n := len(sendBuf)
	if rank > 0 && len(recv) < n {
		return nil, fmt.Errorf("nbc: exscan recv buffer %d < %d", len(recv), n)
	}
	s := newSchedule(t, tag, AlgoNone, n)
	running := make([]byte, n)
	s.init(running, sendBuf)
	if rank > 0 {
		prev := make([]byte, n)
		local := []step{copyInto(recv[:n], prev)}
		if rank < size-1 {
			local = append(local, reduceInto(op, elem, running, prev))
		}
		s.addRound(round{comm: []step{recvFrom(prev, rank-1)}, local: local})
	}
	if rank < size-1 {
		s.addRound(round{comm: []step{sendTo(running, rank+1)}})
	}
	return s, nil
}

// checkTables validates a v-variant's count/displacement tables.
func checkTables(what string, counts, displs []int, size int) error {
	if len(counts) != size || len(displs) != size {
		return fmt.Errorf("nbc: %s counts/displs length %d/%d for %d ranks", what, len(counts), len(displs), size)
	}
	return nil
}

// Gatherv compiles the linear ragged gather (MPI_GATHERV): counts[r]
// bytes from rank r land at displs[r] of recv on the root. The tables
// and recv are significant only on the root; other ranks send all of
// sendBuf.
func Gatherv(t Transport, tag int, sendBuf, recv []byte, counts, displs []int, root int) (*Schedule, error) {
	rank, size := t.Rank(), t.Size()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("nbc: gatherv root %d outside [0,%d)", root, size)
	}
	s := newSchedule(t, tag, AlgoNone, len(sendBuf))
	if rank != root {
		s.addRound(round{comm: []step{sendTo(sendBuf, root)}})
		return s, nil
	}
	if err := checkTables("gatherv", counts, displs, size); err != nil {
		return nil, err
	}
	var recvs []step
	for r := 0; r < size; r++ {
		if r != root {
			recvs = append(recvs, recvFrom(recv[displs[r]:displs[r]+counts[r]], r))
		}
	}
	own := recv[displs[root] : displs[root]+counts[root]]
	s.addRound(round{comm: recvs, local: []step{copyInto(own, sendBuf)}})
	return s, nil
}

// Scatterv compiles the linear ragged scatter (MPI_SCATTERV): rank r
// receives counts[r] bytes taken from displs[r] of the root's sendBuf
// into recv. The tables and sendBuf are significant only on the root.
func Scatterv(t Transport, tag int, sendBuf []byte, counts, displs []int, recv []byte, root int) (*Schedule, error) {
	rank, size := t.Rank(), t.Size()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("nbc: scatterv root %d outside [0,%d)", root, size)
	}
	s := newSchedule(t, tag, AlgoNone, len(recv))
	if rank != root {
		s.addRound(round{comm: []step{recvFrom(recv, root)}})
		return s, nil
	}
	if err := checkTables("scatterv", counts, displs, size); err != nil {
		return nil, err
	}
	var sends []step
	for r := 0; r < size; r++ {
		if r != root {
			sends = append(sends, sendTo(sendBuf[displs[r]:displs[r]+counts[r]], r))
		}
	}
	own := sendBuf[displs[root] : displs[root]+counts[root]]
	s.addRound(round{comm: sends, local: []step{copyInto(recv, own)}})
	return s, nil
}

// Allgatherv compiles the ragged ring allgather (MPI_ALLGATHERV): P-1
// rounds, each passing the newest block to the right neighbour. Every
// rank supplies identical tables.
func Allgatherv(t Transport, tag int, sendBuf, recv []byte, counts, displs []int) (*Schedule, error) {
	rank, size := t.Rank(), t.Size()
	if err := checkTables("allgatherv", counts, displs, size); err != nil {
		return nil, err
	}
	if len(sendBuf) != counts[rank] {
		return nil, fmt.Errorf("nbc: allgatherv rank %d contributes %d bytes, counts say %d", rank, len(sendBuf), counts[rank])
	}
	s := newSchedule(t, tag, AlgoNone, len(sendBuf))
	block := func(r int) []byte { return recv[displs[r] : displs[r]+counts[r]] }
	s.init(block(rank), sendBuf)
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	for st := 0; st < size-1; st++ {
		sb := (rank - st + size) % size
		rb := (rank - st - 1 + size) % size
		s.addRound(round{comm: []step{sendTo(block(sb), right), recvFrom(block(rb), left)}})
	}
	return s, nil
}
