package gompi

import "gompi/internal/nbc"

// Scan computes the inclusive prefix reduction over ranks 0..r
// (MPI_SCAN), folding in rank order along a chain.
func (c *Comm) Scan(send, recv []byte, count int, elem *Datatype, op Op) error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	return c.run(c.scanSched(nbc.CacheScan, send, recv, count, elem, op))
}

// Exscan computes the exclusive prefix reduction over ranks 0..r-1
// (MPI_EXSCAN); rank 0's recv is left untouched.
func (c *Comm) Exscan(send, recv []byte, count int, elem *Datatype, op Op) error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	return c.run(c.scanSched(nbc.CacheExscan, send, recv, count, elem, op))
}

// scanSched resolves an inclusive (CacheScan) or exclusive
// (CacheExscan) prefix reduction.
func (c *Comm) scanSched(kind nbc.CacheKind, send, recv []byte, count int, elem *Datatype, op Op) (*nbc.Schedule, error) {
	n := count * elem.Size()
	t := c.nbcPort()
	key := nbc.CacheKey{Kind: kind, Algo: nbc.AlgoNone, Root: -1, Op: uint8(op), Elem: nbc.PtrKey(elem)}
	return c.schedule(collCached, key, send[:n], recv[:n], func(tag int) (*nbc.Schedule, error) {
		if kind == nbc.CacheExscan {
			return nbc.Exscan(t, tag, op, elem, send[:n], recv[:n])
		}
		return nbc.Scan(t, tag, op, elem, send[:n], recv[:n])
	})
}

// extent is the byte length a count/displacement table spans.
func extent(counts, displs []int) int {
	need := 0
	for r := range counts {
		if r < len(displs) && displs[r]+counts[r] > need {
			need = displs[r] + counts[r]
		}
	}
	return need
}

// Gatherv concentrates variable-size byte blocks on root
// (MPI_GATHERV): counts[r] bytes from rank r land at byte offset
// displs[r] of recv. counts/displs/recv are significant only on root.
func (c *Comm) Gatherv(send []byte, recv []byte, counts, displs []int, root int) error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	var out []byte
	if c.Rank() == root {
		need := extent(counts, displs)
		if len(recv) < need {
			return errc(ErrBuffer, "gatherv recv %d < %d", len(recv), need)
		}
		out = recv[:need]
	}
	t := c.nbcPort()
	key := nbc.CacheKey{Kind: nbc.CacheGatherv, Algo: nbc.AlgoNone, Root: root, Shape: nbc.ShapeHash(counts, displs)}
	return c.run(c.schedule(collCached, key, send, out, func(tag int) (*nbc.Schedule, error) {
		return nbc.Gatherv(t, tag, send, out, counts, displs, root)
	}))
}

// Scatterv distributes variable-size byte blocks from root
// (MPI_SCATTERV); rank r receives counts[r] bytes into recv.
func (c *Comm) Scatterv(send []byte, counts, displs []int, recv []byte, root int) error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	var in []byte
	if c.Rank() == root {
		need := extent(counts, displs)
		if len(send) < need {
			return errc(ErrBuffer, "scatterv send %d < %d", len(send), need)
		}
		in = send[:need]
	}
	t := c.nbcPort()
	key := nbc.CacheKey{Kind: nbc.CacheScatterv, Algo: nbc.AlgoNone, Root: root, Shape: nbc.ShapeHash(counts, displs)}
	return c.run(c.schedule(collCached, key, in, recv, func(tag int) (*nbc.Schedule, error) {
		return nbc.Scatterv(t, tag, in, counts, displs, recv, root)
	}))
}

// Allgatherv concentrates variable-size byte blocks everywhere
// (MPI_ALLGATHERV); every rank supplies identical counts/displs tables.
func (c *Comm) Allgatherv(send []byte, recv []byte, counts, displs []int) error {
	x, err := c.collEnter()
	if err != nil {
		return err
	}
	defer x.done()
	need := extent(counts, displs)
	if len(recv) < need {
		return errc(ErrBuffer, "allgatherv recv %d < %d", len(recv), need)
	}
	t := c.nbcPort()
	key := nbc.CacheKey{Kind: nbc.CacheAllgatherv, Algo: nbc.AlgoNone, Root: -1, Shape: nbc.ShapeHash(counts, displs)}
	return c.run(c.schedule(collCached, key, send, recv[:need], func(tag int) (*nbc.Schedule, error) {
		return nbc.Allgatherv(t, tag, send, recv[:need], counts, displs)
	}))
}
