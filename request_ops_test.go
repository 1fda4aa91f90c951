package gompi

import (
	"fmt"
	"testing"
)

func TestWaitanyPicksCompleted(t *testing.T) {
	run(t, 3, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() != 0 {
			// Rank 2 sends promptly; rank 1 delays.
			if p.Rank() == 1 {
				p.ChargeCompute(1_000_000)
			}
			return w.Send([]byte{byte(p.Rank())}, 1, Byte, 0, p.Rank())
		}
		bufs := [][]byte{make([]byte, 1), make([]byte, 1)}
		reqs := make([]*Request, 2)
		var err error
		for i := 0; i < 2; i++ {
			reqs[i], err = w.Irecv(bufs[i], 1, Byte, i+1, i+1)
			if err != nil {
				return err
			}
		}
		seen := map[int]bool{}
		for k := 0; k < 2; k++ {
			idx, st, err := Waitany(reqs)
			if err != nil {
				return err
			}
			if idx == UndefinedIndex {
				return fmt.Errorf("undefined with %d pending", 2-k)
			}
			if reqs[idx] != nil {
				return fmt.Errorf("completed slot %d not cleared", idx)
			}
			if st.Source != idx+1 || bufs[idx][0] != byte(idx+1) {
				return fmt.Errorf("slot %d: status %+v buf %v", idx, st, bufs[idx])
			}
			seen[idx] = true
		}
		if len(seen) != 2 {
			return fmt.Errorf("indices %v", seen)
		}
		// All nil now: immediate UNDEFINED.
		if idx, _, _ := Waitany(reqs); idx != UndefinedIndex {
			return fmt.Errorf("waitany on empty set = %d", idx)
		}
		return nil
	})
}

func TestTestanyAndTestall(t *testing.T) {
	run(t, 2, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 1 {
			for i := 0; i < 3; i++ {
				if err := w.Send([]byte{byte(i)}, 1, Byte, 0, i); err != nil {
					return err
				}
			}
			return nil
		}
		reqs := make([]*Request, 3)
		bufs := make([][]byte, 3)
		for i := range reqs {
			bufs[i] = make([]byte, 1)
			var err error
			reqs[i], err = w.Irecv(bufs[i], 1, Byte, 1, i)
			if err != nil {
				return err
			}
		}
		// Eventually Testall must report done with all statuses.
		for {
			sts, done, err := Testall(reqs)
			if err != nil {
				return err
			}
			if done {
				if len(sts) != 3 {
					return fmt.Errorf("%d statuses", len(sts))
				}
				for i, st := range sts {
					if st.Tag != i || bufs[i][0] != byte(i) {
						return fmt.Errorf("slot %d: %+v", i, st)
					}
				}
				break
			}
		}
		// Testany on the now-empty set reports done/UNDEFINED.
		idx, _, done, err := Testany(reqs)
		if err != nil || !done || idx != UndefinedIndex {
			return fmt.Errorf("testany empty = (%d,%v,%v)", idx, done, err)
		}
		return nil
	})
}

func TestWaitsomeHarvestsBatch(t *testing.T) {
	run(t, 2, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		const msgs = 6
		if p.Rank() == 1 {
			for i := 0; i < msgs; i++ {
				if err := w.Send([]byte{byte(i)}, 1, Byte, 0, i); err != nil {
					return err
				}
			}
			return nil
		}
		reqs := make([]*Request, msgs)
		for i := range reqs {
			var err error
			reqs[i], err = w.Irecv(make([]byte, 1), 1, Byte, 1, i)
			if err != nil {
				return err
			}
		}
		total := 0
		for total < msgs {
			idx, sts, err := Waitsome(reqs)
			if err != nil {
				return err
			}
			if len(idx) == 0 {
				return fmt.Errorf("waitsome returned empty batch at %d", total)
			}
			if len(idx) != len(sts) {
				return fmt.Errorf("indices/statuses mismatch")
			}
			total += len(idx)
		}
		if total != msgs {
			return fmt.Errorf("harvested %d", total)
		}
		return nil
	})
}

func TestScanExscanPublic(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		run(t, n, Config{Fabric: "ofi"}, func(p *Proc) error {
			w := p.World()
			send := Int64Bytes([]int64{int64(p.Rank() + 1)}, nil)
			recv := make([]byte, 8)
			if err := w.Scan(send, recv, 1, Long, OpSum); err != nil {
				return err
			}
			r := p.Rank() + 1
			if got := BytesInt64(recv, nil)[0]; got != int64(r*(r+1)/2) {
				return fmt.Errorf("scan rank %d = %d", p.Rank(), got)
			}
			ex := Int64Bytes([]int64{-1}, nil)
			if err := w.Exscan(send, ex, 1, Long, OpSum); err != nil {
				return err
			}
			got := BytesInt64(ex, nil)[0]
			if p.Rank() == 0 && got != -1 {
				return fmt.Errorf("exscan touched rank 0: %d", got)
			}
			if p.Rank() > 0 && got != int64(p.Rank()*(p.Rank()+1)/2) {
				return fmt.Errorf("exscan rank %d = %d", p.Rank(), got)
			}
			return nil
		})
	}
}

// TestGathervShortContribution: a rank contributing fewer bytes than
// root's counts[r] is a signature mismatch; root reports it as a count
// error instead of completing with stale bytes in its block.
func TestGathervShortContribution(t *testing.T) {
	for _, cfg := range []Config{{Device: "ch4", Fabric: "ofi"}, {Device: "original", Fabric: "ofi"}} {
		t.Run(cfgName(cfg), func(t *testing.T) {
			run(t, 3, cfg, func(p *Proc) error {
				w := p.World()
				counts, displs := []int{4, 4, 4}, []int{0, 4, 8}
				mine := []byte{1, 2, 3, 4}
				if p.Rank() == 1 {
					mine = mine[:1]
				}
				err := w.Gatherv(mine, make([]byte, 12), counts, displs, 0)
				if p.Rank() != 0 {
					return err
				}
				if ClassOf(err) != ErrCount {
					return fmt.Errorf("short contribution: err %v, want class ErrCount", err)
				}
				return nil
			})
		})
	}
}

func TestGathervScattervAllgathervPublic(t *testing.T) {
	const n = 4
	run(t, n, Config{Fabric: "ucx"}, func(p *Proc) error {
		w := p.World()
		counts := []int{2, 4, 6, 8}
		displs := []int{0, 2, 6, 12}
		total := 20
		mine := make([]byte, counts[p.Rank()])
		for i := range mine {
			mine[i] = byte(p.Rank() * 11)
		}
		all := make([]byte, total)
		if err := w.Gatherv(mine, all, counts, displs, 2); err != nil {
			return err
		}
		if p.Rank() == 2 {
			for r := 0; r < n; r++ {
				for i := 0; i < counts[r]; i++ {
					if all[displs[r]+i] != byte(r*11) {
						return fmt.Errorf("gatherv block %d: %v", r, all)
					}
				}
			}
		}
		back := make([]byte, counts[p.Rank()])
		if err := w.Scatterv(all, counts, displs, back, 2); err != nil {
			return err
		}
		for i := range back {
			if back[i] != byte(p.Rank()*11) {
				return fmt.Errorf("scatterv rank %d: %v", p.Rank(), back)
			}
		}
		everyone := make([]byte, total)
		if err := w.Allgatherv(mine, everyone, counts, displs); err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			if everyone[displs[r]] != byte(r*11) {
				return fmt.Errorf("allgatherv rank %d block %d: %v", p.Rank(), r, everyone)
			}
		}
		return nil
	})
}
