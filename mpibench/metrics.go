package main

import (
	"fmt"
	"time"

	"gompi"
	"gompi/internal/hist"
	"gompi/internal/metrics"
)

// metricDef describes one reported metric. clock says what it is
// measured on: wall time, virtual time, a count, or memory.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Clock  string  `json:"clock"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, a share of the median
}

// endToEnd are the untraced run's metrics, under the same names on
// every workload. An op is one message or RMA transfer (small-msg,
// small-msg-ch3, bulk-shm) or one CG iteration (halo-cg); a round is a
// window plus its ack, one transfer, or one iteration.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "wall", 0.25},
	{"wall_ops_per_s", "ops/s", "higher", "wall", 0.25},
	{"wall_round_p50_us", "us", "lower", "wall", 0.25},
	{"wall_round_p99_us", "us", "lower", "wall", 0.25},
	{"v_ops_per_s", "ops/s", "higher", "virtual", 0.05},
	{"v_round_p50_us", "us", "lower", "virtual", 0.05},
	{"v_round_p99_us", "us", "lower", "virtual", 0.05},
	{"instr_per_op", "instr", "lower", "count", 0.02},
	{"allocs_per_op", "allocs", "lower", "count", 0.1},
	{"heap_MB", "MB", "lower", "memory", 0.2},
}

// perLayer are the traced run's metrics: deltas over its measured
// region, summed over ranks and divided by its ops unless noted.
var perLayer = []metricDef{
	{"gompi.isend.self_ns", "ns", "lower", "wall", 0},
	{"gompi.irecv.self_ns", "ns", "lower", "wall", 0},
	{"gompi.recv.self_ns", "ns", "lower", "wall", 0},
	{"gompi.send.self_ns", "ns", "lower", "wall", 0},
	{"gompi.wait.self_ns", "ns", "lower", "wall", 0},
	{"gompi.put.self_ns", "ns", "lower", "wall", 0},
	{"gompi.get.self_ns", "ns", "lower", "wall", 0},
	{"gompi.flush.self_ns", "ns", "lower", "wall", 0},
	{"gompi.allreduce.self_ns", "ns", "lower", "wall", 0},
	{"gompi.wait.share", "ratio", "lower", "wall", 0},
	{"instr.errcheck_per_op", "instr", "lower", "count", 0},
	{"instr.thread_per_op", "instr", "lower", "count", 0},
	{"instr.call_per_op", "instr", "lower", "count", 0},
	{"instr.redundant_per_op", "instr", "lower", "count", 0},
	{"instr.mandatory_per_op", "instr", "lower", "count", 0},
	{"instr.transport_cyc_per_op", "cycles", "lower", "virtual", 0},
	{"match.binops_per_op", "count", "lower", "count", 0},
	{"match.searches_per_op", "count", "lower", "count", 0},
	{"match.wild_hits_per_op", "count", "lower", "count", 0},
	{"match.bin_hit_ratio", "ratio", "higher", "count", 0},
	{"match.unexpected_max", "count", "lower", "count", 0},
	{"match.posted_max", "count", "lower", "count", 0},
	{"match.postmatch_p50_cyc", "cycles", "lower", "virtual", 0},
	{"match.unexp_residency_p50_cyc", "cycles", "lower", "virtual", 0},
	{"request.reuse_ratio", "ratio", "higher", "count", 0},
	{"request.lifetime_p50_cyc", "cycles", "lower", "virtual", 0},
	{"fabric.net_msgs_per_op", "count", "lower", "count", 0},
	{"fabric.net_bytes_per_op", "bytes", "lower", "count", 0},
	{"fabric.rndv_share", "ratio", "lower", "count", 0},
	{"fabric.pool_hit_ratio", "ratio", "higher", "count", 0},
	{"fabric.peers_touched", "count", "lower", "count", 0},
	{"fabric.peer_state_bytes", "bytes", "lower", "memory", 0},
	{"shm.msgs_per_op", "count", "lower", "count", 0},
	{"shm.handoff_share", "ratio", "higher", "count", 0},
	{"shm.copies_staged_per_op", "count", "lower", "count", 0},
	{"shm.copies_direct_per_op", "count", "lower", "count", 0},
	{"shm.handoff_rtt_p50_cyc", "cycles", "lower", "virtual", 0},
	{"rma.puts_per_op", "count", "lower", "count", 0},
	{"rma.gets_per_op", "count", "lower", "count", 0},
	{"rma.flushes_per_op", "count", "lower", "count", 0},
	{"rma.flush_p50_cyc", "cycles", "lower", "virtual", 0},
	{"coll.calls_per_op", "count", "lower", "count", 0},
	{"coll.bytes_per_op", "bytes", "lower", "count", 0},
	{"nbc.two_level_share", "ratio", "higher", "count", 0},
	{"nbc.sched_hit_ratio", "ratio", "higher", "count", 0},
	{"proc.wait_park_p50_cyc", "cycles", "lower", "virtual", 0},
	{"pop.pe", "ratio", "higher", "virtual", 0},
	{"pop.lb", "ratio", "higher", "virtual", 0},
	{"pop.comm_eff", "ratio", "higher", "virtual", 0},
	{"ladder.datatype.pack_ns", "ns", "lower", "wall", 0},
	{"ladder.match.post_arrive_ns", "ns", "lower", "wall", 0},
	{"ladder.request.get_put_ns", "ns", "lower", "wall", 0},
	{"ladder.fabric.send_drain_ns", "ns", "lower", "wall", 0},
	{"ladder.shm.send_progress_ns", "ns", "lower", "wall", 0},
	{"ladder.instr.charge_ns", "ns", "lower", "wall", 0},
	{"ladder.hist.observe_ns", "ns", "lower", "wall", 0},
	{"ladder.flight.record_ns", "ns", "lower", "wall", 0},
	{"ladder.vtime.advance_ns", "ns", "lower", "wall", 0},
	{"ladder.metrics.note_ns", "ns", "lower", "wall", 0},
	{"trace.overhead_frac", "ratio", "lower", "wall", 0},
	{"fail_ratio", "ratio", "lower", "count", 0},
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// reached reads 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minAbove is how many samples must lie above a reported high
// percentile.
const minAbove = 10

// endToEndValues computes the end-to-end metrics of an untraced job;
// setups are every set-up time the invocation measured.
func endToEndValues(j *job, setups []time.Duration) (map[string]float64, error) {
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	out := map[string]float64{"setup_s": median(secs)}
	wall, virt := sliceRates(j)
	out["wall_ops_per_s"], out["v_ops_per_s"] = median(wall), median(virt)
	for _, q := range []struct {
		name string
		xs   func(s *samples) []float64
		unit float64 // sample units per us
	}{
		{"wall_round", func(s *samples) []float64 { return s.wall }, 1e3},
		{"v_round", func(s *samples) []float64 { return s.v }, j.hz / 1e6},
	} {
		var p50s, p99s []float64
		for i := range j.slices {
			xs := q.xs(&j.slices[i].rounds)
			p50, _ := quantile(xs, 0.50, 0)
			p99, ok := quantile(xs, 0.99, minAbove)
			if !ok {
				return nil, fmt.Errorf("slice %d: %d round samples leave fewer than %d above p99", i, len(xs), minAbove)
			}
			p50s, p99s = append(p50s, p50/q.unit), append(p99s, p99/q.unit)
		}
		out[q.name+"_p50_us"], out[q.name+"_p99_us"] = median(p50s), median(p99s)
	}
	out["instr_per_op"] = passInstrPerOp(j)
	ops := float64(j.ranks[0].ops)
	out["allocs_per_op"] = ratio(float64(j.mallocs), ops)
	out["heap_MB"] = float64(max(j.heapSetup, j.heapEnd)) / 1e6
	return out, nil
}

// passInstrPerOp returns the MPI instructions every rank was charged
// over the first schedule pass of the measured region, per op of that
// pass. A fixed stretch of the schedule, so it repeats exactly for a
// seed whatever the run's length.
func passInstrPerOp(j *job) float64 {
	var instr int64
	for _, r := range j.ranks {
		instr += r.pass1.TotalInstr - r.pass0.TotalInstr
	}
	return ratio(float64(instr), float64(j.cycleOps))
}

// sliceRates returns rank 0's ops per second in each wall-clock slice
// of the measured region, on the wall and the virtual clock.
func sliceRates(j *job) (wall, virt []float64) {
	for _, s := range j.slices {
		wall = append(wall, ratio(float64(s.ops), float64(s.wallNs)/1e9))
		virt = append(virt, ratio(float64(s.ops), float64(s.vCyc)/j.hz))
	}
	return wall, virt
}

// perLayerValues computes the per-layer metrics of a traced job t;
// untracedRate is wall_ops_per_s of the untraced job run beside it.
func perLayerValues(t *job, untracedRate float64, ladder map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	ops := float64(t.ranks[0].ops)
	perOp := func(v int64) float64 { return ratio(float64(v), ops) }

	var calls, self [numKinds]int64
	var roundNs int64
	var flushV []float64
	for _, r := range t.ranks {
		for k := range calls {
			calls[k] += r.tr.calls[k]
			self[k] += r.tr.selfNs[k]
		}
		roundNs += r.tr.roundNs
		for _, v := range r.tr.flushV {
			flushV = append(flushV, float64(v))
		}
	}
	for k := kind(0); k < kRound; k++ {
		out["gompi."+kindNames[k]+".self_ns"] = ratio(float64(self[k]), float64(calls[k]))
	}
	out["gompi.wait.share"] = ratio(float64(self[kWait]), float64(roundNs))

	var c gompi.Counters
	for _, r := range t.ranks {
		d := r.c1.Sub(r.c0)
		c.ErrorCheck += d.ErrorCheck
		c.ThreadCheck += d.ThreadCheck
		c.Call += d.Call
		c.Redundant += d.Redundant
		c.Mandatory += d.Mandatory
		c.Transport += d.Transport
	}
	out["instr.errcheck_per_op"] = perOp(c.ErrorCheck)
	out["instr.thread_per_op"] = perOp(c.ThreadCheck)
	out["instr.call_per_op"] = perOp(c.Call)
	out["instr.redundant_per_op"] = perOp(c.Redundant)
	out["instr.mandatory_per_op"] = perOp(c.Mandatory)
	out["instr.transport_cyc_per_op"] = perOp(c.Transport)

	// delta sums a registry field's growth over the region, all ranks.
	delta := func(f func(m *gompi.MetricsSnapshot) int64) int64 {
		var s int64
		for _, r := range t.ranks {
			s += f(&r.m1) - f(&r.m0)
		}
		return s
	}
	// highest is a field's largest end-of-region value over the ranks.
	highest := func(f func(m *gompi.MetricsSnapshot) int64) float64 {
		var s int64
		for _, r := range t.ranks {
			s = max(s, f(&r.m1))
		}
		return float64(s)
	}
	// total sums a field's end-of-region values over the ranks.
	total := func(f func(m *gompi.MetricsSnapshot) int64) float64 {
		var s int64
		for _, r := range t.ranks {
			s += f(&r.m1)
		}
		return float64(s)
	}
	// p50 is the median of the observations a latency histogram gained
	// over the region, all ranks merged (see p50Buckets).
	p50 := func(f func(m *gompi.MetricsSnapshot) *hist.Snapshot) float64 {
		var d [hist.NumBuckets]int64
		for _, r := range t.ranks {
			a, b := f(&r.m1), f(&r.m0)
			for i := range d {
				d[i] += a.Buckets[i] - b.Buckets[i]
			}
		}
		return p50Buckets(d)
	}

	binHits := delta(func(m *gompi.MetricsSnapshot) int64 { return m.Match.BinHits })
	wildHits := delta(func(m *gompi.MetricsSnapshot) int64 { return m.Match.WildHits })
	out["match.binops_per_op"] = perOp(delta(func(m *gompi.MetricsSnapshot) int64 { return m.Match.BinOps }))
	out["match.searches_per_op"] = perOp(delta(func(m *gompi.MetricsSnapshot) int64 { return m.Match.Searches }))
	out["match.wild_hits_per_op"] = perOp(wildHits)
	out["match.bin_hit_ratio"] = ratio(float64(binHits), float64(binHits+wildHits))
	out["match.unexpected_max"] = highest(func(m *gompi.MetricsSnapshot) int64 { return m.Match.UnexpectedMax })
	out["match.posted_max"] = highest(func(m *gompi.MetricsSnapshot) int64 { return m.Match.PostedMax })
	out["match.postmatch_p50_cyc"] = p50(func(m *gompi.MetricsSnapshot) *hist.Snapshot { return &m.Lat.PostMatch })
	out["match.unexp_residency_p50_cyc"] = p50(func(m *gompi.MetricsSnapshot) *hist.Snapshot { return &m.Lat.UnexRes })

	out["request.reuse_ratio"] = ratio(
		float64(delta(func(m *gompi.MetricsSnapshot) int64 { return m.Req.Reuses })),
		float64(delta(func(m *gompi.MetricsSnapshot) int64 { return m.Req.Allocs })))
	out["request.lifetime_p50_cyc"] = p50(func(m *gompi.MetricsSnapshot) *hist.Snapshot { return &m.Lat.ReqLife })

	eager := delta(func(m *gompi.MetricsSnapshot) int64 { return m.Eager.Msgs })
	rndv := delta(func(m *gompi.MetricsSnapshot) int64 { return m.Rndv.Msgs })
	var hits, misses int64
	for i := 0; i < metrics.NumPoolClasses; i++ {
		hits += delta(func(m *gompi.MetricsSnapshot) int64 { return m.Pool.Hits[i] })
		misses += delta(func(m *gompi.MetricsSnapshot) int64 { return m.Pool.Misses[i] })
	}
	out["fabric.net_msgs_per_op"] = perOp(delta(func(m *gompi.MetricsSnapshot) int64 { return m.NetSend.Msgs }))
	out["fabric.net_bytes_per_op"] = perOp(delta(func(m *gompi.MetricsSnapshot) int64 { return m.NetSend.Bytes }))
	out["fabric.rndv_share"] = ratio(float64(rndv), float64(eager+rndv))
	out["fabric.pool_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	out["fabric.peers_touched"] = total(func(m *gompi.MetricsSnapshot) int64 { return m.Peers.Touched })
	out["fabric.peer_state_bytes"] = total(func(m *gompi.MetricsSnapshot) int64 { return m.Peers.StateBytes })

	shmMsgs := delta(func(m *gompi.MetricsSnapshot) int64 { return m.ShmSend.Msgs })
	out["shm.msgs_per_op"] = perOp(shmMsgs)
	out["shm.handoff_share"] = ratio(float64(delta(func(m *gompi.MetricsSnapshot) int64 { return m.ShmHandoff.Msgs })), float64(shmMsgs))
	out["shm.copies_staged_per_op"] = perOp(delta(func(m *gompi.MetricsSnapshot) int64 { return m.CopiesStaged.Msgs }))
	out["shm.copies_direct_per_op"] = perOp(delta(func(m *gompi.MetricsSnapshot) int64 { return m.CopiesDirect.Msgs }))
	out["shm.handoff_rtt_p50_cyc"] = p50(func(m *gompi.MetricsSnapshot) *hist.Snapshot { return &m.Lat.HandoffRTT })

	out["rma.puts_per_op"] = perOp(delta(func(m *gompi.MetricsSnapshot) int64 { return m.Rma.Puts }))
	out["rma.gets_per_op"] = perOp(delta(func(m *gompi.MetricsSnapshot) int64 { return m.Rma.Gets }))
	out["rma.flushes_per_op"] = perOp(delta(func(m *gompi.MetricsSnapshot) int64 { return m.Rma.Flushes }))
	out["rma.flush_p50_cyc"] = median(flushV)

	// Collectives are called by every rank, so their counts are per
	// rank: calls_per_op reads as collective calls per iteration.
	collCalls := func(algo int) int64 {
		return delta(func(m *gompi.MetricsSnapshot) int64 {
			if algo < len(m.Coll) {
				return m.Coll[algo].Calls
			}
			return 0
		})
	}
	var coll, collBytes int64
	for a := 0; a < metrics.NumCollAlgos; a++ {
		coll += collCalls(a)
		collBytes += delta(func(m *gompi.MetricsSnapshot) int64 {
			if a < len(m.Coll) {
				return m.Coll[a].Bytes
			}
			return 0
		})
	}
	nr := float64(len(t.ranks))
	out["coll.calls_per_op"] = perOp(coll) / nr
	out["coll.bytes_per_op"] = perOp(collBytes) / nr
	twoLevel := collCalls(metrics.CollAllreduceTwoLevel) + collCalls(metrics.CollAllreduceTwoLevelZC) +
		collCalls(metrics.CollBcastTwoLevel)
	out["nbc.two_level_share"] = ratio(float64(twoLevel), float64(coll))
	schedHits := delta(func(m *gompi.MetricsSnapshot) int64 { return m.Sched.CacheHits })
	schedMiss := delta(func(m *gompi.MetricsSnapshot) int64 { return m.Sched.CacheMisses })
	out["nbc.sched_hit_ratio"] = ratio(float64(schedHits), float64(schedHits+schedMiss))

	out["proc.wait_park_p50_cyc"] = p50(func(m *gompi.MetricsSnapshot) *hist.Snapshot { return &m.Lat.WaitPark })

	for _, ph := range t.stats.Efficiency().Phases {
		if ph.Name == "measured" {
			out["pop.pe"], out["pop.lb"], out["pop.comm_eff"] = ph.ParallelEff, ph.LoadBalance, ph.CommEff
		}
	}
	for k, v := range ladder {
		out[k] = v
	}
	wall, _ := sliceRates(t)
	out["trace.overhead_frac"] = 1 - ratio(median(wall), untracedRate)
	return out
}

// p50Buckets returns the median of the observations above 1 cycle in
// log2-bucketed counts (bucket i holds values in (2^(i-1), 2^i]), as
// its bucket's upper bound, or 0 when there are none. Bucket 0 is left
// out because the devices record a 0 in the post-to-match histogram
// for every unexpected match and in the residency histogram for every
// expected one; the median is over each path's own matches.
func p50Buckets(d [hist.NumBuckets]int64) float64 {
	var n, cum int64
	for _, c := range d[1:] {
		n += c
	}
	if n == 0 {
		return 0
	}
	for i, c := range d[1:] {
		cum += c
		if 2*cum >= n {
			return float64(int64(1) << (i + 1))
		}
	}
	return 0
}
