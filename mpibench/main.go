// Command mpibench is gompi's benchmark: one seeded workload through the
// public gompi API, every delivered result checked, reporting the
// end-to-end metrics of an untraced run (--trace 0) or the per-layer
// metrics of a traced run (--trace 1) on both of gompi's clocks: wall
// time of the Go code and the modeled virtual time. See README.md.
//
// Usage, from the repository root:
//
//	bash mpibench/run.sh --workload small-msg --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The full result, with its
// provenance and every metric's unit, direction and clock, is written
// to .bench_out/ beside the spans of traced runs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// setupRuns is how many set-ups an untraced invocation times; setup_s
// is their median. The measured run's own set-up is one of them.
const setupRuns = 11

// procs is the GOMAXPROCS every run uses. The ranks interleave on one
// P, so the scheduler's choices follow the program: match paths and
// virtual time repeat, and the wall clock measures the Go code rather
// than cross-CPU wake-ups, which CPU steal on a shared host makes
// erratic. On a 2-vCPU VM with about a third of its time stolen, the
// p99 of halo-cg rounds spread 169% between seeds with two Ps and 7%
// with one.
const procs = 1

// In a traced invocation the untraced comparison run and the traced
// run split the measured time.
const untracedShare = 0.4

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mpibench:", err)
		os.Exit(1)
	}
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance identifies what produced a result. Results whose
// provenance differs are not compared: virtual time moves with
// GOMAXPROCS, wall time with everything here.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// document is the full result written to the output directory.
type document struct {
	Provenance provenance       `json:"provenance"`
	Result     resultLine       `json:"result"`
	Metrics    []metricDef      `json:"metric_defs"`
	Samples    map[string]int64 `json:"samples"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mpibench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: small-msg, bulk-shm, halo-cg or small-msg-ch3")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "seconds the measured region lasts")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := fs.String("out", ".bench_out", "directory for the result document and spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(procs)
	in, err := Generate(w.name, *seed)
	if err != nil {
		return err
	}
	prov := provenanceOf(w.name, *seed, *seconds, *trace)

	var defs []metricDef
	var values map[string]float64
	var attempted, failed int64
	samples := map[string]int64{}
	secs := float64(*seconds)
	if *trace == 0 {
		defs = endToEnd
		var setups []time.Duration
		for i := 0; i < setupRuns-1; i++ {
			j, err := runJob(w, in, opts{})
			if err != nil {
				return err
			}
			setups = append(setups, j.setup)
			a, f := j.totals()
			attempted, failed = attempted+a, failed+f
		}
		j, err := runJob(w, in, opts{seconds: secs})
		if err != nil {
			return err
		}
		setups = append(setups, j.setup)
		a, f := j.totals()
		attempted, failed = attempted+a, failed+f
		if values, err = endToEndValues(j, setups); err != nil {
			return err
		}
		samples["setup"] = int64(len(setups))
		samples["rounds"], samples["round_percentile_samples"] = roundCounts(j)
		samples["slices"] = int64(len(j.slices))
		samples["instr_pass_ops"] = j.cycleOps
		samples["ops"] = j.ranks[0].ops
	} else {
		defs = perLayer
		ladder, err := runLadder(*seed)
		if err != nil {
			return err
		}
		u, err := runJob(w, in, opts{seconds: untracedShare * secs})
		if err != nil {
			return err
		}
		t, err := runJob(w, in, opts{seconds: (1 - untracedShare) * secs, traced: true})
		if err != nil {
			return err
		}
		uw, _ := sliceRates(u)
		values = perLayerValues(t, median(uw), ladder)
		for _, j := range []*job{u, t} {
			a, f := j.totals()
			attempted, failed = attempted+a, failed+f
		}
		values["fail_ratio"] = float64(failed) / float64(attempted)
		samples["ops"] = t.ranks[0].ops
		samples["rounds"], _ = roundCounts(t)
		samples["ladder_reps"] = ladderReps
		for k := kind(0); k < numKinds; k++ {
			var n int64
			for _, r := range t.ranks {
				n += r.tr.calls[k]
			}
			samples["spans."+kindNames[k]] = n
		}
		if err := writeSpans(filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed)), t.ranks); err != nil {
			return err
		}
	}

	res := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	doc := document{Provenance: prov, Result: res, Metrics: defs, Samples: samples}
	path := filepath.Join(*outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := writeJSON(path, &doc); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "# %s seed=%d GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s\n",
		prov.Workload, prov.Seed, prov.GOMAXPROCS, prov.NProc, prov.CPU, prov.GoVersion, prov.Commit)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-32s %14.6g %-7s %-8s %s is better\n", d.Name, values[d.Name], d.Unit, d.Clock, d.Better)
	}
	fmt.Fprintf(stdout, "# samples %v; attempted %d, failed %d; full result in %s\n", samples, attempted, failed, path)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// roundCounts returns how many rounds rank 0 ran in the measured
// region and how many of them the percentiles sample.
func roundCounts(j *job) (rounds, sampled int64) {
	for i := range j.slices {
		rounds += j.slices[i].rounds.n
		sampled += int64(len(j.slices[i].rounds.wall))
	}
	return rounds, sampled
}

func provenanceOf(name string, seed int64, seconds, trace int) provenance {
	p := provenance{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: "unknown",
		OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					p.Commit += "+dirty"
				}
			}
		}
	}
	return p
}

// cpuModel reads the CPU model name from /proc/cpuinfo on Linux.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
