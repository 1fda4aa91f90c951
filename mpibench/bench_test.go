package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// shortRun is long enough for a first schedule pass and a few more.
const shortRun = 0.2

func TestGenerateRepeatsPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := Generate(w.name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(w.name, 7)
		c, _ := Generate(w.name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", w.name)
		}
		c.Seed = a.Seed
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
	ch4, _ := Generate("small-msg", 3)
	ch3, _ := Generate("small-msg-ch3", 3)
	if !reflect.DeepEqual(ch4.Windows, ch3.Windows) {
		t.Error("small-msg-ch3 does not get small-msg's inputs")
	}
}

func runShort(t *testing.T, name string, f faults) *job {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(name, 11)
	if err != nil {
		t.Fatal(err)
	}
	j, err := runJob(w, in, opts{seconds: shortRun, inject: f})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestEveryWorkloadPassesItsChecks(t *testing.T) {
	for _, w := range workloads {
		j := runShort(t, w.name, faults{})
		attempted, failed := j.totals()
		if attempted == 0 || failed != 0 {
			t.Errorf("%s: %d of %d ops failed", w.name, failed, attempted)
		}
	}
}

func TestFaultsRaiseFailRatio(t *testing.T) {
	for _, c := range []struct {
		workload string
		f        faults
	}{
		{"small-msg", faults{payload: true}},
		{"bulk-shm", faults{payload: true}},
		{"halo-cg", faults{residual: true}},
	} {
		j := runShort(t, c.workload, c.f)
		if attempted, failed := j.totals(); failed == 0 {
			t.Errorf("%s with %+v: fail_ratio 0 of %d ops", c.workload, c.f, attempted)
		}
	}
}

func TestInstrPerOpRepeats(t *testing.T) {
	a := passInstrPerOp(runShort(t, "small-msg", faults{}))
	b := passInstrPerOp(runShort(t, "small-msg", faults{}))
	if a == 0 || a != b {
		t.Errorf("instr_per_op %v then %v for one seed", a, b)
	}
	ch3 := passInstrPerOp(runShort(t, "small-msg-ch3", faults{}))
	if ch3 <= a {
		t.Errorf("instr_per_op: small-msg-ch3 %v not above small-msg %v", ch3, a)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// describes what this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, defined %s", i, doc.Workloads[i], w.name)
		}
	}
	for _, c := range []struct {
		listed  []metric
		defined []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defined) {
			t.Fatalf("%d metrics listed, %d defined", len(c.listed), len(c.defined))
		}
		for i, d := range c.defined {
			if got := c.listed[i]; got != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("metric %d: listed %+v, defined %+v", i, got, d)
			}
		}
	}
}
