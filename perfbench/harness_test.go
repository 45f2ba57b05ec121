package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyRun runs one workload at the self-test size for a single iteration
// (two in traced mode) and returns its report.
func tinyRun(t *testing.T, workload string, trace bool, ref *reference) report {
	t.Helper()
	cfg := config{
		workload: workload, seed: 7, seconds: 0, trace: trace, tiny: true,
		refPath: "reference.json", outDir: t.TempDir(), ref: ref,
	}
	res, err := run(cfg, time.Now())
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if _, err := res.write(cfg); err != nil {
		t.Fatal(err)
	}
	return res.report
}

// checkNames asserts the report carries exactly the spec's metrics, each
// with the spec's unit.
func checkNames(t *testing.T, workload string, rep report, want []specMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", workload, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		}
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", workload, len(rep.Metrics), len(want))
	}
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		rep := tinyRun(t, w.Name, false, nil)
		checkNames(t, w.Name, rep, spec.EndToEnd)
		if !rep.Correct || rep.Failed != 0 || rep.Metrics["ok_frac"].Value != 1 {
			t.Errorf("%s: untraced run failed %d of %d", w.Name, rep.Failed, rep.Attempted)
		}
		rep = tinyRun(t, w.Name, true, nil)
		checkNames(t, w.Name, rep, spec.PerLayer)
		if ff := rep.Metrics["fail_frac"].Value; ff != 0 || rep.Attempted != 2 {
			t.Errorf("%s: traced run fail_frac = %v over %d iterations, want 0 over 2", w.Name, ff, rep.Attempted)
		}
		if rep.Metrics["sim.steps"].Value == 0 {
			t.Errorf("%s: traced run counted no engine steps", w.Name)
		}
	}
}

func TestWrongReferenceDigestFailsEveryIteration(t *testing.T) {
	ref := &reference{Seed: 7, Workloads: map[string]referenceRun{
		"fig2": {Digests: map[string]string{"result": "0000"}},
	}}
	rep := tinyRun(t, "fig2", true, ref)
	if ff := rep.Metrics["fail_frac"].Value; ff != 1 || rep.Correct {
		t.Errorf("fail_frac = %v, correct = %v with a wrong reference digest; want 1, false", ff, rep.Correct)
	}
	rep = tinyRun(t, "fig2", false, ref)
	if ok := rep.Metrics["ok_frac"].Value; ok != 0 || rep.Failed != rep.Attempted {
		t.Errorf("ok_frac = %v, failed %d of %d with a wrong reference digest; want 0, all", ok, rep.Failed, rep.Attempted)
	}
}

func TestReferenceFileCoversEveryWorkload(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Seed != defaultSeed {
		t.Errorf("reference seed %d, want the default %d", ref.Seed, defaultSeed)
	}
	for _, w := range workloads {
		run, ok := ref.Workloads[w.name]
		if !ok {
			t.Errorf("no reference for %s", w.name)
			continue
		}
		if run.Counts["sim.steps"] == 0 {
			t.Errorf("%s: reference has no engine step count", w.name)
		}
	}
	if d := ref.Workloads["observed-dma"].Digests; len(d) != 4 {
		t.Errorf("observed-dma reference digests %v; want result, trace, profile and snapshot", d)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	l := &spanLog{spans: []span{
		{Name: "iteration", Iter: 1, Start: 0, End: 10e6, Parent: -1},
		{Name: "experiment", Iter: 1, Start: 1e6, End: 9e6, Parent: 0},
		{Name: "observe", Iter: 1, Start: 2e6, End: 3e6, Parent: 1},
		{Name: "observe", Iter: 1, Start: 4e6, End: 6e6, Parent: 1},
	}}
	got := l.selfMS()
	want := map[string]float64{"iteration": 2, "experiment": 5, "observe": 3}
	for name, ms := range want {
		if len(got[name]) != 1 || got[name][0] != ms {
			t.Errorf("%s self time %v, want [%v]", name, got[name], ms)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p, _ := tail(xs); p != 0.9 {
		t.Errorf("tail percentile of 100 samples = %v, want 0.9", p)
	}
	if p, v := tail(xs[:5]); p != 0.5 || v != 2 {
		t.Errorf("tail of 5 samples = p%v %v, want the median", p, v)
	}
}
