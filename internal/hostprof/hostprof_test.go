package hostprof

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// knownAllocBytes is large enough that the runtime's sampler (one sample
// per 512 KB on average) misses it with probability e^-16, and its
// scale-up factor is 1 to seven decimal places.
const knownAllocBytes = 8 << 20

// sink keeps phase allocations alive past any compiler cleverness.
var sink []byte

//go:noinline
func allocateKnown() { sink = make([]byte, knownAllocBytes) }

func TestPhaseAttributesNamedHelper(t *testing.T) {
	s := NewSampler()
	if err := s.Phase("alloc", func() error { allocateKnown(); return nil }); err != nil {
		t.Fatal(err)
	}
	p := s.Phases()[0]
	var row *SiteCost
	var sum, objects int64
	for i := range p.Sites {
		sc := &p.Sites[i]
		sum += sc.Bytes
		objects += sc.Count
		if sc.Site == "internal/hostprof.allocateKnown" {
			row = sc
		}
		if !sc.Exact || sc.Package == "" || sc.Desc == "" || !strings.HasPrefix(sc.Site, sc.Package+".") {
			t.Errorf("incomplete row: %+v", *sc)
		}
	}
	if row == nil {
		t.Fatalf("no row for the allocating helper among %+v", p.Sites)
	}
	if row.Bytes < knownAllocBytes || row.Count < 1 {
		t.Fatalf("helper charged %d bytes in %d objects, want at least %d bytes", row.Bytes, row.Count, knownAllocBytes)
	}
	if row.Package != "internal/hostprof" || !strings.HasPrefix(row.Desc, "hostprof_test.go:") {
		t.Fatalf("helper row has package %q desc %q", row.Package, row.Desc)
	}
	if p.CountedBytes != sum || p.CountedOps != objects {
		t.Fatalf("phase totals %d B / %d objects, rows sum to %d / %d", p.CountedBytes, p.CountedOps, sum, objects)
	}
	if p.Sites[0].Site != row.Site {
		t.Fatalf("top row is %q, want the helper", p.Sites[0].Site)
	}
}

//go:noinline
func stackA() []uintptr { return callers() }

//go:noinline
func stackB() []uintptr { return callers() }

// callers returns its caller's stack, the way the runtime records one
// for a heap-profile bucket.
func callers() []uintptr {
	pcs := make([]uintptr, 32)
	return pcs[:runtime.Callers(2, pcs)]
}

func record(stack []uintptr, objects, size int64) runtime.MemProfileRecord {
	r := runtime.MemProfileRecord{AllocObjects: objects, AllocBytes: objects * size}
	copy(r.Stack0[:], stack)
	return r
}

// TestAttributeDiffsBucketsAndScales drives attribute with synthetic
// profile records: buckets sharing a stack but not a size stay apart, an
// unchanged bucket contributes nothing, a stack with no simulator frame is
// unattributed, and sampled counts scale up the way pprof scales them.
func TestAttributeDiffsBucketsAndScales(t *testing.T) {
	a, b := stackA(), stackB()
	before := []runtime.MemProfileRecord{
		record(a, 10, 64),
		record(a, 2, 4096),
		record(b, 5, 32),
	}
	after := []runtime.MemProfileRecord{
		record(nil, 100, 16), // no simulator frame: unattributed
		record(a, 1, 128),    // new bucket since before
		record(a, 30, 64),    // +20 objects
		record(a, 2, 4096),   // unchanged
		record(b, 5, 32),     // unchanged: b gets no row
	}
	rows := attribute(before, after, 1)
	if len(rows) != 1 {
		t.Fatalf("rows = %+v, want one row for stackA", rows)
	}
	r := rows[0]
	if r.Site != "internal/hostprof.stackA" || r.Package != "internal/hostprof" || !r.Exact {
		t.Fatalf("row identity = %+v", r)
	}
	if r.Count != 21 || r.Bytes != 20*64+128 {
		t.Fatalf("unscaled row = %d objects / %d bytes, want 21 / %d", r.Count, r.Bytes, 20*64+128)
	}

	const rate = 512
	scale := func(size float64) float64 { return 1 / (1 - math.Exp(-size/rate)) }
	wantObjects := 20*scale(64) + scale(128)
	wantBytes := 20*64*scale(64) + 128*scale(128)
	r = attribute(before, after, rate)[0]
	if math.Abs(float64(r.Count)-wantObjects) > 1 || math.Abs(float64(r.Bytes)-wantBytes) > 1 {
		t.Fatalf("scaled row = %d objects / %d bytes, want %.1f / %.1f", r.Count, r.Bytes, wantObjects, wantBytes)
	}
	if !strings.HasPrefix(r.Desc, "hostprof_test.go:") {
		t.Fatalf("desc = %q, want a hostprof_test.go line", r.Desc)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"internal/xpr.New":                       "internal/xpr",
		"internal/sim.(*Engine).run":             "internal/sim",
		"internal/experiments.Fig2.func1":        "internal/experiments",
		"internal/analysis/summary.(*state).add": "internal/analysis/summary",
		"internal/sim.(*Heap[...]).Push":         "internal/sim",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSamplerPhasesAndReport(t *testing.T) {
	s := NewSampler()
	if err := s.Phase("alloc", func() error { allocateKnown(); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Phase("idle", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	r, err := s.Report("alloc")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("fresh report fails validation: %v", err)
	}
	hp := r.HeadlinePhase()
	if hp == nil || hp.Name != "alloc" {
		t.Fatal("headline phase not resolved")
	}
	if hp.MeasuredBytes < knownAllocBytes {
		t.Fatalf("measured %d bytes, expected at least the %d-byte allocation", hp.MeasuredBytes, knownAllocBytes)
	}
	if err := r.CheckCoverage(80); err != nil {
		t.Fatalf("a phase that is one known allocation must be attributed within the bounds: %v", err)
	}
	if r.GoVersion == "" || r.GOMAXPROCS <= 0 || r.NumCPU <= 0 {
		t.Fatalf("missing provenance: %+v", r.Provenance)
	}
	out := r.Render(10)
	for _, want := range []string{"host-cost/v1", "alloc", "«headline»", "internal/hostprof.allocateKnown"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCheckCoverageFloorAndCeiling(t *testing.T) {
	const measured = 1000
	for _, tc := range []struct {
		name    string
		counted int64
		ok      bool
	}{
		{"below floor", 799, false},
		{"at floor", 800, true},
		{"in range", 990, true},
		{"at ceiling", measured * MaxCoveragePct / 100, true},
		{"above ceiling", measured*MaxCoveragePct/100 + 1, false},
		{"runaway overcount", 68 * measured, false},
	} {
		r := &Report{
			Headline:    "fig2",
			CoveragePct: 100 * float64(tc.counted) / measured,
			Phases:      []PhaseCost{{Name: "fig2", MeasuredBytes: measured, CountedBytes: tc.counted}},
		}
		if err := r.CheckCoverage(80); (err == nil) != tc.ok {
			t.Errorf("%s: coverage %.1f%%: err = %v, want ok=%v", tc.name, r.CoveragePct, err, tc.ok)
		}
	}
	empty := &Report{Headline: "fig2", Phases: []PhaseCost{{Name: "fig2"}}}
	if err := empty.CheckCoverage(80); err == nil {
		t.Error("a headline phase that measured zero bytes must fail")
	}
}

func TestSamplerPhaseErrorRecorded(t *testing.T) {
	s := NewSampler()
	wantErr := os.ErrClosed
	if err := s.Phase("bad", func() error { return wantErr }); err != wantErr {
		t.Fatalf("Phase returned %v, want %v", err, wantErr)
	}
	if got := s.Phases(); len(got) != 1 || got[0].Err == "" {
		t.Fatalf("failed phase not recorded with its error: %+v", got)
	}
	if _, err := s.Report("missing"); err == nil {
		t.Fatal("Report with an unknown headline must fail")
	}
}

// sampleReport runs one attributed phase and returns its artifact bytes.
func sampleReport(t testing.TB) []byte {
	t.Helper()
	s := NewSampler()
	if err := s.Phase("p", func() error { allocateKnown(); return nil }); err != nil {
		t.Fatal(err)
	}
	r, err := s.Report("p")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReportRoundTripAndValidateFailures(t *testing.T) {
	raw := sampleReport(t)
	path := filepath.Join(t.TempDir(), "hostcost.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped report fails validation: %v", err)
	}

	corrupt := func(mut func(*Report)) *Report {
		var cp Report
		if err := json.Unmarshal(raw, &cp); err != nil {
			t.Fatal(err)
		}
		mut(&cp)
		return &cp
	}
	cases := map[string]*Report{
		"bad format":        corrupt(func(r *Report) { r.Format = "host-cost/v0" }),
		"no phases":         corrupt(func(r *Report) { r.Phases = nil }),
		"bad headline":      corrupt(func(r *Report) { r.Headline = "nope" }),
		"counted mismatch":  corrupt(func(r *Report) { r.Phases[0].CountedBytes += 7 }),
		"coverage mismatch": corrupt(func(r *Report) { r.CoveragePct += 50 }),
		"no provenance":     corrupt(func(r *Report) { r.GoVersion = "" }),
	}
	for name, bad := range cases {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want failure", name)
		}
	}
}

func TestSamplerProfiles(t *testing.T) {
	s := NewSampler()
	dir := t.TempDir()
	if err := s.StartProfiles(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Phase("work", func() error {
		for i := 0; i < 1000; i++ {
			sink = append(sink[:0], byte(i))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.StopProfiles(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"cpu.pprof", "heap.pprof"} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil || st.Size() == 0 {
			t.Fatalf("%s missing or empty (err %v)", f, err)
		}
	}
	if err := s.StopProfiles(); err != nil {
		t.Fatalf("second StopProfiles must be a no-op: %v", err)
	}
}
