package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"shootdown/internal/kernel"
	"shootdown/internal/machine"
	"shootdown/internal/profile"
	"shootdown/internal/trace"
	"shootdown/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden.json from this build instead of comparing against it")

// goldenPath is the committed cross-version manifest of observation
// outputs. A changed digest must be justified in the change that
// regenerates it.
var goldenPath = filepath.Join("testdata", "golden.json")

// goldenCell pins one deterministic run: the engine step count it ended
// at (so a mismatch says where two builds diverged, not only that they
// did) and the SHA-256 of each artifact it produced.
type goldenCell struct {
	Steps   uint64            `json:"steps"`
	Digests map[string]string `json:"digests"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// render captures one writer-style export into bytes.
func render(t *testing.T, write func(io.Writer) error) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenDMA runs a small device world with the oracle, tracer, profiler
// and flight recorder all armed.
func goldenDMA(t *testing.T) goldenCell {
	tr, err := trace.New(1 << 18)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := trace.NewRecorder(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New()
	cfg := workload.AppConfig{
		NCPUs: 4, NumDevices: 2, Seed: 42, Scale: 4,
		Oracle: true, Tracer: tr, Profiler: p, Flight: fr,
	}
	k, err := workload.StartDMA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	res := workload.CollectDMA(cfg, k)
	s, err := k.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() > 0 {
		t.Fatalf("trace ring dropped %d events; grow it", tr.Dropped())
	}
	return goldenCell{Steps: k.Eng.StepCount(), Digests: map[string]string{
		"result.json":     sha(jsonBytes(t, res)),
		"trace.json":      sha(render(t, tr.WriteChromeTrace)),
		"folded.txt":      sha(render(t, p.WriteFolded)),
		"shootdowns.json": sha(render(t, p.WriteShootdowns)),
		"snapshot":        s.Digest,
	}}
}

// goldenBlackBox is the forced-failure chaos black box of
// TestChaosFailureDumpsDeterministicBlackBox.
func goldenBlackBox(t *testing.T) goldenCell {
	verdict, box, steps := flightCell(t, t.TempDir())
	return goldenCell{Steps: steps, Digests: map[string]string{
		"verdict":  verdict,
		"blackbox": sha(box),
	}}
}

// goldenHotplug is a traced replay of the hot-plug reproducer: a CPU
// fail-stops mid-run and revives, and the trace must still balance.
func goldenHotplug(t *testing.T) goldenCell {
	tr, steps := tracedReplay(t, filepath.Join("testdata", "corpus", "hotplug-stale-revive.json"))
	return goldenCell{Steps: steps, Digests: map[string]string{
		"trace.json": sha(render(t, tr.WriteChromeTrace)),
	}}
}

// goldenPools runs the pools experiment traced and profiled. Pools builds
// bare machines with no kernel to ask, so its step count is read from
// the trace: the engine logs one "run" instant per step.
func goldenPools(t *testing.T) goldenCell {
	tr, err := trace.New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New()
	r, err := Pools(42, 8, Instrument{Observers: machine.Observers{Tracer: tr, Profiler: p}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() > 0 {
		t.Fatalf("trace ring dropped %d events; grow it", tr.Dropped())
	}
	var steps uint64
	for _, ev := range tr.Select(trace.CatSim) {
		if ev.Name == "run" {
			steps++
		}
	}
	return goldenCell{Steps: steps, Digests: map[string]string{
		"result.json":     sha(jsonBytes(t, r)),
		"trace.json":      sha(render(t, tr.WriteChromeTrace)),
		"folded.txt":      sha(render(t, p.WriteFolded)),
		"shootdowns.json": sha(render(t, p.WriteShootdowns)),
	}}
}

// goldenCampaign pins one chaos campaign: its result JSON, its rendered
// text, and the engine steps summed over the campaign runs it observed
// (shrink re-executions are not observed). No wall clock is passed, so
// the reproducers' wall_ms stays zero.
func goldenCampaign[R interface{ Render() string }](campaign func(Instrument) (R, error)) func(*testing.T) goldenCell {
	return func(t *testing.T) goldenCell {
		var steps uint64
		r, err := campaign(Instrument{Observe: func(k *kernel.Kernel) { steps += k.Eng.StepCount() }})
		if err != nil {
			t.Fatal(err)
		}
		return goldenCell{Steps: steps, Digests: map[string]string{
			"result.json": sha(jsonBytes(t, r)),
			"render.txt":  sha([]byte(r.Render())),
		}}
	}
}

// TestGoldenObservationPins reruns each pinned cell and compares its step
// count and artifact digests with the committed manifest. Regenerate with
// `go test ./internal/experiments -run GoldenObservationPins -update-golden`.
func TestGoldenObservationPins(t *testing.T) {
	cells := []struct {
		name string
		run  func(*testing.T) goldenCell
	}{
		{"dma-observed", goldenDMA},
		{"chaos-blackbox", goldenBlackBox},
		{"pools-traced", goldenPools},
		{"hotplug-traced", goldenHotplug},
		{"chaos", goldenCampaign(func(in Instrument) (ChaosResult, error) {
			return ChaosCampaign(7, ChaosOptions{}, in)
		})},
		{"chaos-bug-shrink", goldenCampaign(func(in Instrument) (ChaosResult, error) {
			return ChaosCampaign(7, ChaosOptions{PlantBug: true, Shrink: true}, in)
		})},
		{"devices", goldenCampaign(func(in Instrument) (DeviceChaosResult, error) {
			return DeviceChaosCampaign(7, DeviceChaosOptions{}, in)
		})},
		{"devices-bug-shrink", goldenCampaign(func(in Instrument) (DeviceChaosResult, error) {
			return DeviceChaosCampaign(7, DeviceChaosOptions{PlantBug: true, Shrink: true}, in)
		})},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) { checkGolden(t, c.name, c.run(t)) })
	}
}

// stepCounter returns an instrument that sums the engine steps of every
// kernel the experiment runs, for pinning an experiment inside the test
// that already runs it.
func stepCounter() (Instrument, *uint64) {
	steps := new(uint64)
	return Instrument{Observe: func(k *kernel.Kernel) { *steps += k.Eng.StepCount() }}, steps
}

// checkGolden compares cell g with the manifest's pin for name. Under
// -update-golden it instead merges g into the manifest, leaving every
// other cell as committed, so regenerating one cell never drops the
// pins of tests that did not run.
func checkGolden(t *testing.T, name string, g goldenCell) {
	t.Helper()
	manifest := map[string]goldenCell{}
	raw, err := os.ReadFile(goldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &manifest); err != nil {
			t.Fatal(err)
		}
	case !*updateGolden:
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if *updateGolden {
		if t.Failed() {
			return
		}
		manifest[name] = g
		raw, err := json.MarshalIndent(manifest, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s to %s", name, goldenPath)
		return
	}
	w, ok := manifest[name]
	if !ok {
		t.Fatalf("no pin for %s in %s", name, goldenPath)
	}
	if g.Steps != w.Steps {
		t.Errorf("engine steps = %d, pinned %d: the runs diverged", g.Steps, w.Steps)
	}
	var names []string
	for n := range w.Digests {
		names = append(names, n)
	}
	for n := range g.Digests {
		if _, ok := w.Digests[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if g.Digests[n] != w.Digests[n] {
			t.Errorf("%s: got %q, pinned %q", n, g.Digests[n], w.Digests[n])
		}
	}
}
