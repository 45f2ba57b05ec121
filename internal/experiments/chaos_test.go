package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"shootdown/internal/artifact"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
	"shootdown/internal/trace"
)

// TestChaosCampaignSurvivesWithoutBug is the tentpole acceptance run: with
// the protocol unmodified, every fail-stop and hot-plug scenario must end
// with a clean verdict and zero oracle violations — no shootdown ever
// waits on a dead processor, every revived TLB comes up cold.
func TestChaosCampaignSurvivesWithoutBug(t *testing.T) {
	res, err := ChaosCampaign(7, ChaosOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(chaosScenarios) {
		t.Fatalf("campaign ran %d scenarios, want %d", len(res.Runs), len(chaosScenarios))
	}
	sawFail, sawRevive := false, false
	for _, run := range res.Runs {
		if run.Verdict != VerdictOK {
			t.Errorf("%s: verdict %s: %s", run.Scenario, run.Verdict, run.Err)
		}
		if run.Violations != 0 {
			t.Errorf("%s: %d oracle violations", run.Scenario, run.Violations)
		}
		if run.Faults.FailStops > 0 {
			sawFail = true
		}
		if run.Faults.Revives > 0 {
			sawRevive = true
		}
	}
	if !sawFail || !sawRevive {
		t.Fatalf("campaign exercised no fail/revive (fail=%v revive=%v)", sawFail, sawRevive)
	}
}

// TestStaleReviveBugShrinks plants the stale-TLB-after-revive bug and
// requires the whole robustness loop to close: the oracle catches it, the
// shrinker minimizes the fault schedule to a handful of events, and the
// reproducer replays to the identical verdict.
func TestStaleReviveBugShrinks(t *testing.T) {
	res, err := ChaosCampaign(7, ChaosOptions{PlantBug: true, Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	var hit *ChaosRun
	for i := range res.Runs {
		if res.Runs[i].Verdict == VerdictOracle {
			hit = &res.Runs[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("planted bug never produced an oracle verdict: %+v", res.Runs)
	}
	if len(hit.Shrunk) == 0 || len(hit.Shrunk) > 5 {
		t.Fatalf("shrunk schedule has %d events (want 1..5): %v", len(hit.Shrunk), hit.Shrunk)
	}
	if hit.ScheduleLen <= len(hit.Shrunk) {
		t.Fatalf("shrinker did not reduce: %d -> %d", hit.ScheduleLen, len(hit.Shrunk))
	}
	if hit.Repro == nil {
		t.Fatal("failing run produced no reproducer")
	}
	// The reproducer replays deterministically: same verdict, twice.
	for i := 0; i < 2; i++ {
		verdict, detail, err := ReplayRepro(*hit.Repro)
		if err != nil {
			t.Fatal(err)
		}
		if verdict != hit.Verdict {
			t.Fatalf("replay %d diverged: verdict %s (%s), want %s", i, verdict, detail, hit.Verdict)
		}
	}
	// And the repro file round-trips.
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := shrink.Save(path, *hit.Repro); err != nil {
		t.Fatal(err)
	}
	loaded, err := shrink.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, *hit.Repro) {
		t.Fatal("reproducer changed across save/load")
	}
}

// TestCorpusReplay replays every committed reproducer in testdata/corpus:
// each must produce exactly its recorded verdict, so once-minimized bugs
// stay reproducible (and fixed bugs are flushed out by the divergence).
func TestCorpusReplay(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no corpus reproducers found under testdata/corpus")
	}
	for _, path := range paths {
		path := path
		t.Run(strings.TrimSuffix(filepath.Base(path), ".json"), func(t *testing.T) {
			r, err := shrink.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			verdict, detail, err := ReplayRepro(r)
			if err != nil {
				t.Fatal(err)
			}
			if verdict != r.Verdict {
				t.Fatalf("replay verdict %s (%s), recorded %s", verdict, detail, r.Verdict)
			}
		})
	}
}

// TestTracedReplayBalancesSpans replays every committed reproducer with a
// tracer attached. Each one fail-stops a processor mid-run, and every span
// a CPU timeline opens must still be closed, innermost first, by the end.
func TestTracedReplayBalancesSpans(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".json"), func(t *testing.T) {
			tracedReplay(t, path)
		})
	}
}

// tracedReplay replays the reproducer at path with a tracer attached,
// checks that every span it opened was closed, and returns the tracer
// and the replay's engine steps.
func tracedReplay(t *testing.T, path string) (*trace.Tracer, uint64) {
	t.Helper()
	r, err := shrink.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.New(1 << 18)
	if err != nil {
		t.Fatal(err)
	}
	in, steps := stepCounter()
	in.Tracer = tr
	if verdict, detail, err := ReplayRepro(r, in); err != nil {
		t.Fatal(err)
	} else if verdict != r.Verdict {
		t.Fatalf("replay verdict %s (%s), recorded %s", verdict, detail, r.Verdict)
	}
	if tr.Dropped() > 0 {
		t.Fatalf("trace ring dropped %d events; grow it", tr.Dropped())
	}
	checkSpansNest(t, tr.Events())
	return tr, *steps
}

// checkSpansNest asserts that on every timeline each end event closes the
// innermost open span, by name, and that no span is left open.
func checkSpansNest(t *testing.T, events []trace.Event) {
	t.Helper()
	var open [][]string // per CPU timeline, innermost last
	for _, ev := range events {
		if ev.Ph == trace.PhaseInstant || ev.CPU < 0 {
			continue
		}
		for int(ev.CPU) >= len(open) {
			open = append(open, nil)
		}
		st := open[ev.CPU]
		switch ev.Ph {
		case trace.PhaseBegin:
			open[ev.CPU] = append(st, ev.Name)
		case trace.PhaseEnd:
			if len(st) == 0 || st[len(st)-1] != ev.Name {
				t.Fatalf("cpu%d at %dns: end %q, open spans %q", ev.CPU, ev.TS, ev.Name, st)
			}
			open[ev.CPU] = st[:len(st)-1]
		}
	}
	for cpu, st := range open {
		if len(st) > 0 {
			t.Errorf("cpu%d: spans %q left open", cpu, st)
		}
	}
}

// A reproducer replayed with a flight recorder runs through Cell.Run's
// flight-armed path: the black box its violation trips carries the mid-run
// restore point, and the replay reaches its recorded verdict unchanged.
func TestReplayReproFlightCarriesRestorePoint(t *testing.T) {
	r, err := shrink.Load(filepath.Join("testdata", "corpus", "hotplug-stale-revive.json"))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := trace.NewRecorder(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fr.SetDir(dir)
	fr.SetMaxDumps(1)
	observed := 0
	in := Instrument{Observe: func(*kernel.Kernel) { observed++ }}
	in.Flight = fr
	verdict, detail, err := ReplayRepro(r, in)
	if err != nil {
		t.Fatal(err)
	}
	if verdict != r.Verdict {
		t.Fatalf("replay verdict %s (%s), recorded %s", verdict, detail, r.Verdict)
	}
	if observed != 1 {
		t.Fatalf("Observe saw %d kernels, want 1", observed)
	}
	boxes, err := filepath.Glob(filepath.Join(dir, "blackbox-*.json"))
	if err != nil || len(boxes) != 1 {
		t.Fatalf("flight recorder wrote %d black boxes (%v), want 1", len(boxes), err)
	}
	bb, err := artifact.LoadBlackBox(boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	s, ok, err := artifact.SnapshotFromBox(bb)
	if err != nil || !ok {
		t.Fatalf("SnapshotFromBox: ok=%v err=%v", ok, err)
	}
	if s.Step != 2000 {
		t.Fatalf("restore point at step %d, want 2000", s.Step)
	}
}

// TestRegenerateCorpus rebuilds the committed reproducers from scratch.
// Gated behind REGEN_CORPUS=1 so normal runs only replay; regenerate after
// deliberate protocol or injector changes (golden IDs shift) with:
//
//	REGEN_CORPUS=1 go test ./internal/experiments -run RegenerateCorpus
func TestRegenerateCorpus(t *testing.T) {
	//lint:allow simdeterminism REGEN_CORPUS gates a test-data regeneration tool, not a simulation result
	if os.Getenv("REGEN_CORPUS") == "" {
		t.Skip("set REGEN_CORPUS=1 to rewrite testdata/corpus")
	}
	res, err := ChaosCampaign(7, ChaosOptions{PlantBug: true, Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range res.Runs {
		if run.Repro == nil {
			continue
		}
		r := *run.Repro
		r.Note = "planted skip-revive-flush bug, minimized by the chaos campaign shrinker"
		name := strings.ReplaceAll(run.Scenario, "+", "-") + "-stale-revive.json"
		path := filepath.Join("testdata", "corpus", name)
		if err := shrink.Save(path, r); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events)", path, len(r.Keep))
	}
}
