// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in a closed loop (one caller, the next iteration starts
// when the previous one ends) for a fixed number of host seconds, checks
// every iteration's simulated output against reference digests, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// alternates untraced and traced iterations and reports the per-layer
// metrics: exact work counts, unit costs, span self times and the tracing
// overhead. See README.md in this directory.
//
// It drives the simulator only through public entry points and measures
// each layer from outside, so it changes no program code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

const defaultSeed = 42

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	refPath  string
	outDir   string
	tiny     bool
	// ref, when set, replaces the reference file (self-test).
	ref *reference
}

func main() {
	start := time.Now()
	var cfg config
	var traceN int
	var update bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: fig2, table1 or observed-dma")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "host seconds to measure")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.refPath, "ref", "perfbench/reference.json", "reference digests and counts")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/results", "directory for result files")
	flag.BoolVar(&update, "update-ref", false, "run one iteration and store its digests and counts as the workload's reference for -seed")
	flag.Parse()
	if traceN != 0 && traceN != 1 {
		fatalf("-trace must be 0 or 1")
	}
	cfg.trace = traceN == 1
	if _, ok := findWorkload(cfg.workload); !ok {
		fatalf("unknown -workload %q", cfg.workload)
	}
	if update {
		if err := updateReference(cfg); err != nil {
			fatalf("%v", err)
		}
		return
	}
	res, err := run(cfg, start)
	if err != nil {
		fatalf("%v", err)
	}
	res.print(os.Stdout)
	path, err := res.write(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("result file: %s\n", path)
	line, err := json.Marshal(res.report)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// iteration is one closed-loop call of the workload.
type iteration struct {
	Traced  bool               `json:"traced"`
	WallS   float64            `json:"wall_s"`
	AllocB  uint64             `json:"alloc_bytes"`
	Allocs  uint64             `json:"allocs"`
	GCs     uint32             `json:"gc_cycles"`
	BusUtil float64            `json:"bus_util"`
	Counts  map[string]uint64  `json:"counts"`
	Digests map[string]string  `json:"digests"`
	Phases  map[string]float64 `json:"phases_ms,omitempty"`
	Failure string             `json:"failure,omitempty"`

	shootUS []float64
	fitErr  float64
}

// result is everything one run measured.
type result struct {
	cfg         config
	prov        provenanceInfo
	setupS      []float64
	setupTotalS float64
	iters       []iteration
	probes      map[string]float64
	spans       *spanLog
	peakRSSMB   float64
	// retainedMB is the live heap each iteration leaves behind: finished
	// worlds stay reachable through their parked procs.
	retainedMB float64
	report     report
	samples    map[string]int // sample count behind each metric
}

// run executes the set-up, the measured loop and the checks.
func run(cfg config, start time.Time) (*result, error) {
	w, _ := findWorkload(cfg.workload)
	res := &result{cfg: cfg, prov: provenance(), probes: map[string]float64{}, samples: map[string]int{}}

	// Set-up: load the references and build the workload's world (with
	// its observers) several times; setup_s is the median.
	var ref *reference
	var kept []any
	for i := 0; i < setupReps; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		r, err := loadReference(cfg.refPath)
		if err != nil {
			return nil, err
		}
		built, err := setupWorld(w, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		kept = append(kept, built...)
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		ref = r
	}
	if cfg.ref != nil {
		ref = cfg.ref
	}
	if cfg.trace {
		if err := res.runProbes(w); err != nil {
			return nil, err
		}
		res.spans = newSpanLog()
	}
	res.setupTotalS = time.Since(start).Seconds()

	liveBefore := liveHeap()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		traced := cfg.trace && i%2 == 1
		res.iters = append(res.iters, iterate(w, cfg, traced, res.spans, i))
		if i == 0 {
			res.peakRSSMB = peakRSSMB()
		}
		done := i >= 1 || !cfg.trace
		if done && !time.Now().Before(deadline) {
			break
		}
	}
	res.retainedMB = float64(liveHeap()-liveBefore) / 1e6 / float64(len(res.iters))
	runtime.KeepAlive(kept)
	res.check(w, ref)
	res.report = res.metrics()
	return res, nil
}

const setupReps = 5

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// peakRSSMB is the process's peak resident memory so far. The run reads it
// after the first iteration: finished worlds stay reachable for the life
// of the process, so a later reading would grow with the number of
// iterations the host managed, not with what one iteration needs.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// setupWorld allocates what one iteration allocates before its world runs:
// the observers (observed-dma only) and a kernel of the workload's machine
// size. The kernel is built, not started, so it spawns no procs. The run
// keeps what set-up built until it ends, so that memory is never recycled
// into a measured iteration.
func setupWorld(w workloadDef, seed int64) ([]any, error) {
	var keep []any
	if w.name == "observed-dma" {
		tr, fr, pr, err := newObservers()
		if err != nil {
			return nil, err
		}
		keep = append(keep, tr, fr, pr)
	}
	k, err := newWorld(w, seed)
	return append(keep, k), err
}

// iterate runs one timed call of the workload and digests its outputs.
func iterate(w workloadDef, cfg config, traced bool, spans *spanLog, idx int) iteration {
	if !traced {
		spans = nil
	} else {
		spans.iter = idx
	}
	c := &runCtx{seed: cfg.seed, tiny: cfg.tiny, spans: spans, tally: &tally{}}
	// Every iteration starts from the same heap state: garbage collected
	// and free memory returned to the OS, so no iteration inherits pages
	// another one touched.
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	endIter := spans.begin("iteration")
	t0 := time.Now()
	out, err := w.run(c)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	it := iteration{
		Traced: traced,
		WallS:  wall.Seconds(),
		AllocB: m1.TotalAlloc - m0.TotalAlloc,
		Allocs: m1.Mallocs - m0.Mallocs,
		GCs:    m1.NumGC - m0.NumGC,
		Counts: c.tally.counts(),
		// Busy share of the virtual time summed over the worlds.
		BusUtil: ratio(c.tally.busBusyNS, float64(c.tally.virtNS)),

		shootUS: out.shootUS,
		fitErr:  out.fitErr,
	}
	if c.tally.fitN > 0 {
		it.fitErr = c.tally.fitErrSum / float64(c.tally.fitN)
	}
	it.Counts["snap.count"] = out.snaps
	it.Counts["snap.bytes"] = out.snapBytes
	if len(out.phases) > 0 {
		it.Phases = map[string]float64{}
		for name, d := range out.phases {
			it.Phases[name] = float64(d.Nanoseconds()) / 1e6
		}
	}
	if err != nil {
		it.Failure = err.Error()
	} else {
		endEnc := spans.begin("encode")
		it.Digests, err = digest(out)
		endEnc()
		if err != nil {
			it.Failure = err.Error()
		}
	}
	endIter()
	return it
}

// check fails every iteration whose outputs or counts differ from the
// reference (at the reference seed), from an earlier run of the same seed
// and sources in this checkout, or from the first iteration, or whose
// oracle saw a violation.
func (r *result) check(w workloadDef, ref *reference) {
	type expectation struct {
		from string
		run  referenceRun
	}
	var wants []expectation
	if run, ok := ref.lookup(w.name, r.cfg.seed); ok && (!r.cfg.tiny || r.cfg.ref != nil) {
		wants = append(wants, expectation{"reference", run})
	}
	if run, ok := priorRun(r.cfg, r.prov.SourceSHA256); ok {
		wants = append(wants, expectation{"an earlier run", run})
	}
	first := r.iters[0]
	for i := range r.iters {
		it := &r.iters[i]
		if it.Failure != "" {
			continue
		}
		var why []string
		if v := it.Counts["oracle.violations"]; v > 0 {
			why = append(why, fmt.Sprintf("%d oracle violations", v))
		}
		ws := wants
		if i > 0 {
			ws = append(ws, expectation{"the first iteration", referenceRun{first.Digests, first.Counts}})
		}
		for _, e := range ws {
			if bad := diffMaps(e.run.Digests, it.Digests); len(bad) > 0 {
				why = append(why, "digests differ from "+e.from+": "+strings.Join(bad, ","))
			}
			if e.run.Counts == nil {
				continue
			}
			if bad := diffMaps(e.run.Counts, it.Counts); len(bad) > 0 {
				why = append(why, "counts differ from "+e.from+": "+strings.Join(bad, ","))
			}
		}
		it.Failure = strings.Join(why, "; ")
	}
}

// priorRun returns the first iteration of an earlier run of the same
// workload and seed in the result directory, when that run came from the
// same sources and its first iteration passed.
func priorRun(cfg config, src string) (referenceRun, bool) {
	if cfg.tiny {
		return referenceRun{}, false
	}
	for _, traced := range []bool{false, true} {
		c := cfg
		c.trace = traced
		data, err := os.ReadFile(resultPath(c))
		if err != nil {
			continue
		}
		var doc struct {
			Provenance provenanceInfo `json:"provenance"`
			Iterations []iteration    `json:"iterations"`
		}
		if json.Unmarshal(data, &doc) != nil || doc.Provenance.SourceSHA256 != src ||
			len(doc.Iterations) == 0 || doc.Iterations[0].Failure != "" {
			continue
		}
		return referenceRun{Digests: doc.Iterations[0].Digests, Counts: doc.Iterations[0].Counts}, true
	}
	return referenceRun{}, false
}

// resultPath names a run's result file.
func resultPath(cfg config) string {
	mode := "e2e"
	if cfg.trace {
		mode = "traced"
	}
	return filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, mode))
}

// updateReference runs one full-size iteration and stores its digests and
// counts as the reference for the configured seed.
func updateReference(cfg config) error {
	w, _ := findWorkload(cfg.workload)
	it := iterate(w, cfg, false, nil, 0)
	if it.Failure != "" {
		return fmt.Errorf("%s: %s", w.name, it.Failure)
	}
	if v := it.Counts["oracle.violations"]; v > 0 {
		return fmt.Errorf("%s: %d oracle violations", w.name, v)
	}
	if err := writeReference(cfg.refPath, cfg.seed, w.name, referenceRun{Digests: it.Digests, Counts: it.Counts}); err != nil {
		return err
	}
	fmt.Printf("%s seed %d: stored %d digests and %d counts in %s\n",
		w.name, cfg.seed, len(it.Digests), len(it.Counts), cfg.refPath)
	return nil
}

// write stores the run's provenance, metrics, per-iteration samples and
// spans in the result directory.
func (r *result) write(cfg config) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	doc := map[string]any{
		"provenance":    r.prov,
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"report":        r.report,
		"samples":       r.samples,
		"setup_s":       r.setupS,
		"setup_total_s": r.setupTotalS,
		"probes":        r.probes,
		"iterations":    r.iters,
	}
	if r.spans != nil {
		doc["spans"] = r.spans.spans
		doc["span_self_ms"] = r.spans.selfMS()
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	path := resultPath(cfg)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
