package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// unitOf names the unit of every metric the benchmark can report.
var unitOf = map[string]string{
	// End to end (untraced run).
	"wall_s":            "s",
	"events_per_s":      "1/s",
	"setup_s":           "s",
	"alloc_mb":          "MB",
	"allocs_m":          "M",
	"peak_rss_mb":       "MB",
	"ok_frac":           "ratio",
	"virt_shootdown_us": "us",
	"virt_runtime_ms":   "ms",
	"paper_err_pct":     "%",

	// Per layer (traced run).
	"sim.steps":                "count",
	"sim.ties":                 "count",
	"sim.chaos_draws":          "count",
	"sim.ns_per_step":          "ns",
	"sim.switch_ns":            "ns",
	"kernel.build_ms":          "ms",
	"kernel.worlds":            "count",
	"xpr.records":              "count",
	"xpr.dropped":              "count",
	"tlb.probes":               "count",
	"tlb.misses":               "count",
	"tlb.miss_ratio":           "ratio",
	"tlb.flushes":              "count",
	"tlb.invalidates":          "count",
	"tlb.writebacks":           "count",
	"bus.util":                 "ratio",
	"tlb.probe_ns":             "ns",
	"ptable.walk_ns":           "ns",
	"machine.access_ns":        "ns",
	"core.syncs":               "count",
	"core.remote_frac":         "ratio",
	"core.ipis_sent":           "count",
	"core.ipi_coalesce_ratio":  "ratio",
	"core.idle_skipped":        "count",
	"core.responses":           "count",
	"core.full_flushes":        "count",
	"core.entries_invalidated": "count",
	"core.dev_invals_posted":   "count",
	"pmap.syncs_invoked":       "count",
	"pmap.lazy_skip_ratio":     "ratio",
	"trace.events":             "count",
	"trace.dropped":            "count",
	"trace.export_ms":          "ms",
	"profile.export_ms":        "ms",
	"oracle.use_checks":        "count",
	"oracle.violations":        "count",
	"snap.capture_ms":          "ms",
	"snap.bytes":               "B",
	"dev.completions":          "count",
	"dev.pin_waits":            "count",
	"gc.cycles":                "count",
	"host.model_ns_per_step":   "ns",
	"host.residual_pct":        "%",
	"bench.trace_overhead_pct": "%",
	"fail_frac":                "ratio",
	"virt.shootdown_median_us": "us",
	"virt.shootdown_tail_us":   "us",
	"host.retained_mb":         "MB",
}

// spanNames are the traced spans whose self time is reported as
// span.<name>.self_ms. The snapshot and export spans are reported as
// snap.capture_ms, trace.export_ms and profile.export_ms instead.
var spanNames = []string{"iteration", "experiment", "observe", "encode", "build", "run_segment", "continue"}

func init() {
	for _, n := range spanNames {
		unitOf["span."+n+".self_ms"] = "ms"
	}
}

// samplesOf collects f over the iterations that pass keep.
func samplesOf(iters []iteration, keep func(iteration) bool, f func(iteration) float64) []float64 {
	var xs []float64
	for _, it := range iters {
		if keep(it) {
			xs = append(xs, f(it))
		}
	}
	return xs
}

func untraced(it iteration) bool { return !it.Traced }
func traced(it iteration) bool   { return it.Traced }
func anyIter(iteration) bool     { return true }

// metrics computes the reported metrics: end to end from the untraced
// iterations, per layer (traced mode) from the counts, probes and spans.
func (r *result) metrics() report {
	rep := report{Attempted: len(r.iters), Metrics: map[string]metric{}}
	for _, it := range r.iters {
		if it.Failure != "" {
			rep.Failed++
		}
	}
	rep.Correct = rep.Failed == 0
	set := func(name string, v float64, n int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[name] = metric{Value: v, Unit: unitOf[name]}
		r.samples[name] = n
	}
	med := func(name string, xs []float64, scale float64) {
		set(name, median(xs)*scale, len(xs))
	}
	walls := samplesOf(r.iters, untraced, func(it iteration) float64 { return it.WallS })
	first := r.iters[0]
	steps := float64(first.Counts["sim.steps"])
	failFrac := float64(rep.Failed) / float64(rep.Attempted)

	if !r.cfg.trace {
		med("wall_s", walls, 1)
		med("events_per_s", samplesOf(r.iters, untraced, func(it iteration) float64 {
			return float64(it.Counts["sim.steps"]) / it.WallS
		}), 1)
		med("setup_s", r.setupS, 1)
		med("alloc_mb", samplesOf(r.iters, untraced, func(it iteration) float64 { return float64(it.AllocB) }), 1e-6)
		med("allocs_m", samplesOf(r.iters, untraced, func(it iteration) float64 { return float64(it.Allocs) }), 1e-6)
		set("peak_rss_mb", r.peakRSSMB, 1)
		set("ok_frac", 1-failFrac, rep.Attempted)
		// The virtual metrics are deterministic: one iteration gives them.
		// The latency is a mean because observed-dma's is bimodal, and its
		// median flips between the modes from seed to seed.
		set("virt_shootdown_us", mean(first.shootUS), len(first.shootUS))
		set("virt_runtime_ms", float64(first.Counts["virt.ns"])/1e6, 1)
		set("paper_err_pct", 100*first.fitErr, 1)
		return rep
	}

	c := first.Counts
	count := func(name string) { set(name, float64(c[name]), 1) }
	for _, n := range []string{
		"sim.steps", "sim.ties", "sim.chaos_draws", "kernel.worlds", "xpr.records", "xpr.dropped",
		"tlb.probes", "tlb.misses", "tlb.flushes", "tlb.invalidates", "tlb.writebacks",
		"core.syncs", "core.ipis_sent", "core.idle_skipped", "core.responses", "core.full_flushes",
		"core.entries_invalidated", "core.dev_invals_posted", "pmap.syncs_invoked",
		"trace.events", "trace.dropped", "oracle.use_checks", "oracle.violations",
		"snap.bytes", "dev.completions", "dev.pin_waits",
	} {
		count(n)
	}
	f := func(name string) float64 { return float64(c[name]) }
	set("tlb.miss_ratio", ratio(f("tlb.misses"), f("tlb.probes")), 1)
	set("bus.util", first.BusUtil, 1)
	set("core.remote_frac", ratio(f("core.remote"), f("core.syncs")), 1)
	set("core.ipi_coalesce_ratio", ratio(f("core.ipis_coalesced"), f("core.ipis_sent")+f("core.ipis_coalesced")), 1)
	set("pmap.lazy_skip_ratio", ratio(f("pmap.lazy_skips"),
		f("pmap.lazy_skips")+f("pmap.structural_skips")+f("pmap.syncs_invoked")), 1)
	for _, n := range []string{"sim.switch_ns", "tlb.probe_ns", "ptable.walk_ns", "machine.access_ns"} {
		set(n, r.probes[n], probeReps)
	}
	set("kernel.build_ms", r.probes["kernel.build_ms"], buildReps)
	phase := func(name, phase string) {
		med(name, samplesOf(r.iters, anyIter, func(it iteration) float64 { return it.Phases[phase] }), 1)
	}
	phase("trace.export_ms", "export_trace")
	phase("profile.export_ms", "export_profile")
	phase("snap.capture_ms", "snapshot")
	med("gc.cycles", samplesOf(r.iters, untraced, func(it iteration) float64 { return float64(it.GCs) }), 1)

	// Run time is the part of an iteration the engine runs in: all of it,
	// except observed-dma's build, snapshot and export stages.
	runs := samplesOf(r.iters, untraced, func(it iteration) float64 {
		if it.Phases == nil {
			return it.WallS * 1e9
		}
		return (it.Phases["run_segment"] + it.Phases["continue"]) * 1e6
	})
	runNS := median(runs)
	set("sim.ns_per_step", ratio(runNS, steps), len(runs))
	model := steps*r.probes["sim.switch_ns"] + f("tlb.probes")*r.probes["tlb.probe_ns"] +
		f("tlb.misses")*r.probes["ptable.walk_ns"]
	if first.Phases == nil { // the world builds are inside the run time
		model += f("kernel.worlds") * r.probes["kernel.build_ms"] * 1e6
	}
	set("host.model_ns_per_step", ratio(model, steps), len(runs))
	set("host.residual_pct", 100*ratio(runNS-model, runNS), len(runs))
	tracedWalls := samplesOf(r.iters, traced, func(it iteration) float64 { return it.WallS })
	set("bench.trace_overhead_pct", 100*ratio(median(tracedWalls)-median(walls), median(walls)), len(tracedWalls))
	set("fail_frac", failFrac, rep.Attempted)
	set("virt.shootdown_median_us", median(first.shootUS), len(first.shootUS))
	_, tailV := tail(first.shootUS)
	set("virt.shootdown_tail_us", tailV, len(first.shootUS))
	set("host.retained_mb", r.retainedMB, len(r.iters))
	self := r.spans.selfMS()
	for _, n := range spanNames {
		xs := self[n]
		if len(xs) == 0 {
			set("span."+n+".self_ms", 0, 0)
			continue
		}
		med("span."+n+".self_ms", xs, 1)
	}
	return rep
}

// print writes the human-readable report: provenance, every metric with
// its unit and sample count, and the failures.
func (r *result) print(out io.Writer) {
	p := r.prov
	mode := "end-to-end (untraced)"
	if r.cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g mode=%s\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, mode)
	fmt.Fprintf(out, "host: %s go=%s GOMAXPROCS=%d nproc=%d commit=%s\n",
		p.Host, p.GoVersion, p.GOMAXPROCS, p.NProc, p.Commit)
	fmt.Fprintf(out, "iterations: %d attempted, %d failed (closed loop, one caller)\n", r.report.Attempted, r.report.Failed)
	if r.cfg.workload != "fig2" && !r.cfg.trace {
		fmt.Fprintf(out, "note: paper_err_pct on %s scores its shootdowns against the Figure 2 line; "+
			"the paper has no reference for this workload, so its model is unvalidated here\n", r.cfg.workload)
	}
	names := make([]string, 0, len(r.report.Metrics))
	for n := range r.report.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.report.Metrics[n]
		fmt.Fprintf(out, "  %-26s %16.6g %-6s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
	if xs := r.iters[0].shootUS; len(xs) > 0 {
		p, v := tail(xs)
		fmt.Fprintf(out, "virtual shootdown latency: mean %.1f us, median %.1f us, p%g %.1f us (n=%d)\n",
			mean(xs), median(xs), 100*p, v, len(xs))
	}
	for i, it := range r.iters {
		if it.Failure != "" {
			fmt.Fprintf(out, "FAIL iteration %d: %s\n", i, firstLine(it.Failure))
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// runProbes measures the unit costs and the per-world build time.
func (r *result) runProbes(w workloadDef) error {
	probes := []struct {
		name string
		f    func() (float64, error)
	}{
		{"sim.switch_ns", switchNS},
		{"tlb.probe_ns", tlbProbeNS},
		{"ptable.walk_ns", walkNS},
		{"machine.access_ns", accessNS},
		{"kernel.build_ms", func() (float64, error) { return buildMS(w, r.cfg.seed) }},
	}
	for _, p := range probes {
		reps := probeReps
		if p.name == "kernel.build_ms" {
			// One build varies tenfold with page-fault and GC luck.
			reps = buildReps
		}
		v, err := medianOf(reps, p.f)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		r.probes[p.name] = v
	}
	return nil
}
