package main

import (
	"bytes"
	"fmt"
	"time"

	"shootdown/internal/experiments"
	"shootdown/internal/kernel"
	"shootdown/internal/profile"
	"shootdown/internal/trace"
	"shootdown/internal/workload"
)

// runCtx is what one iteration of a workload gets from the harness.
type runCtx struct {
	seed  int64
	tiny  bool // self-test size
	spans *spanLog
	tally *tally
}

// observe is the experiments' per-world hook: it harvests the world's
// counters, inside an "observe" span when tracing.
func (c *runCtx) observe(k *kernel.Kernel) {
	defer c.spans.begin("observe")()
	c.tally.add(k)
}

// output is what one iteration produced. docs (JSON-encoded first) and
// artifacts are digested after the timed part.
type output struct {
	docs      map[string]any
	artifacts map[string][]byte
	shootUS   []float64 // every shootdown's initiator latency, virtual µs
	// fitErr is the mean relative error against the paper's Figure 2 line
	// when the workload reports per-processor-count points itself.
	fitErr    float64
	phases    map[string]time.Duration // host time of observed-dma stages
	snaps     uint64
	snapBytes uint64
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	// cpus and devices size the machine the build probe constructs.
	cpus, devices int
	run           func(c *runCtx) (output, error)
}

var workloads = []workloadDef{
	{name: "fig2", cpus: 16, run: runFig2},
	{name: "table1", cpus: 16, run: runTable1},
	{name: "observed-dma", cpus: 8, devices: 2, run: runObservedDMA},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runFig2 is the body of BenchmarkFig2BasicCost: 45 fresh 16-CPU worlds,
// one k-processor shootdown each.
func runFig2(c *runCtx) (output, error) {
	runs := 3
	if c.tiny {
		runs = 1
	}
	end := c.spans.begin("experiment")
	r, err := experiments.Fig2(c.seed, runs, experiments.Instrument{Observe: c.observe})
	end()
	if err != nil {
		return output{}, err
	}
	if r.Dropped > 0 {
		return output{}, fmt.Errorf("fig2: %d xpr records dropped", r.Dropped)
	}
	out := output{docs: map[string]any{"result": r}}
	n := 0
	for _, p := range r.Points {
		out.shootUS = append(out.shootUS, p.Samples...)
		if p.Processors >= 1 && p.Processors <= 12 {
			fit := paperFitUS(p.Processors)
			out.fitErr += abs(p.MeanUS-fit) / fit
			n++
		}
	}
	out.fitErr /= float64(n)
	return out, nil
}

// runTable1 makes Table 1's four long uninstrumented application runs.
func runTable1(c *runCtx) (output, error) {
	c.tally.fitFromXPR = true
	end := c.spans.begin("experiment")
	var r experiments.Table1Result
	var err error
	if c.tiny {
		r, err = tinyTable1(c)
	} else {
		r, err = experiments.Table1(c.seed, experiments.Instrument{Observe: c.observe})
	}
	end()
	if err != nil {
		return output{}, err
	}
	out := output{docs: map[string]any{"result": r}}
	for _, apps := range [][2]workload.AppResult{r.Mach, r.Parthenon} {
		for _, a := range apps {
			if a.TraceDropped > 0 {
				return output{}, fmt.Errorf("table1: %s: %d xpr records dropped", a.Name, a.TraceDropped)
			}
			out.shootUS = append(append(out.shootUS, a.KernelInitUS...), a.UserInitUS...)
		}
	}
	return out, nil
}

// tinyTable1 is Table 1's structure at a fraction of its work, for the
// harness self-test.
func tinyTable1(c *runCtx) (experiments.Table1Result, error) {
	var r experiments.Table1Result
	for i, lazyOff := range []bool{false, true} {
		cfg := workload.AppConfig{Seed: c.seed, LazyDisabled: lazyOff, Scale: 0.05, Observe: c.observe}
		var err error
		if r.Mach[i], err = workload.RunMachBuild(cfg); err != nil {
			return r, err
		}
		if r.Parthenon[i], err = workload.RunParthenon(cfg); err != nil {
			return r, err
		}
	}
	return r, nil
}

const (
	dmaTraceRing  = 1 << 20
	dmaSegment    = 50_000 // engine events between snapshots
	dmaMaxPauses  = 16     // then the run is continued to its end
	dmaFlightRing = 1 << 10
)

// runObservedDMA runs the unmap-under-DMA workload with every observer
// armed, pausing for snapshots, and exports the trace and profile to
// memory.
func runObservedDMA(c *runCtx) (output, error) {
	c.tally.fitFromXPR = true
	out := output{phases: map[string]time.Duration{}, artifacts: map[string][]byte{}}
	timed := func(name string, f func() error) error {
		defer c.spans.begin(name)()
		t0 := time.Now()
		err := f()
		out.phases[name] += time.Since(t0)
		return err
	}
	scale := 64.0
	if c.tiny {
		scale = 2
	}
	var (
		cfg workload.AppConfig
		tr  *trace.Tracer
		pr  *profile.Profiler
		k   *kernel.Kernel
	)
	err := timed("build", func() error {
		var fr *trace.Recorder
		var err error
		if tr, fr, pr, err = newObservers(); err != nil {
			return err
		}
		cfg = workload.AppConfig{
			NCPUs: 8, NumDevices: 2, Seed: c.seed, Scale: scale,
			Oracle: true, Tracer: tr, Profiler: pr, Flight: fr, Observe: c.observe,
		}
		k, err = workload.StartDMA(cfg)
		return err
	})
	if err != nil {
		return output{}, err
	}
	var runErr error
	ended := false
	for pause := 1; pause <= dmaMaxPauses && !ended; pause++ {
		target := uint64(pause * dmaSegment)
		if err := timed("run_segment", func() error { return k.RunToStep(target) }); err != nil {
			runErr, ended = k.Finish(err), true
			break
		}
		if k.Eng.Stopped() || k.Eng.StepCount() < target {
			runErr, ended = k.Finish(nil), true
			break
		}
		if err := timed("snapshot", func() error { return snapshot(k, &out) }); err != nil {
			return output{}, err
		}
	}
	if !ended {
		runErr = timed("continue", k.ContinueRun)
	}
	res := workload.CollectDMA(cfg, k)
	if runErr != nil {
		return output{}, fmt.Errorf("observed-dma: %w", runErr)
	}
	if res.TraceDropped > 0 {
		return output{}, fmt.Errorf("observed-dma: %d xpr records dropped", res.TraceDropped)
	}
	if err := timed("snapshot", func() error { return snapshot(k, &out) }); err != nil {
		return output{}, err
	}
	var tbuf, pbuf bytes.Buffer
	if err := timed("export_trace", func() error { return tr.WriteChromeTrace(&tbuf) }); err != nil {
		return output{}, err
	}
	if err := timed("export_profile", func() error { return pr.WriteFolded(&pbuf) }); err != nil {
		return output{}, err
	}
	out.docs = map[string]any{"result": res, "snapshot": k.LastSnapshot()}
	out.artifacts["trace"] = tbuf.Bytes()
	out.artifacts["profile"] = pbuf.Bytes()
	out.shootUS = append(append(out.shootUS, res.KernelInitUS...), res.UserInitUS...)
	return out, nil
}

// newObservers allocates observed-dma's tracer, flight recorder and
// profiler. The recorder adopts the tracer as its ring when the kernel is
// built, so its own ring stays small.
func newObservers() (*trace.Tracer, *trace.Recorder, *profile.Profiler, error) {
	tr, err := trace.New(dmaTraceRing)
	if err != nil {
		return nil, nil, nil, err
	}
	fr, err := trace.NewRecorder(dmaFlightRing)
	if err != nil {
		return nil, nil, nil, err
	}
	return tr, fr, profile.New(), nil
}

// snapshot captures the paused world and tallies the capture's size.
func snapshot(k *kernel.Kernel, out *output) error {
	s, err := k.Snapshot()
	if err != nil {
		return err
	}
	out.snaps++
	for _, l := range s.Layers {
		out.snapBytes += uint64(len(l.Data))
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
