package experiments

import (
	"fmt"

	"shootdown/internal/hostprof"
	"shootdown/internal/workload"
)

// HostCostOptions configures the host-cost experiment.
type HostCostOptions struct {
	// Sampler measures real wall time, allocator statistics and heap
	// profile attribution per phase.
	// It must be constructed by host-side code (package main calls
	// hostprof.NewSampler) and injected here: the simdeterminism analyzer
	// bans the constructor — and every other real-clock entry point —
	// inside this package.
	Sampler *hostprof.Sampler
	// Runs is the Fig2 repetition count; the default 3 matches
	// BenchmarkFig2BasicCost exactly, so the headline phase's measured
	// bytes line up with the benchmark's B/op.
	Runs int
	// Commit, when set, is stamped into the artifact's provenance.
	Commit string
}

// HostCostResult carries the sealed host-cost/v1 report.
type HostCostResult struct {
	Report *hostprof.Report
}

// Render prints the per-phase and top-site tables.
func (r HostCostResult) Render() string { return r.Report.Render(10) }

// snapPhasePauseStep matches the snapshot benchmarks' pause point, so the
// snapshot phase measures the same mid-run world they do.
const snapPhasePauseStep = 1000

// HostCost attributes the simulator's real heap and wall spend to its
// functions, from the runtime's heap profile. It runs three phases, each
// attributed against its own allocator delta:
//
//	fig2     — experiments.Fig2(seed, Runs): the headline phase. With the
//	           default Runs it is byte-for-byte the body of
//	           BenchmarkFig2BasicCost, so coverage (attributed bytes /
//	           measured bytes) is checked against the benchmark's B/op.
//	table1   — experiments.Table1(seed): the lazy-evaluation workloads.
//	snapshot — a paused churn world plus one whole-simulation snapshot,
//	           the unit the shrinker and explorer amortize.
//
// The returned report names the top allocating functions — where a 10×
// host speed overhaul must aim first.
func HostCost(seed int64, opts HostCostOptions, ins ...Instrument) (HostCostResult, error) {
	var out HostCostResult
	if opts.Sampler == nil {
		return out, fmt.Errorf("hostcost: no sampler (construct hostprof.NewSampler in package main and inject it)")
	}
	runs := opts.Runs
	if runs == 0 {
		runs = 3
	}
	in := pick(ins)

	if err := opts.Sampler.Phase("fig2", func() error {
		_, err := Fig2(seed, runs, in)
		return err
	}); err != nil {
		return out, fmt.Errorf("hostcost: fig2 phase: %w", err)
	}
	if err := opts.Sampler.Phase("table1", func() error {
		_, err := Table1(seed, in)
		return err
	}); err != nil {
		return out, fmt.Errorf("hostcost: table1 phase: %w", err)
	}
	if err := opts.Sampler.Phase("snapshot", func() error {
		k, err := workload.StartChurn(in.app(workload.AppConfig{
			NCPUs: 4, Seed: seed, Scale: 0.5, Oracle: true,
		}))
		if err != nil {
			return err
		}
		if err := k.RunToStep(snapPhasePauseStep); err != nil {
			return k.Finish(err)
		}
		if k.Eng.Stopped() || k.Eng.StepCount() < snapPhasePauseStep {
			return k.Finish(nil)
		}
		if _, err := k.Snapshot(); err != nil {
			return err
		}
		return k.ContinueRun()
	}); err != nil {
		return out, fmt.Errorf("hostcost: snapshot phase: %w", err)
	}

	rep, err := opts.Sampler.Report("fig2")
	if err != nil {
		return out, err
	}
	rep.Commit = opts.Commit
	out.Report = rep
	return out, nil
}
