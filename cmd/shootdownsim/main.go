// Command shootdownsim regenerates the tables and figures of "Translation
// Lookaside Buffer Consistency: A Software Approach" (Black et al., ASPLOS
// 1989) on the simulated multiprocessor.
//
// Usage:
//
//	shootdownsim [flags] <experiment>...
//
// Experiments: fig2, table1, table2, table3, table4, overhead, perturb,
// scale, strategies, ipimodes, highprio, idleopt, threshold, queue,
// taggedtlb, pools, pageout, faults, chaos, devices, explore, timetravel,
// profile, all.
//
// -faults injects deterministic hardware faults (dropped/delayed IPIs, slow
// responders, bus jitter) into every kernel; -failstop and -hotplug add
// processor fail-stop and hot-plug faults; -oracle attaches an independent
// TLB-consistency checker that fails a run if any stale translation is
// granted. The faults experiment runs a full campaign of fault scenarios
// against the watchdog-hardened protocol; the chaos experiment runs
// fail-stop/hot-plug schedules against a churn workload and delta-debugs
// any failing schedule into a minimal reproducer, replayable with -repro.
// The explore experiment forks the schedule at racy shootdown tie decisions
// (DPOR-lite) hunting for interleaving-dependent violations; timetravel
// snapshots a run mid-flight and proves replay-based restore is
// byte-identical.
//
// -trace captures a Chrome trace-event (Perfetto) session timeline of every
// kernel the experiments build; -metrics writes a Prometheus-style counter
// and histogram snapshot; -profile writes the virtual-time profiler's
// folded stacks, per-CPU phase timeline, lock/bus contention profile, and
// per-shootdown critical paths into a directory; -format selects
// human-readable tables or machine-readable JSON/CSV.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"shootdown/internal/experiments"
	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/hostprof"
	"shootdown/internal/sim"
)

var (
	seed      = flag.Int64("seed", 42, "simulation seed (jitter, scheduling, workload randomness)")
	runs      = flag.Int("runs", 10, "runs per data point for the fig2/scale sweeps")
	format    = flag.String("format", "table", "result output format: table, json, or csv")
	faults    = flag.String("faults", "", `fault-injection spec applied to every kernel, e.g. "drop=0.1,delay=0.2,delaymax=2ms" (keys: drop, delay, delaymax, slow, slowmax, stuck, stuckfor, spurious, jitter, jittermax, failstop, failby, revive, reviveafter; "none" disables). The faults experiment adds this as a custom scenario.`)
	oracleOn  = flag.Bool("oracle", false, "attach the independent TLB-consistency oracle to every kernel; any stale translation granted fails the run")
	failstop  = flag.Bool("failstop", false, `processor fail-stop faults in every kernel (shorthand for -faults "failstop=0.9,failby=8ms"); failed CPUs stay down`)
	hotplug   = flag.Bool("hotplug", false, `fail-stop plus hot-plug: failed CPUs revive with a cold TLB (shorthand for -faults "failstop=0.9,failby=8ms,revive=1,reviveafter=4ms")`)
	repro     = flag.String("repro", "", "replay a minimized chaos reproducer JSON file (from the chaos or devices experiments or testdata corpus) and exit; exits non-zero if the replay diverges from the recorded verdict")
	chaosbug  = flag.Bool("chaosbug", false, "plant the intentional stale-translation bug in the chaos and devices experiments' runs (stale-TLB-after-revive and skip-dev-inval respectively), so the campaigns fail on purpose (pair with -flight to exercise the black-box path end to end)")
	devices   = flag.Int("devices", 2, "device-TLB count for the devices experiment's DMA-streaming workload")
	devfault  = flag.String("devfaults", "", `extra device-fault spec run as a custom scenario of the devices experiment, e.g. "devwedge=0.3,devstall=0.5,devstallmax=6ms" (keys: devstall, devstallmax, devdrop, devwedge, devreorder)`)
	budget    = flag.Int("explorebudget", 24, "schedule budget for the explore experiment: max forked schedules; same budget and seed explore the byte-identical set")
	travelAt  = flag.Duration("at", 5*time.Millisecond, "virtual-time instant the timetravel experiment snapshots and restores to")
	hostout   = flag.String("hostcost", "", "write the hostcost experiment's host-cost/v1 JSON artifact to this file")
	hostprofD = flag.String("hostprof", "", "also capture real cpu.pprof/heap.pprof profiles of the hostcost experiment into this directory")
	commit    = flag.String("commit", "", "commit hash stamped into the hostcost artifact's provenance")
)

// cli carries the shared -trace/-tracebuf/-metrics/-profile plumbing.
var cli = experiments.CLI{Tool: "shootdownsim"}

func init() { cli.RegisterFlags(flag.CommandLine, 1<<21) }

func usage() {
	fmt.Fprintf(os.Stderr, `usage: shootdownsim [flags] <experiment>...

Reproduces the evaluation of the Mach TLB shootdown paper (ASPLOS 1989)
on a simulated 16-processor Encore Multimax.

experiments:
  fig2        Figure 2: basic costs of TLB shootdown (1..15 processors)
  table1      Table 1: effect of lazy evaluation (Mach build, Parthenon)
  table2      Table 2: kernel pmap shootdowns, initiator side
  table3      Table 3: user pmap shootdowns, initiator side
  table4      Table 4: responder results
  overhead    Section 8: machine-wide overhead per application
  perturb     Section 6.1: instrumentation perturbation check
  scale       Sections 8/11: scaling to larger machines (measured, not
              just extrapolated)
  strategies  Ablation: shootdown vs hardware remote-invalidate vs
              postponed-IPI vs timer-flush
  ipimodes    Ablation: unicast vs multicast vs broadcast interrupts
  highprio    Ablation: high-priority software interrupt
  idleopt     Ablation: idle-processor optimization
  threshold   Ablation: invalidate-vs-flush threshold
  queue       Ablation: consistency-action queue sizing
  taggedtlb   Extension: ASID-tagged TLBs with lazy release (§10)
  pools       Extension: processor pools for NUMA machines (§8)
  pageout     Extension: pageout under memory pressure (§5)
  faults      Robustness: fault-injection campaign (dropped/delayed IPIs,
              slow/stuck responders) with watchdog recovery and the
              TLB-consistency oracle
  chaos       Robustness: processor fail-stop & hot-plug campaign against
              the churn workload, with delta-debugging minimization of any
              failing fault schedule (replay one with -repro)
  devices     Robustness: IOMMU/device-TLB chaos campaign against the
              DMA-streaming workload — stalled completions, deaf doorbells,
              wedged queues, and CPU fail-stop during a device stall — with
              the quarantine ladder armed and the stale-DMA oracle checking
              every transfer (-devices sets the device count, -devfaults
              adds a custom scenario)
  explore     Robustness: DPOR-lite schedule explorer — fork the run at
              every racy shootdown tie decision within -explorebudget,
              replay each fork down the other branch, and shrink any
              violation found via restore-to-prefix delta debugging
  timetravel  Robustness: snapshot the hot-plug churn run at -at virtual
              time, rebuild and replay a fresh world to the same event
              boundary, and verify restore is byte-identical (then verify
              both continuations match too)
  profile     Observability: the Figure 2 workload under the virtual-time
              profiler, every shootdown's critical path reconstructed and
              its cost attributed to phases (pair with -profile <dir>)
  hostcost    Observability: host-cost attribution — real wall time and
              heap bytes of the simulator itself, attributed to simulator
              functions from the Go heap profile, phase by phase (fig2,
              table1, snapshot). -hostcost <file> writes the host-cost/v1
              artifact; -hostprof <dir> adds cpu/heap pprof profiles
  all         everything above

flags:
`)
	flag.PrintDefaults()
}

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()

	// Observability hooks: one session tracer and one profiler shared by
	// every kernel the experiments (or a -repro replay) build, and a
	// metrics snapshot of the last completed run.
	inp, err := cli.Instrument()
	if err != nil {
		fmt.Fprintf(os.Stderr, "shootdownsim: %v\n", err)
		os.Exit(2)
	}
	if *repro != "" {
		replayRepro(*repro, *inp)
		return
	}
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch *format {
	case "table", "json", "csv":
	default:
		fmt.Fprintf(os.Stderr, "shootdownsim: unknown format %q (want table, json, or csv)\n", *format)
		os.Exit(2)
	}
	want := map[string]bool{}
	for _, a := range args {
		want[a] = true
	}
	all := want["all"]
	in := *inp
	if *faults != "" {
		fc, err := fault.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shootdownsim: -faults: %v\n", err)
			os.Exit(2)
		}
		fc.Seed = *seed
		in.Faults = &fc
	}
	if *failstop || *hotplug {
		fc := fault.Config{Seed: *seed}
		if in.Faults != nil {
			fc = *in.Faults
		}
		fc.FailStop, fc.FailStopBy = 0.9, 8_000_000
		if *hotplug {
			fc.Revive, fc.ReviveAfterMax = 1, 4_000_000
		}
		in.Faults = &fc
	}
	in.Oracle = *oracleOn

	// Wall clock injected into the shrink/explore campaigns: the simulated
	// packages may not read real time themselves, so package main hands
	// them a millisecond counter.
	progStart := time.Now()
	wallMS := func() int64 { return time.Since(progStart).Milliseconds() }

	// Tables 2-4 and the overhead analysis share one set of application
	// runs; compute them lazily and only once.
	var tables *experiments.TablesResult
	getTables := func() (*experiments.TablesResult, error) {
		if tables != nil {
			return tables, nil
		}
		r, err := experiments.Tables234(*seed, in)
		if err != nil {
			return nil, err
		}
		tables = &r
		return tables, nil
	}

	type job struct {
		name string
		run  func() (any, string, error)
	}
	jobs := []job{
		{"fig2", func() (any, string, error) {
			r, err := experiments.Fig2(*seed, *runs, in)
			return r, r.Render(), err
		}},
		{"table1", func() (any, string, error) {
			r, err := experiments.Table1(*seed, in)
			return r, r.Render(), err
		}},
		{"table2", func() (any, string, error) {
			r, err := getTables()
			if err != nil {
				return nil, "", err
			}
			return r, r.RenderTable2(), nil
		}},
		{"table3", func() (any, string, error) {
			r, err := getTables()
			if err != nil {
				return nil, "", err
			}
			return r, r.RenderTable3(), nil
		}},
		{"table4", func() (any, string, error) {
			r, err := getTables()
			if err != nil {
				return nil, "", err
			}
			return r, r.RenderTable4(), nil
		}},
		{"overhead", func() (any, string, error) {
			r, err := getTables()
			if err != nil {
				return nil, "", err
			}
			return r, r.RenderOverhead(), nil
		}},
		{"perturb", func() (any, string, error) {
			r, err := experiments.Perturbation(*seed, in)
			return r, r.Render(), err
		}},
		{"scale", func() (any, string, error) {
			r, err := experiments.Scale(*seed, *runs, in)
			return r, r.Render(), err
		}},
		{"strategies", func() (any, string, error) {
			r, err := experiments.StrategyCompare(*seed, nil, in)
			return r, r.Render(), err
		}},
		{"ipimodes", func() (any, string, error) {
			r, err := experiments.IPIModes(*seed, nil, in)
			return r, r.Render(), err
		}},
		{"highprio", func() (any, string, error) {
			r, err := experiments.HighPriorityIPI(*seed, in)
			return r, r.Render(), err
		}},
		{"idleopt", func() (any, string, error) {
			r, err := experiments.IdleOpt(*seed, in)
			return r, r.Render(), err
		}},
		{"threshold", func() (any, string, error) {
			r, err := experiments.FlushThreshold(*seed, 16, in)
			return r, r.Render(), err
		}},
		{"queue", func() (any, string, error) {
			r, err := experiments.QueueSize(*seed, in)
			return r, r.Render(), err
		}},
		{"taggedtlb", func() (any, string, error) {
			r, err := experiments.TaggedTLB(*seed, in)
			return r, r.Render(), err
		}},
		{"pools", func() (any, string, error) {
			r, err := experiments.Pools(*seed, 8, in)
			return r, r.Render(), err
		}},
		{"pageout", func() (any, string, error) {
			r, err := experiments.Pageout(*seed, in)
			return r, r.Render(), err
		}},
		{"faults", func() (any, string, error) {
			r, err := experiments.FaultCampaign(*seed, in)
			return r, r.Render(), err
		}},
		{"chaos", func() (any, string, error) {
			r, err := experiments.ChaosCampaign(*seed,
				experiments.ChaosOptions{Shrink: true, PlantBug: *chaosbug, WallClock: wallMS}, in)
			return r, r.Render(), err
		}},
		{"devices", func() (any, string, error) {
			r, err := experiments.DeviceChaosCampaign(*seed, experiments.DeviceChaosOptions{
				Devices:   *devices,
				Shrink:    true,
				PlantBug:  *chaosbug,
				ExtraSpec: *devfault,
				WallClock: wallMS,
			}, in)
			return r, r.Render(), err
		}},
		{"explore", func() (any, string, error) {
			r, err := experiments.ExploreCampaign(*seed,
				experiments.ExploreOptions{Budget: *budget, PlantBug: *chaosbug, WallClock: wallMS})
			return r, r.Render(), err
		}},
		{"timetravel", func() (any, string, error) {
			r, err := experiments.TimeTravel(*seed, sim.Time(*travelAt), 0)
			return r, r.Render(), err
		}},
		{"profile", func() (any, string, error) {
			r, err := experiments.Profile(*seed, *runs, in)
			return r, r.Render(), err
		}},
		{"hostcost", func() (any, string, error) {
			// The sampler reads the real clock, ReadMemStats, the heap
			// profile, and pprof — all banned inside the simulated
			// packages — so package main constructs it and injects it,
			// like the wall clock above.
			sampler := hostprof.NewSampler()
			if *hostprofD != "" {
				if err := sampler.StartProfiles(*hostprofD); err != nil {
					return nil, "", err
				}
			}
			r, err := experiments.HostCost(*seed, experiments.HostCostOptions{
				Sampler: sampler,
				Commit:  *commit,
			}, in)
			if *hostprofD != "" {
				if perr := sampler.StopProfiles(); perr != nil && err == nil {
					err = perr
				}
			}
			if err != nil {
				return nil, "", err
			}
			if *hostout != "" {
				if werr := writeHostCost(*hostout, r.Report); werr != nil {
					return nil, "", werr
				}
				fmt.Fprintf(os.Stderr, "shootdownsim: wrote host-cost artifact to %s\n", *hostout)
			}
			return r, r.Render(), nil
		}},
	}

	known := map[string]bool{"all": true}
	for _, j := range jobs {
		known[j.name] = true
	}
	for _, a := range args {
		if !known[a] {
			fmt.Fprintf(os.Stderr, "shootdownsim: unknown experiment %q\n\n", a)
			usage()
			os.Exit(2)
		}
	}

	var results []experiments.Named
	for _, j := range jobs {
		if !all && !want[j.name] {
			continue
		}
		start := time.Now()
		res, text, err := j.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "shootdownsim: %s: %v\n", j.name, err)
			os.Exit(1)
		}
		results = append(results, experiments.Named{Name: j.name, Result: res})
		if *format == "table" {
			fmt.Println(text)
			fmt.Printf("[%s completed in %.1fs wall clock]\n\n", j.name, time.Since(start).Seconds())
		}
	}

	switch *format {
	case "json":
		if err := experiments.WriteJSON(os.Stdout, experiments.Envelope{
			Seed: *seed, Runs: *runs, Experiments: results,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "shootdownsim: json: %v\n", err)
			os.Exit(1)
		}
	case "csv":
		if err := experiments.WriteCSV(os.Stdout, results); err != nil {
			fmt.Fprintf(os.Stderr, "shootdownsim: csv: %v\n", err)
			os.Exit(1)
		}
	}

	if err := cli.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "shootdownsim: %v\n", err)
		os.Exit(1)
	}
}

// writeHostCost writes the host-cost/v1 artifact to path.
func writeHostCost(path string, r *hostprof.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayRepro re-executes a minimized chaos reproducer under the CLI's
// observability hooks: exit 0 only if the replay reaches exactly the
// recorded verdict.
func replayRepro(path string, in experiments.Instrument) {
	r, err := shrink.Load(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shootdownsim: -repro: %v\n", err)
		os.Exit(2)
	}
	verdict, detail, err := experiments.ReplayRepro(r, in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shootdownsim: -repro: %v\n", err)
		os.Exit(2)
	}
	if err := cli.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "shootdownsim: %v\n", err)
		os.Exit(1)
	}
	keep := make([]string, len(r.Keep))
	for i, id := range r.Keep {
		keep[i] = id.String()
	}
	fmt.Printf("repro %s: workload=%s ncpus=%d seed=%d schedule=[%s]\n",
		path, r.Workload, r.NCPUs, r.Seed, strings.Join(keep, " "))
	if verdict == r.Verdict {
		fmt.Printf("replay reproduced the recorded verdict %q", verdict)
		if detail != "" {
			fmt.Printf(": %s", firstLine(detail))
		}
		fmt.Println()
		return
	}
	fmt.Printf("DIVERGENCE: replay verdict %q, recorded %q", verdict, r.Verdict)
	if detail != "" {
		fmt.Printf(" (%s)", firstLine(detail))
	}
	fmt.Println()
	os.Exit(1)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
