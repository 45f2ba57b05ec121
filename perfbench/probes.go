package main

import (
	"fmt"
	"time"

	"shootdown/internal/kernel"
	"shootdown/internal/machine"
	"shootdown/internal/mem"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
)

// Unit probes time one layer operation in isolation, with the bodies of
// the repository's micro-benchmarks (BenchmarkSimEngineSwitch,
// BenchmarkTLBProbe, BenchmarkPageTableWalk, BenchmarkMachineMemoryAccess).
// Each probe is repeated and reported as the median of its repetitions.
const (
	probeReps = 5
	buildReps = 15
)

// sink keeps probed results live so the compiler cannot drop the calls.
var sink uint64

// medianOf runs probe reps times and returns the median of its results.
func medianOf(reps int, probe func() (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		x, err := probe()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// switchNS is host ns per engine step: one proc sleeping in a loop.
func switchNS() (float64, error) {
	const n = 100_000
	eng := sim.New()
	eng.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	t0 := time.Now()
	if err := eng.Run(); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// tlbProbeNS is host ns per TLB lookup in a full 64-entry buffer.
func tlbProbeNS() (float64, error) {
	const n = 2_000_000
	t := tlb.New(tlb.Config{Size: 64})
	for i := 0; i < 64; i++ {
		t.Insert(ptable.VAddr(i)<<mem.PageShift, tlb.ASIDNone, ptable.Make(mem.Frame(i), true))
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, ok := t.Probe(ptable.VAddr(i%64)<<mem.PageShift, tlb.ASIDNone); ok {
			sink++
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// walkNS is host ns per two-level page-table walk in simulated memory.
func walkNS() (float64, error) {
	const n = 2_000_000
	tab, err := ptable.New(mem.New(64))
	if err != nil {
		return 0, err
	}
	for i := 0; i < 16; i++ {
		if err := tab.Enter(ptable.VAddr(i)<<mem.PageShift, ptable.Make(mem.Frame(i), true)); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if pte, _, ok := tab.Lookup(ptable.VAddr(i%16) << mem.PageShift); ok {
			sink += uint64(pte)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// accessNS is host ns per simulated load through an Exec: TLB probe,
// protection check, data fetch and the virtual-time charge.
func accessNS() (float64, error) {
	const n = 50_000
	eng := sim.New()
	costs := machine.DefaultCosts()
	costs.JitterPct = 0
	m := machine.New(eng, machine.Options{NumCPUs: 1, MemFrames: 64, Costs: costs})
	tab, err := ptable.New(m.Phys)
	if err != nil {
		return 0, err
	}
	m.SetKernelTable(tab)
	va := machine.KernelBase + 0x1000
	f, err := m.Phys.AllocFrame()
	if err != nil {
		return 0, err
	}
	if err := tab.Enter(va, ptable.Make(f, true)); err != nil {
		return 0, err
	}
	var elapsed time.Duration
	var fault *machine.Fault
	eng.Spawn("reader", func(p *sim.Proc) {
		ex := m.Attach(p, 0)
		defer ex.Detach()
		t0 := time.Now()
		for i := 0; i < n && fault == nil; i++ {
			var v uint32
			v, fault = ex.Read(va)
			sink += uint64(v)
		}
		elapsed = time.Since(t0)
	})
	if err := eng.Run(); err != nil {
		return 0, err
	}
	if fault != nil {
		return 0, fmt.Errorf("access probe: %v", fault)
	}
	return float64(elapsed.Nanoseconds()) / n, nil
}

// newWorld builds a kernel of a workload's machine size, with the memory
// the workloads give it, without starting it.
func newWorld(w workloadDef, seed int64) (*kernel.Kernel, error) {
	return kernel.New(kernel.Config{Machine: machine.Options{
		NumCPUs: w.cpus, NumDevices: w.devices, MemFrames: 16384, Seed: seed,
	}})
}

// buildMS is host ms for one newWorld.
func buildMS(w workloadDef, seed int64) (float64, error) {
	t0 := time.Now()
	_, err := newWorld(w, seed)
	return float64(time.Since(t0).Nanoseconds()) / 1e6, err
}
