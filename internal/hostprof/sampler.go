package hostprof

// The Sampler is the host-side half of hostprof: real clock, real
// allocator statistics, the runtime heap profile, real pprof. None of
// this may run inside the simulated packages — the simdeterminism
// analyzer bans runtime/pprof, runtime.ReadMemStats, runtime.MemProfile,
// runtime.GC, and this package's constructors there — so a Sampler is
// built by package main and injected, exactly like the shrink campaign's
// wall-clock injection.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// Sampler measures phases of a host process: wall time, allocator deltas
// (runtime.ReadMemStats TotalAlloc/Mallocs), and the phase's heap-profile
// attribution to simulator functions. Each phase runs under a pprof label
// (phase=<name>), so externally captured CPU profiles slice by phase.
type Sampler struct {
	phases []PhaseCost

	profileDir string
	cpuFile    *os.File
}

// sampleRate is the heap-profile sampling interval, in bytes, that a
// Sampler reads its phases at. At the runtime's default of 512 KiB a
// phase that allocates a few tens of MB holds only ~100 samples, and
// their scaled-up estimate swings by ±10% from run to run; at 4 KiB it
// holds thousands.
const sampleRate = 4 << 10

// NewSampler returns an empty sampler and switches the process's heap
// profile to sampleRate. Host-side code only: the simdeterminism analyzer
// flags this call inside simulated packages.
func NewSampler() *Sampler {
	runtime.MemProfileRate = sampleRate
	return &Sampler{}
}

// Phase runs fn under the pprof label phase=<name> and records its wall
// seconds, allocator deltas, and the allocations the heap profile charges
// to each simulator function while fn ran. fn's error aborts the phase
// and is returned; the phase is still recorded so partial runs stay
// attributable.
//
// The profile is read at sampleRate (see NewSampler): a forced
// collection on each side of fn publishes every allocation made so far,
// and the diff of the two cumulative snapshots is scaled back up by the
// rate (see attribute). Each snapshot's own buffer lands outside the
// diff: the "before" buffer is allocated ahead of its collection, the
// "after" buffer behind it.
func (s *Sampler) Phase(name string, fn func() error) error {
	before := heapProfile(true)
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	var err error
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) {
		err = fn()
	})
	wall := time.Since(start)
	runtime.ReadMemStats(&msAfter)
	runtime.GC()
	after := heapProfile(false)
	pc := PhaseCost{
		Name:          name,
		WallSeconds:   wall.Seconds(),
		MeasuredBytes: int64(msAfter.TotalAlloc - msBefore.TotalAlloc),
		Mallocs:       int64(msAfter.Mallocs - msBefore.Mallocs),
		Sites:         attribute(before, after, runtime.MemProfileRate),
	}
	for _, sc := range pc.Sites {
		pc.CountedBytes += sc.Bytes
		pc.CountedOps += sc.Count
	}
	if err != nil {
		pc.Err = err.Error()
	}
	s.phases = append(s.phases, pc)
	return err
}

// heapProfile copies the runtime's cumulative heap-profile records. The
// profile holds allocations up to the last completed collection; with
// collect set, the record buffer is allocated first and a collection then
// publishes everything so far, the buffer included.
func heapProfile(collect bool) []runtime.MemProfileRecord {
	for {
		n, _ := runtime.MemProfile(nil, true)
		p := make([]runtime.MemProfileRecord, n+64)
		if collect {
			runtime.GC()
		}
		if n, ok := runtime.MemProfile(p, true); ok {
			return p[:n]
		}
	}
}

// Phases returns the recorded phases in execution order.
func (s *Sampler) Phases() []PhaseCost { return s.phases }

// StartProfiles begins a CPU profile into dir/cpu.pprof; StopProfiles
// ends it and writes dir/heap.pprof. Optional — a sampler without
// profiles still measures phases.
func (s *Sampler) StartProfiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("hostprof: start cpu profile: %w", err)
	}
	s.profileDir, s.cpuFile = dir, f
	return nil
}

// StopProfiles stops the CPU profile and writes the heap profile. No-op
// when StartProfiles was not called.
func (s *Sampler) StopProfiles() error {
	if s.cpuFile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := s.cpuFile.Close()
	s.cpuFile = nil
	hf, herr := os.Create(filepath.Join(s.profileDir, "heap.pprof"))
	if herr != nil {
		if err == nil {
			err = herr
		}
		return err
	}
	if werr := pprof.WriteHeapProfile(hf); werr != nil && err == nil {
		err = werr
	}
	if cerr := hf.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Report seals the sampler into a host-cost/v1 artifact. headline names
// the phase coverage is computed on (attributed bytes / measured bytes);
// it must be one of the recorded phases.
func (s *Sampler) Report(headline string) (*Report, error) {
	if len(s.phases) == 0 {
		return nil, fmt.Errorf("hostprof: no phases recorded")
	}
	r := &Report{
		Format: Format,
		Provenance: Provenance{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Headline: headline,
		Phases:   s.phases,
	}
	hp := r.phase(headline)
	if hp == nil {
		return nil, fmt.Errorf("hostprof: headline phase %q not recorded", headline)
	}
	if hp.MeasuredBytes > 0 {
		r.CoveragePct = 100 * float64(hp.CountedBytes) / float64(hp.MeasuredBytes)
	}
	return r, nil
}
