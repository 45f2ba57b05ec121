// Package hostprof mirrors internal/hostprof for the fixtures: a
// host-side sampler whose constructor the analyzer bans outside package
// main. The ban matches the package by path suffix, so this
// lint.test/hostprof mirror triggers it exactly like the real package.
package hostprof

// Sampler is the host-side profiler: wall clock, heap stats, heap
// profile, pprof labels.
type Sampler struct{}

// NewSampler constructs a sampler. Only package main may call this.
func NewSampler() *Sampler { return &Sampler{} }

// Phase runs fn as one measured host-cost phase.
func (s *Sampler) Phase(name string, fn func() error) error { return fn() }
