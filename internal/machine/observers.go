package machine

import (
	"errors"
	"strings"

	"shootdown/internal/profile"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
	"shootdown/internal/trace"
)

// Observers is the bundle a world is observed through: the span tracer,
// the virtual-time profiler (DESIGN.md §12) and the flight recorder
// (§13). Options.Observers is the one place a world's observers are set;
// the engine, the shootdown protocol and the kernel read them back from
// the machine. Every member is optional and nil-safe, charges no virtual
// time and consumes no simulation randomness, so observed runs are
// bit-identical to unobserved ones.
type Observers struct {
	Tracer   *trace.Tracer
	Profiler *profile.Profiler
	Flight   *trace.Recorder
}

// BeginWorld readies a session's observers for a new world. Call it
// before building the world's engine, then hand the engine o.Tracer
// (sim.WithTracer) and the machine o. The flight recorder drops the
// previous world's state providers and shares the tracer's ring — or,
// with no tracer, lends its own ring as the world's tracer, so black
// boxes always carry recent events. The tracer and profiler rebase, so
// sequential worlds, each starting at virtual time zero, occupy disjoint
// stretches of one session timeline; label marks the boundary in the
// trace.
func (o *Observers) BeginWorld(label string) {
	if o.Flight != nil {
		o.Flight.BeginRun()
		if o.Tracer == nil {
			o.Tracer = o.Flight.Ring()
		} else {
			o.Flight.AttachRing(o.Tracer)
		}
	}
	o.Tracer.Rebase(label)
	o.Profiler.Rebase()
}

// attachObservers wires the machine's share of its observers: the
// profiler learns the interrupt latency it splits out of responder
// waits, and every TLB reports hits, misses, invalidations and flushes on
// its owner's trace timeline (a device's IOTLB on the device's own row
// above the CPU rows).
func (m *Machine) attachObservers() {
	m.prof.SetIRQLatency(int64(m.costs.IRQLatency))
	if m.tracer == nil {
		return
	}
	observe := func(tid int) func(tlb.Op, int) {
		return func(op tlb.Op, n int) {
			m.tracer.Instant(int64(m.Eng.Now()), tid, trace.CatTLB, op.String(), int64(n), 0)
		}
	}
	for _, c := range m.cpus {
		c.TLB.Observer = observe(c.id)
	}
	for _, d := range m.devs {
		d.TLB.Observer = observe(d.tid())
	}
}

// Observers returns the world's observer bundle.
func (m *Machine) Observers() Observers { return m.opts.Observers }

// EndWorld settles the observers once the world's engine stops; err is
// the engine's result. The profiler charges trailing time up to now, and
// a run that died trips the flight recorder: reason "deadlock",
// "timeout" (the virtual-time bound) or "error".
func (m *Machine) EndWorld(err error) {
	now := int64(m.Eng.Now())
	m.prof.FinishAt(now)
	if fr := m.opts.Observers.Flight; err != nil && fr != nil {
		reason := "error"
		switch {
		case errors.Is(err, sim.ErrDeadlock):
			reason = "deadlock"
		case strings.Contains(err.Error(), "virtual time limit"):
			reason = "timeout"
		}
		fr.Trip(now, reason, err.Error())
	}
}
