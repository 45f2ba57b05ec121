package main

import (
	"math"

	"shootdown/internal/kernel"
	"shootdown/internal/tlb"
	"shootdown/internal/xpr"
)

// tally sums the simulator's own work counters over the worlds one
// iteration builds. It is filled from the public Stats() accessors after
// each world's run, so it sees exactly what the program counted.
type tally struct {
	// fitFromXPR scores every recorded shootdown against the paper's
	// Figure 2 line (workloads whose results carry no processor counts).
	fitFromXPR bool

	worlds, steps, ties, chaosDraws uint64
	xprRecords, xprDropped          uint64

	tlbHits, tlbMisses, tlbFlushes, tlbInvalidates, tlbWritebacks uint64

	virtNS    uint64
	busBusyNS float64

	syncs, remote, ipisSent, ipisCoalesced, idleSkipped, responses uint64
	fullFlushes, entriesInvalidated, devInvalsPosted               uint64

	pmapSyncs, pmapLazySkips, pmapStructuralSkips uint64

	oracleUseChecks, oracleViolations uint64
	traceEvents, traceDropped         uint64
	devCompletions, devPinWaits       uint64

	fitErrSum float64
	fitN      int
}

// paperFitUS is the paper's Figure 2 trend line: 430 + 55n µs for a
// shootdown involving n processors, fitted on n = 1..12.
func paperFitUS(n int) float64 { return 430 + 55*float64(n) }

// add harvests one finished world.
func (t *tally) add(k *kernel.Kernel) {
	t.worlds++
	t.steps += k.Eng.StepCount()
	t.ties += k.Eng.TieCount()
	t.chaosDraws += k.Eng.ChaosDraws()
	t.xprRecords += uint64(k.Trace.Len())
	t.xprDropped += k.Trace.Dropped()
	for i := 0; i < k.M.NumCPUs(); i++ {
		t.addTLB(k.M.CPU(i).TLB.Stats())
	}
	for i := 0; i < k.M.NumDevices(); i++ {
		d := k.M.Device(i)
		t.addTLB(d.TLB.Stats())
		s := d.Stats()
		t.devCompletions += s.Completions
		t.devPinWaits += s.PinWaits
	}
	now := k.Eng.Now()
	t.virtNS += uint64(now)
	t.busBusyNS += k.M.Bus.Utilization(now) * float64(now)
	if k.Shoot != nil {
		s := k.Shoot.Stats()
		t.syncs += s.Syncs
		t.remote += s.RemoteShootdowns
		t.ipisSent += s.IPIsSent
		t.ipisCoalesced += s.IPIsCoalesced
		t.idleSkipped += s.IdleSkipped
		t.responses += s.Responses
		t.fullFlushes += s.FullFlushes
		t.entriesInvalidated += s.EntriesInvalidated
		t.devInvalsPosted += s.DevInvalsPosted
	}
	p := k.Pmaps.Stats()
	t.pmapSyncs += p.SyncsInvoked
	t.pmapLazySkips += p.LazySkips
	t.pmapStructuralSkips += p.StructuralSkips
	if k.Oracle != nil {
		o := k.Oracle.Stats()
		t.oracleUseChecks += o.UseChecks + o.DevUseChecks
		t.oracleViolations += o.Violations
	}
	if tr := k.Tracer(); tr != nil {
		t.traceEvents += uint64(tr.Len())
		t.traceDropped += tr.Dropped()
	}
	if t.fitFromXPR {
		for _, ev := range k.Trace.Select(xpr.EvInitiator) {
			// A shootdown that waits on no other processor (a local or
			// device-only one) is scored as the paper's cheapest case, n = 1.
			_, _, procs, elapsed := ev.Initiator()
			fit := paperFitUS(max(procs, 1))
			t.fitErrSum += math.Abs(elapsed.Microseconds()-fit) / fit
			t.fitN++
		}
	}
}

func (t *tally) addTLB(s tlb.Stats) {
	t.tlbHits += s.Hits
	t.tlbMisses += s.Misses
	t.tlbFlushes += s.Flushes
	t.tlbInvalidates += s.Invalidates
	t.tlbWritebacks += s.Writebacks
}

// counts returns every work count the iteration produced. The simulator is
// deterministic, so each must repeat exactly across iterations and runs of
// one seed; a count that drifts is a failure, not noise.
func (t *tally) counts() map[string]uint64 {
	return map[string]uint64{
		"sim.steps":                t.steps,
		"sim.ties":                 t.ties,
		"sim.chaos_draws":          t.chaosDraws,
		"kernel.worlds":            t.worlds,
		"xpr.records":              t.xprRecords,
		"xpr.dropped":              t.xprDropped,
		"tlb.probes":               t.tlbHits + t.tlbMisses,
		"tlb.misses":               t.tlbMisses,
		"tlb.flushes":              t.tlbFlushes,
		"tlb.invalidates":          t.tlbInvalidates,
		"tlb.writebacks":           t.tlbWritebacks,
		"core.syncs":               t.syncs,
		"core.remote":              t.remote,
		"core.ipis_sent":           t.ipisSent,
		"core.ipis_coalesced":      t.ipisCoalesced,
		"core.idle_skipped":        t.idleSkipped,
		"core.responses":           t.responses,
		"core.full_flushes":        t.fullFlushes,
		"core.entries_invalidated": t.entriesInvalidated,
		"core.dev_invals_posted":   t.devInvalsPosted,
		"pmap.syncs_invoked":       t.pmapSyncs,
		"pmap.lazy_skips":          t.pmapLazySkips,
		"pmap.structural_skips":    t.pmapStructuralSkips,
		"oracle.use_checks":        t.oracleUseChecks,
		"oracle.violations":        t.oracleViolations,
		"trace.events":             t.traceEvents,
		"trace.dropped":            t.traceDropped,
		"dev.completions":          t.devCompletions,
		"dev.pin_waits":            t.devPinWaits,
		"virt.ns":                  t.virtNS,
	}
}
