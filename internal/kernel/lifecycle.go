package kernel

import (
	"errors"
	"fmt"

	"shootdown/internal/sim"
)

// This file is the software half of processor fail-stop and hot-plug: the
// machine layer flips the hardware state (machine.FailCPU/OnlineCPU), and
// the lifecycle driver below performs the kernel-level recovery a real
// system's surviving processors would — reaping the thread that died with
// its CPU, waking its joiners, releasing its pmap membership, and, on
// revive, rebooting the processor through the same idle-loop path the
// bootstrap uses. The schedule itself comes from the fault injector's
// deterministic Plan, so every campaign replays bit-identically.

// ErrCPUFailed is stored on a thread that was running on a processor at
// the instant it fail-stopped. The thread's body never resumes (nothing
// unwinds — a fail-stop is not an exception), but joiners are released
// and observe this error.
var ErrCPUFailed = errors.New("kernel: processor fail-stopped under thread")

// startLifecycle spawns the fail/revive driver when the fault injector
// has a non-empty plan. Called from Run after the idle loops exist.
func (k *Kernel) startLifecycle() {
	plan := k.M.Faults().Plan(k.M.NumCPUs())
	if len(plan) == 0 {
		return
	}
	k.Eng.Spawn("lifecycle", func(p *sim.Proc) {
		for _, ev := range plan {
			if now := k.Eng.Now(); ev.At > now {
				p.Sleep(ev.At - now)
			}
			if k.stopping {
				return
			}
			k.M.Faults().NotePlanWake(ev)
			if ev.Online {
				k.reviveCPU(p, ev.CPU)
			} else {
				k.failCPU(ev.CPU)
			}
			k.M.Faults().NotePlanApplied(ev)
		}
	})
}

// failCPU fail-stops a processor and reaps the software that was on it.
// The hardware halt (machine.FailCPU) freezes the attached context in
// place: no defers run, spin locks it held stay held until a survivor
// breaks them. What the kernel must still do is account for the dead
// thread — it will never call exit(), so its joiners and the live count
// are settled here — and retire the CPU's idle proc.
func (k *Kernel) failCPU(cpu int) {
	if !k.M.FailCPU(cpu) {
		return
	}
	// The idle proc is either attached and spinning (machine.FailCPU
	// already halted it) or parked while a thread holds the CPU; Kill is
	// idempotent either way.
	k.Eng.Kill(k.idleProcs[cpu])
	if t := k.current[cpu]; t != nil {
		k.Eng.Kill(t.proc)
		t.state = threadDone
		t.ex = nil
		if t.Err == nil {
			t.Err = ErrCPUFailed
		}
		// Release joiners directly onto the run queue: this runs at an
		// engine-serialized point, so no dispatcher is mid-update (the
		// same argument exit() makes).
		for _, j := range t.joiners {
			j.state = threadReady
			k.runq = append(k.runq, j)
		}
		t.joiners = nil
		k.current[cpu] = nil
		k.threadExited(t)
	}
	// Close whatever the CPU's timeline had open when it halted: its idle
	// or thread-run span and any interrupt or shootdown nested inside.
	k.M.Observers().Tracer.EndOpen(int64(k.Eng.Now()), cpu)
	k.Pmaps.OnCPUFail(cpu)
	k.Oracle.OnCPUFail(cpu)
}

// reviveCPU hot-plugs a failed processor back in. The machine layer has
// reset it (fresh incarnation, flushed TLB, no user context); the kernel
// reboots it the way the bootstrap path does — shootdown state reset to
// active-with-empty-queue from the processor itself, then a fresh idle
// loop, named for the incarnation so traces distinguish the lives.
func (k *Kernel) reviveCPU(p *sim.Proc, cpu int) {
	if !k.M.OnlineCPU(cpu) {
		return
	}
	k.Oracle.OnCPUOnline(cpu)
	if k.Shoot != nil {
		ex := k.M.Attach(p, cpu)
		k.Shoot.OnCPUOnline(ex)
		ex.Detach()
	}
	inc := k.M.CPU(cpu).Incarnation()
	k.idleProcs[cpu] = k.Eng.Spawn(fmt.Sprintf("idle%d.%d", cpu, inc), func(ip *sim.Proc) {
		k.idleLoop(ip, cpu)
	})
}
