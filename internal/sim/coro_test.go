package sim

import (
	"fmt"
	"strings"
	"testing"
)

// A proc spawned from inside another runs at its spawn time; one killed
// before its first run, or while it sleeps, never resumes. Every
// resumption is one step, so the step count is exact.
func TestSpawnedAndKilledProcsNeverResume(t *testing.T) {
	e := New()
	var log []string
	mark := func(p *Proc, what string) { log = append(log, fmt.Sprintf("%s@%d:%s", p.Name(), p.Clock(), what)) }
	sleeper := e.Spawn("sleeper", func(p *Proc) {
		mark(p, "start")
		p.Sleep(100)
		mark(p, "resumed") // killed while sleeping: never runs
	})
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		e.Spawn("child", func(c *Proc) { mark(c, "start") })
		doomed := e.Spawn("doomed", func(d *Proc) { mark(d, "start") })
		if !e.Kill(doomed) || !e.Kill(sleeper) {
			t.Error("Kill returned false for a queued proc")
		}
		mark(p, "killed")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "sleeper@0:start parent@10:killed child@10:start"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
	// sleeper once; parent twice (start, after its sleep); child once.
	if e.StepCount() != 4 {
		t.Fatalf("steps = %d, want 4", e.StepCount())
	}
	if sleeper.State() != StateHalted {
		t.Fatalf("sleeper state = %v, want halted", sleeper.State())
	}
	if live := e.LiveProcs(); len(live) != 0 {
		t.Fatalf("live procs after the run: %d", len(live))
	}
}

// chaosWorld spawns procs that sleep in lockstep (so most steps are chaos
// ties) and records every resumption and tie decision.
func chaosWorld(seed int64) (*Engine, *[]string) {
	e := New(WithChaos(seed))
	log := &[]string{}
	e.SetTieRecorder(func(d TieDecision) {
		*log = append(*log, fmt.Sprintf("tie%d step%d %v pick%d", d.Seq, d.Step, d.Tied, d.Pick))
	})
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 6; j++ {
				*log = append(*log, fmt.Sprintf("%s@%d", p.Name(), p.Clock()))
				p.Sleep(Time(10 * (1 + (j+p.ID())%2)))
			}
		})
	}
	return e, log
}

// Pausing with RunUntilStep and then running on gives the same steps and
// the same tie trace as an uninterrupted run.
func TestPausedRunMatchesUninterrupted(t *testing.T) {
	base, baseLog := chaosWorld(3)
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	if base.TieCount() == 0 {
		t.Fatal("the world made no tie decisions")
	}
	for _, pause := range []uint64{0, 1, 5, 13} {
		e, log := chaosWorld(3)
		if err := e.RunUntilStep(pause); err != nil {
			t.Fatal(err)
		}
		if e.StepCount() != pause {
			t.Fatalf("paused at step %d, want %d", e.StepCount(), pause)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if e.StepCount() != base.StepCount() || e.Now() != base.Now() || e.ChaosDraws() != base.ChaosDraws() {
			t.Fatalf("pause at %d: steps/now/draws = %d/%d/%d, uninterrupted %d/%d/%d", pause,
				e.StepCount(), e.Now(), e.ChaosDraws(), base.StepCount(), base.Now(), base.ChaosDraws())
		}
		if got, want := strings.Join(*log, "\n"), strings.Join(*baseLog, "\n"); got != want {
			t.Fatalf("pause at %d: trace differs:\n%s\nuninterrupted:\n%s", pause, got, want)
		}
	}
}

// stepAllocs returns the allocations of one engine step of e, in steady
// state.
func stepAllocs(e *Engine) float64 {
	return testing.AllocsPerRun(1000, func() {
		if err := e.RunUntilStep(e.StepCount() + 1); err != nil {
			panic(err)
		}
	})
}

// A Sleep round trip — engine resumes the proc, the proc reschedules
// itself and yields — allocates nothing once the run heap has grown.
func TestSleepRoundTripDoesNotAllocate(t *testing.T) {
	e := New()
	e.Spawn("looper", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	if a := stepAllocs(e); a != 0 {
		t.Fatalf("a Sleep round trip allocated %.1f objects, want 0", a)
	}
}

// A chaos tie among three procs, with no tie recorder, allocates nothing:
// pop reuses the engine's tie buffer.
func TestChaosTieDoesNotAllocate(t *testing.T) {
	e := New(WithChaos(1))
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for {
				p.Sleep(10)
			}
		})
	}
	ties := e.TieCount()
	if a := stepAllocs(e); a != 0 {
		t.Fatalf("a chaos tie step allocated %.1f objects, want 0", a)
	}
	// Of every three steps at one instant, the first two pick among ties.
	if got := e.TieCount() - ties; got < 600 {
		t.Fatalf("only %d tie decisions in 1000+ steps", got)
	}
}
