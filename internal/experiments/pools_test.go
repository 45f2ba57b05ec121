package experiments

import (
	"testing"

	"shootdown/internal/machine"
	"shootdown/internal/profile"
)

// Pools attaches the whole observer bundle to its bare machines, like
// every kernel world: a supplied profiler sees the run's phases and
// reconstructs the critical path of its shootdowns.
func TestPoolsHonoursProfiler(t *testing.T) {
	p := profile.New()
	if _, err := Pools(42, 8, Instrument{Observers: machine.Observers{Profiler: p}}); err != nil {
		t.Fatal(err)
	}
	if len(p.Folded()) == 0 {
		t.Error("pools left the profiler's folded stacks empty")
	}
	if len(p.CriticalPaths()) == 0 {
		t.Error("pools recorded no shootdown with a critical path")
	}
}
