package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"shootdown/internal/explore"
	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
)

// scenario is one row of a chaos campaign's table: a name and the fault
// spec its run injects.
type scenario struct {
	Name string
	Spec string
}

// campaignHead is the leading columns every chaos-campaign row shares.
// Rows embed it first, so encoding/json emits its fields in place.
type campaignHead struct {
	Scenario string
	Spec     string
	Bug      string `json:",omitempty"`

	Verdict string
	Err     string `json:",omitempty"`

	Faults fault.Stats
}

// campaignTail is the trailing columns every chaos-campaign row shares:
// the oracle's verdict and, when the run failed and shrinking was
// enabled, the shrink results.
type campaignTail struct {
	Violations uint64

	ScheduleLen int             `json:",omitempty"` // events in the failing schedule
	Shrunk      []fault.EventID `json:",omitempty"` // 1-minimal subset
	ShrinkTests int             `json:",omitempty"`
	Repro       *shrink.Repro   `json:",omitempty"`
}

func (h *campaignHead) head() *campaignHead { return h }
func (t *campaignTail) tail() *campaignTail { return t }

// campaignRow is a pointer to a campaign's row type, which embeds
// campaignHead and campaignTail around its own counters.
type campaignRow[R any] interface {
	*R
	head() *campaignHead
	tail() *campaignTail
}

// campaign is what a chaos campaign hands the shared driver: its scenario
// table, the fixture every scenario runs, and the shrink settings.
type campaign struct {
	kind      string // names the campaign in errors
	scenarios []scenario
	cell      explore.Cell // carries the campaign seed; Fault and Flight are set per scenario
	shrink    bool
	maxShrink int // default 48
	wallClock func() int64
}

// runCampaign runs every scenario of c: parse the spec, seed it at a 257
// stride from the campaign seed, run the cell flight-armed, and let
// harvest read the campaign's own counters off the finished kernel. A
// failing run is delta-debugged down to a 1-minimal fault schedule and
// packaged as a replayable reproducer.
func runCampaign[R any, P campaignRow[R]](c campaign, in Instrument, harvest func(P, *kernel.Kernel)) ([]R, error) {
	if c.maxShrink == 0 {
		c.maxShrink = 48
	}
	var rows []R
	for i, sc := range c.scenarios {
		fc, err := fault.ParseSpec(sc.Spec)
		if err != nil {
			return rows, fmt.Errorf("experiments: %s scenario %s: %w", c.kind, sc.Name, err)
		}
		fc.Seed = c.cell.Seed + int64(i)*257
		cell := c.cell
		cell.Fault = fc
		// Campaign runs arm only the flight recorder: a session tracer
		// would hand the recorder its ring and change every black box.
		cell.Flight = in.Flight

		var row R
		head, tail := P(&row).head(), P(&row).tail()
		*head = campaignHead{Scenario: sc.Name, Spec: sc.Spec, Bug: cell.BugName()}
		var endStep uint64
		verdict, detail, events := cell.Run(func(k *kernel.Kernel) {
			if in.Observe != nil {
				in.Observe(k)
			}
			endStep = k.Eng.StepCount()
			head.Faults = k.M.Faults().Stats()
			k.Oracle.Check()
			tail.Violations = k.Oracle.Stats().Violations
			harvest(&row, k)
		})
		head.Verdict, head.Err = verdict, detail
		if verdict != VerdictOK && c.shrink {
			tail.ScheduleLen = len(events)
			rw := explore.NewRewinder(cell, verdict, events, endStep)
			if c.wallClock != nil {
				rw.SetWallClock(c.wallClock)
			}
			r := rw.Minimize(c.maxShrink)
			tail.Shrunk = r.Keep
			tail.ShrinkTests = r.Tests
			repro := explore.BuildRepro(cell, verdict, events, r.Keep, r.Meta)
			tail.Repro = &repro
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// failures counts a campaign's non-ok runs.
func failures[R any, P campaignRow[R]](runs []R) int {
	n := 0
	for i := range runs {
		if P(&runs[i]).head().Verdict != VerdictOK {
			n++
		}
	}
	return n
}

// renderCampaign writes a campaign's table — scenario and verdict, the
// campaign's own columns, oracle violations and the shrink summary —
// then a FAIL line and minimal schedule per failing run, or the survived
// line when none failed.
func renderCampaign[R any, P campaignRow[R]](b *strings.Builder, runs []R, cols []string, vals func(P) []any, survived string) {
	w := tabwriter.NewWriter(b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "scenario\tverdict\t%s\toracle viol\tshrunk\n", strings.Join(cols, "\t"))
	for i := range runs {
		h, t := P(&runs[i]).head(), P(&runs[i]).tail()
		shrunk := "-"
		if h.Verdict != VerdictOK && t.ScheduleLen > 0 {
			shrunk = fmt.Sprintf("%d -> %d (%d runs)", t.ScheduleLen, len(t.Shrunk), t.ShrinkTests)
		}
		fmt.Fprintf(w, "%s\t%s\t", h.Scenario, h.Verdict)
		for _, v := range vals(&runs[i]) {
			fmt.Fprintf(w, "%d\t", v)
		}
		fmt.Fprintf(w, "%d\t%s\n", t.Violations, shrunk)
	}
	w.Flush()
	for i := range runs {
		h, t := P(&runs[i]).head(), P(&runs[i]).tail()
		if h.Verdict == VerdictOK {
			continue
		}
		fmt.Fprintf(b, "\nFAIL %s (%s): %s\n", h.Scenario, h.Verdict, firstLine(h.Err))
		if len(t.Shrunk) > 0 {
			ids := make([]string, len(t.Shrunk))
			for i, id := range t.Shrunk {
				ids[i] = id.String()
			}
			fmt.Fprintf(b, "  minimal schedule: %s\n", strings.Join(ids, " "))
		}
	}
	if failures[R, P](runs) == 0 {
		fmt.Fprintf(b, "\nall %d scenarios survived: %s\n", len(runs), survived)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
