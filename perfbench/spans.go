package main

import (
	"sort"
	"time"
)

// span is one host-time interval around a call the harness makes into the
// simulator. Times are nanoseconds since the log's epoch.
type span struct {
	Name   string `json:"name"`
	Iter   int    `json:"iter"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the log, -1 for a root
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced iterations pay one nil check per call site.
type spanLog struct {
	epoch time.Time
	iter  int
	spans []span
	open  []int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func noop() {}

// begin opens a span under the innermost open one and returns the function
// that closes it.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return noop
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Iter: l.iter, Start: int64(time.Since(l.epoch)), Parent: parent})
	id := len(l.spans) - 1
	l.open = append(l.open, id)
	return func() {
		l.spans[id].End = int64(time.Since(l.epoch))
		l.open = l.open[:len(l.open)-1]
	}
}

// selfMS returns, per span name, the self time (duration minus the time its
// children cover) summed within each iteration, as one sample per
// iteration in milliseconds. Names absent from an iteration count as 0.
func (l *spanLog) selfMS() map[string][]float64 {
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	iters := map[int]bool{}
	per := map[string]map[int]int64{}
	for i, s := range l.spans {
		iters[s.Iter] = true
		if per[s.Name] == nil {
			per[s.Name] = map[int]int64{}
		}
		per[s.Name][s.Iter] += self[i]
	}
	order := make([]int, 0, len(iters))
	for it := range iters {
		order = append(order, it)
	}
	sort.Ints(order)
	out := map[string][]float64{}
	for name, byIter := range per {
		for _, it := range order {
			out[name] = append(out[name], float64(byIter[it])/1e6)
		}
	}
	return out
}
