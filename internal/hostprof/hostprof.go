// Package hostprof is the host-cost observability layer: it attributes
// the simulator's *real* resource spend — heap bytes and wall time on the
// machine running the simulation — to the simulator functions that spend
// it, without touching the simulation itself.
//
// Every other instrument in this repo (tracer, virtual-time profiler,
// flight recorder) observes the simulated machine; hostprof turns the Go
// runtime's own instruments on the simulator, the way the paper split a
// shootdown's cost with the machine's xpr event recorder rather than
// with guesses. A Sampler phase (sampler.go) brackets a workload with
// runtime.GC and runtime.MemProfile, diffs the cumulative allocation
// records, scales each record by the runtime's sampling rate exactly as
// pprof does, and charges it to the innermost frame that belongs to one
// of the simulator's own packages (shootdown/internal/...).
//
// No simulated package calls into hostprof: the attribution comes from
// the runtime's heap profile, so there is nothing to thread through
// kernel builds and nothing to keep out of snapshots. The Sampler reads
// the real clock, runtime.ReadMemStats, runtime.MemProfile and
// runtime/pprof; those calls are banned inside the simulated packages by
// the simdeterminism analyzer — including the Sampler's constructor — so
// a Sampler can only be built by host-side code (package main) and
// injected, the same pattern as the shrink campaign's wall-clock
// injection.
package hostprof

import (
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// attributedPrefix selects the frames an allocation may be charged to:
// functions in the simulator's internal packages. modulePrefix is trimmed
// from the artifact's site and package names ("internal/xpr.New").
const (
	modulePrefix     = "shootdown/"
	attributedPrefix = modulePrefix + "internal/"
)

// bucketKey identifies one heap-profile bucket. The runtime keys buckets
// by stack and object size, so two records may share a stack; the size
// (AllocBytes / AllocObjects, exact within a bucket) tells them apart.
type bucketKey struct {
	stack [32]uintptr
	size  int64
}

func keyOf(r *runtime.MemProfileRecord) (bucketKey, bool) {
	if r.AllocObjects <= 0 {
		return bucketKey{}, false
	}
	return bucketKey{r.Stack0, r.AllocBytes / r.AllocObjects}, true
}

// attribute diffs two cumulative heap-profile snapshots and groups the
// scaled allocation deltas by the innermost simulator function on each
// stack. Allocations with no simulator frame in the recorded stack are
// left unattributed. Rows are ordered by bytes descending.
func attribute(before, after []runtime.MemProfileRecord, rate int) []SiteCost {
	prev := make(map[bucketKey]*runtime.MemProfileRecord, len(before))
	for i := range before {
		if k, ok := keyOf(&before[i]); ok {
			prev[k] = &before[i]
		}
	}
	type group struct {
		pkg           string
		objects, size float64
		lines         map[string]float64 // file:line -> bytes, for Desc
	}
	groups := map[string]*group{}
	for i := range after {
		r := &after[i]
		k, ok := keyOf(r)
		if !ok {
			continue
		}
		objects, bytes := r.AllocObjects, r.AllocBytes
		if p := prev[k]; p != nil {
			objects -= p.AllocObjects
			bytes -= p.AllocBytes
		}
		if objects <= 0 || bytes <= 0 {
			continue
		}
		f, ok := attributedFrame(r.Stack())
		if !ok {
			continue
		}
		site := strings.TrimPrefix(f.Function, modulePrefix)
		g := groups[site]
		if g == nil {
			g = &group{pkg: funcPackage(site), lines: map[string]float64{}}
			groups[site] = g
		}
		so, sb := scaleSample(objects, bytes, rate)
		g.objects += so
		g.size += sb
		g.lines[filepath.Base(f.File)+":"+strconv.Itoa(f.Line)] += sb
	}
	out := make([]SiteCost, 0, len(groups))
	for site, g := range groups {
		out = append(out, SiteCost{
			Site:    site,
			Package: g.pkg,
			Desc:    heaviestLine(g.lines),
			Count:   int64(math.Round(g.objects)),
			Bytes:   int64(math.Round(g.size)),
			Exact:   true,
		})
	}
	sort.Slice(out, func(i, j int) bool { return costLess(out[i], out[j]) })
	return out
}

// scaleSample undoes the runtime's allocation sampling the way pprof
// does: with one sample per rate bytes on average, an object of the
// bucket's average size was recorded with probability 1-e^(-size/rate).
func scaleSample(objects, bytes int64, rate int) (float64, float64) {
	if rate <= 1 {
		return float64(objects), float64(bytes)
	}
	avg := float64(bytes) / float64(objects)
	scale := 1 / (1 - math.Exp(-avg/float64(rate)))
	return float64(objects) * scale, float64(bytes) * scale
}

// attributedFrame returns the innermost frame of stack that belongs to a
// simulator package.
func attributedFrame(stack []uintptr) (runtime.Frame, bool) {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, attributedPrefix) {
			return f, true
		}
		if !more {
			return runtime.Frame{}, false
		}
	}
}

// funcPackage returns the package path of a qualified function name:
// "internal/sim.(*Engine).run" -> "internal/sim".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// heaviestLine returns the source line that allocated the most bytes,
// breaking ties by name so the choice is stable.
func heaviestLine(lines map[string]float64) string {
	best, bestBytes := "", -1.0
	for l, b := range lines {
		if b > bestBytes || (b == bestBytes && l < best) {
			best, bestBytes = l, b
		}
	}
	return best
}

// costLess orders site rows: bytes descending, then count descending,
// then name ascending.
func costLess(a, b SiteCost) bool {
	if a.Bytes != b.Bytes {
		return a.Bytes > b.Bytes
	}
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Site < b.Site
}
