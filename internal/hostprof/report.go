package hostprof

// The host-cost/v1 artifact: one JSON document per hostcost run carrying
// provenance, per-phase host seconds and allocator deltas, and the
// per-site attribution tables. tlbtrace hostcost renders and validates
// it; scripts/bench.sh embeds it in BENCH_<n>.json.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Format is the artifact format tag.
const Format = "host-cost/v1"

// Provenance records the environment the measurement ran in, so trend
// tables can flag environment changes before blaming the code.
type Provenance struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit,omitempty"`
}

// SiteCost is one simulator function's share of a phase's allocations,
// as the heap profile attributes them.
type SiteCost struct {
	// Site is the function ("internal/xpr.New"), Package its package
	// path ("internal/xpr"), Desc the source line within it that
	// allocated the most bytes ("xpr.go:81").
	Site    string `json:"site"`
	Package string `json:"package"`
	Desc    string `json:"desc"`
	// Count is objects allocated, Bytes their size, both scaled up from
	// the runtime's sampled heap profile.
	Count int64 `json:"count"`
	Bytes int64 `json:"bytes"`
	// Exact marks a row that counts toward coverage. Every
	// profile-derived row does.
	Exact bool `json:"exact"`
}

// PhaseCost is one measured phase: real seconds and allocator deltas from
// the host, and the heap profile's per-function attribution.
type PhaseCost struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	// MeasuredBytes/Mallocs are runtime.ReadMemStats deltas across the
	// phase (TotalAlloc / Mallocs).
	MeasuredBytes int64 `json:"measured_bytes"`
	Mallocs       int64 `json:"mallocs"`
	// CountedBytes is the byte total over exact sites — the coverage
	// numerator; CountedOps the object total over all sites.
	CountedBytes int64      `json:"counted_bytes"`
	CountedOps   int64      `json:"counted_ops"`
	Sites        []SiteCost `json:"sites,omitempty"`
	Err          string     `json:"err,omitempty"`
}

// Report is the host-cost/v1 document.
type Report struct {
	Format     string `json:"format"`
	Provenance `json:"provenance"`
	// Headline names the phase CoveragePct is computed on.
	Headline    string      `json:"headline"`
	CoveragePct float64     `json:"coverage_pct"`
	Phases      []PhaseCost `json:"phases"`
}

// phase returns the named phase, or nil.
func (r *Report) phase(name string) *PhaseCost {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			return &r.Phases[i]
		}
	}
	return nil
}

// HeadlinePhase returns the phase coverage is computed on, or nil.
func (r *Report) HeadlinePhase() *PhaseCost { return r.phase(r.Headline) }

// Load reads a host-cost/v1 artifact from path.
func Load(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Parse decodes a host-cost/v1 artifact. It checks only that the bytes
// are a JSON document of the right shape; Validate checks consistency.
func Parse(raw []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("not a host-cost report: %w", err)
	}
	return &r, nil
}

// Write emits the artifact as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Validate checks internal consistency: format tag, provenance, phase
// shape, a resolvable headline, and that the recorded coverage matches a
// recomputation from the headline phase.
func (r *Report) Validate() error {
	if r.Format != Format {
		return fmt.Errorf("format %q, want %q", r.Format, Format)
	}
	if r.GoVersion == "" || r.GOMAXPROCS <= 0 {
		return fmt.Errorf("missing provenance (go_version %q, gomaxprocs %d)", r.GoVersion, r.GOMAXPROCS)
	}
	if len(r.Phases) == 0 {
		return fmt.Errorf("no phases")
	}
	seen := map[string]bool{}
	for _, p := range r.Phases {
		if p.Name == "" {
			return fmt.Errorf("unnamed phase")
		}
		if seen[p.Name] {
			return fmt.Errorf("duplicate phase %q", p.Name)
		}
		seen[p.Name] = true
		if p.WallSeconds < 0 || p.MeasuredBytes < 0 || p.Mallocs < 0 || p.CountedBytes < 0 {
			return fmt.Errorf("phase %q: negative measurement", p.Name)
		}
		var exact int64
		for _, sc := range p.Sites {
			if sc.Count < 0 || sc.Bytes < 0 {
				return fmt.Errorf("phase %q site %q: negative tally", p.Name, sc.Site)
			}
			if sc.Exact {
				exact += sc.Bytes
			}
		}
		if exact != p.CountedBytes {
			return fmt.Errorf("phase %q: counted_bytes %d but exact sites sum to %d",
				p.Name, p.CountedBytes, exact)
		}
	}
	hp := r.HeadlinePhase()
	if hp == nil {
		return fmt.Errorf("headline phase %q not among the recorded phases", r.Headline)
	}
	if hp.MeasuredBytes > 0 {
		want := 100 * float64(hp.CountedBytes) / float64(hp.MeasuredBytes)
		if diff := r.CoveragePct - want; diff > 0.1 || diff < -0.1 {
			return fmt.Errorf("coverage_pct %.2f does not match headline phase (%.2f)", r.CoveragePct, want)
		}
	}
	return nil
}

// MaxCoveragePct is the coverage ceiling. Sampling noise can push a
// profile-derived attribution a little past 100% of the measured bytes;
// anything beyond this bound means the attribution overcounts — charging
// allocations from outside the phase, or the same bytes twice.
const MaxCoveragePct = 105

// CheckCoverage fails when the headline phase's coverage is below min
// percent — the CI floor keeping the attribution honest as hot paths move
// — or above MaxCoveragePct.
func (r *Report) CheckCoverage(min float64) error {
	hp := r.HeadlinePhase()
	if hp == nil {
		return fmt.Errorf("headline phase %q not recorded", r.Headline)
	}
	if hp.MeasuredBytes == 0 {
		return fmt.Errorf("headline phase %q measured zero bytes", r.Headline)
	}
	if r.CoveragePct < min {
		return fmt.Errorf("attribution coverage %.1f%% below the %.0f%% floor (counted %d of %d measured bytes in %q)",
			r.CoveragePct, min, hp.CountedBytes, hp.MeasuredBytes, r.Headline)
	}
	if r.CoveragePct > MaxCoveragePct {
		return fmt.Errorf("attribution coverage %.1f%% above the %d%% ceiling (counted %d of %d measured bytes in %q)",
			r.CoveragePct, MaxCoveragePct, hp.CountedBytes, hp.MeasuredBytes, r.Headline)
	}
	return nil
}

// Render formats the report for terminals: a provenance line, the
// per-phase table, and the headline phase's top-N allocating functions.
func (r *Report) Render(topN int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s · %s · GOMAXPROCS=%d · %d CPUs", r.Format, r.GoVersion, r.GOMAXPROCS, r.NumCPU)
	if r.Commit != "" {
		fmt.Fprintf(&b, " · commit %s", r.Commit)
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-12s %9s %13s %12s %13s %9s\n",
		"phase", "wall s", "measured MB", "mallocs", "counted MB", "coverage")
	for _, p := range r.Phases {
		cov := "-"
		if p.MeasuredBytes > 0 {
			cov = fmt.Sprintf("%7.1f%%", 100*float64(p.CountedBytes)/float64(p.MeasuredBytes))
		}
		mark := ""
		if p.Name == r.Headline {
			mark = "  «headline»"
		}
		if p.Err != "" {
			mark += "  ERR: " + p.Err
		}
		fmt.Fprintf(&b, "%-12s %9.3f %13.1f %12d %13.1f %9s%s\n",
			p.Name, p.WallSeconds, mb(p.MeasuredBytes), p.Mallocs, mb(p.CountedBytes), cov, mark)
	}
	hp := r.HeadlinePhase()
	if hp == nil || len(hp.Sites) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "\ntop %d allocating functions (%s phase, of %d):\n", minInt(topN, len(hp.Sites)), hp.Name, len(hp.Sites))
	fmt.Fprintf(&b, "  %-4s %-40s %12s %13s %7s  %s\n",
		"rank", "function", "objects", "bytes", "share", "hottest line")
	for i, sc := range hp.Sites {
		if i >= topN {
			break
		}
		share := "-"
		if hp.MeasuredBytes > 0 {
			share = fmt.Sprintf("%5.1f%%", 100*float64(sc.Bytes)/float64(hp.MeasuredBytes))
		}
		fmt.Fprintf(&b, "  %-4d %-40s %12d %13d %7s  %s\n",
			i+1, sc.Site, sc.Count, sc.Bytes, share, sc.Desc)
	}
	return b.String()
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
