package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"shootdown/internal/hostprof"
)

// cmdHostCost renders and validates a host-cost/v1 artifact: the per-phase
// host seconds / allocator deltas and the top-N allocating functions, with
// an optional coverage gate against a `go test -bench` output file. Both
// coverage gates also fail above hostprof.MaxCoveragePct, so an
// attribution that overcounts fails as loudly as one that undercounts.
func cmdHostCost(args []string) error {
	fs := flag.NewFlagSet("hostcost", flag.ExitOnError)
	top := fs.Int("top", 10, "allocating functions to print per report")
	validate := fs.Bool("validate", false, "check the artifact's internal consistency (format tag, provenance, per-phase site sums, coverage recomputation)")
	minCov := fs.Float64("mincoverage", 0, "fail unless attribution coverage of the headline phase is at least this percentage (and at most the fixed ceiling)")
	benchFile := fs.String("bench", "", "go test -bench output file; fail unless the headline phase's counted bytes lie between -mincoverage percent (default 80) and the fixed ceiling of BenchmarkFig2BasicCost's measured B/op")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tlbtrace hostcost [-top N] [-validate] [-mincoverage pct] [-bench bench.txt] <host-cost.json>")
	}
	r, err := hostprof.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	if *validate {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("%s: %v", fs.Arg(0), err)
		}
		fmt.Printf("hostcost: %s: valid %s artifact, %d phases, headline %q\n",
			fs.Arg(0), r.Format, len(r.Phases), r.Headline)
	}
	if *minCov > 0 {
		if err := r.CheckCoverage(*minCov); err != nil {
			return fmt.Errorf("%s: %v", fs.Arg(0), err)
		}
		fmt.Printf("hostcost: coverage %.1f%% within [%.0f%%, %d%%]\n", r.CoveragePct, *minCov, hostprof.MaxCoveragePct)
	}
	if *benchFile != "" {
		floor := *minCov
		if floor == 0 {
			floor = 80
		}
		bop, err := benchBytesPerOp(*benchFile, "BenchmarkFig2BasicCost")
		if err != nil {
			return err
		}
		hp := r.HeadlinePhase()
		if hp == nil {
			return fmt.Errorf("%s: headline phase %q not in artifact", fs.Arg(0), r.Headline)
		}
		pct := 100 * float64(hp.CountedBytes) / float64(bop)
		if pct < floor {
			return fmt.Errorf("%s: headline phase %q counts %d B, only %.1f%% of BenchmarkFig2BasicCost's %d B/op (floor %.0f%%)",
				fs.Arg(0), hp.Name, hp.CountedBytes, pct, bop, floor)
		}
		if pct > hostprof.MaxCoveragePct {
			return fmt.Errorf("%s: headline phase %q counts %d B, %.1f%% of BenchmarkFig2BasicCost's %d B/op (ceiling %d%%)",
				fs.Arg(0), hp.Name, hp.CountedBytes, pct, bop, hostprof.MaxCoveragePct)
		}
		fmt.Printf("hostcost: headline counts %.1f%% of BenchmarkFig2BasicCost's %d B/op (within [%.0f%%, %d%%])\n",
			pct, bop, floor, hostprof.MaxCoveragePct)
	}
	fmt.Print(r.Render(*top))
	return nil
}

// benchBytesPerOp extracts the B/op metric for the named benchmark from a
// `go test -bench -benchmem` output file. Sub-benchmark suffixes
// (Benchmark<name>-<GOMAXPROCS>) are matched; the first matching line wins.
func benchBytesPerOp(path, name string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], name) {
			continue
		}
		// Name must be exact up to a -GOMAXPROCS suffix, not a prefix of a
		// longer benchmark name.
		if rest := fields[0][len(name):]; rest != "" && !strings.HasPrefix(rest, "-") {
			continue
		}
		for i := 2; i < len(fields)-1; i++ {
			if fields[i+1] == "B/op" {
				v, err := strconv.ParseInt(fields[i], 10, 64)
				if err != nil {
					return 0, fmt.Errorf("%s: bad B/op value %q for %s", path, fields[i], name)
				}
				return v, nil
			}
		}
		return 0, fmt.Errorf("%s: %s line has no B/op metric (run with -benchmem)", path, name)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %s result found", path, name)
}
