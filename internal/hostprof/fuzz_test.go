package hostprof

import (
	"bytes"
	"testing"
)

// FuzzParseReport feeds arbitrary bytes to the artifact decoder. Parse
// must either fail or return a report that Validate, CheckCoverage and
// Render can all inspect without panicking: tlbtrace hostcost runs those
// on whatever file it is handed.
func FuzzParseReport(f *testing.F) {
	raw := sampleReport(f)
	f.Add(raw)
	for _, cut := range []int{1, len(raw) / 3, len(raw) / 2, len(raw) - 2} {
		f.Add(raw[:cut])
	}
	// Oversized: numbers past int64, a huge coverage, a repeated body.
	f.Add(bytes.Replace(raw, []byte(`"measured_bytes": `), []byte(`"measured_bytes": 99999999999999999999`), 1))
	f.Add(bytes.Replace(raw, []byte(`"coverage_pct": `), []byte(`"coverage_pct": 1e308`), 1))
	f.Add(bytes.Repeat(raw, 8))
	f.Add([]byte(`{"format":"host-cost/v1","provenance":{"go_version":"go","gomaxprocs":1},"headline":"p","phases":[{"name":"p","measured_bytes":-1}]}`))
	f.Add([]byte(`{"headline":"p","phases":[{"name":"p","sites":[{"site":"s","count":9223372036854775807,"bytes":9223372036854775807,"exact":true},{"site":"t","bytes":9223372036854775807,"exact":true}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Parse(data)
		if err != nil {
			if r != nil {
				t.Fatal("Parse returned both a report and an error")
			}
			return
		}
		_ = r.Validate()
		_ = r.CheckCoverage(80)
		_ = r.Render(10)
	})
}
