package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// reference holds, for one seed, the SHA-256 digest of every output each
// workload must reproduce and the exact work counts it must repeat.
type reference struct {
	Seed      int64                   `json:"seed"`
	Workloads map[string]referenceRun `json:"workloads"`
}

type referenceRun struct {
	Digests map[string]string `json:"digests"`
	Counts  map[string]uint64 `json:"counts"`
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var r reference
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	for name, run := range r.Workloads {
		if _, ok := findWorkload(name); !ok {
			return nil, fmt.Errorf("reference %s: unknown workload %q", path, name)
		}
		if len(run.Digests) == 0 {
			return nil, fmt.Errorf("reference %s: workload %q has no digests", path, name)
		}
	}
	return &r, nil
}

// lookup returns the reference run for a workload at a seed, if stored.
func (r *reference) lookup(workload string, seed int64) (referenceRun, bool) {
	if r == nil || r.Seed != seed {
		return referenceRun{}, false
	}
	run, ok := r.Workloads[workload]
	return run, ok
}

// writeReference stores one workload's run in the file at path, keeping
// the other workloads' entries.
func writeReference(path string, seed int64, workload string, run referenceRun) error {
	r := &reference{Seed: seed, Workloads: map[string]referenceRun{}}
	if old, err := loadReference(path); err == nil && old.Seed == seed {
		r = old
	}
	r.Workloads[workload] = run
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digest hashes every output of an iteration: the JSON encoding of each
// document and the raw bytes of each exported artifact.
func digest(out output) (map[string]string, error) {
	d := map[string]string{}
	for name, doc := range out.docs {
		b, err := json.Marshal(doc)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", name, err)
		}
		d[name] = sha256Hex(b)
	}
	for name, b := range out.artifacts {
		d[name] = sha256Hex(b)
	}
	return d, nil
}

// diffMaps lists the keys of want whose value in got differs, plus keys
// got has and want lacks.
func diffMaps[V comparable](want, got map[string]V) []string {
	var bad []string
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			bad = append(bad, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}
