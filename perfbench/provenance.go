package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// provenanceInfo identifies the host, toolchain and source a result came
// from. Results whose host fields differ are not comparable.
type provenanceInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Host       string `json:"host"` // host name, kernel release, machine
	Commit     string `json:"commit"`
	// SourceSHA256 hashes the module's Go sources, which identifies the
	// code where no git metadata is available.
	SourceSHA256 string `json:"source_sha256"`
}

func provenance() provenanceInfo {
	return provenanceInfo{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		OS:           runtime.GOOS,
		Arch:         runtime.GOARCH,
		Host:         uname(),
		Commit:       commit(),
		SourceSHA256: sourceDigest("."),
	}
}

// uname returns the host's name, kernel release and machine type.
func uname() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	return cstring(u.Nodename[:]) + " " + cstring(u.Release[:]) + " " + cstring(u.Machine[:])
}

// cstring converts a NUL-terminated utsname field; its element type
// differs between architectures.
func cstring[T int8 | uint8](f []T) string {
	b := make([]byte, 0, len(f))
	for _, c := range f {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// commit returns the VCS revision stamped into the binary, else the one
// .git/HEAD names, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and content of every .go, go.mod and go.sum
// file under root, skipping hidden directories (build output, VCS data).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path) + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
