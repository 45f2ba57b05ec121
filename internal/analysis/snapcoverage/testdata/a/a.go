// Package a exercises snapshot-coverage checking: complete snapshots,
// missing fields, helper-reachable serialization, annotations, and the
// annotation failure modes.
package a

type Snap struct {
	V int `json:"v"`
	N int `json:"n"`
}

// Complete: every field read by Snapshot.
type Good struct {
	v int
	n int
}

func (g *Good) Snapshot() Snap { return Snap{V: g.v, N: g.n} }

// Missing: n is never read by Snapshot and carries no annotation.
type Missing struct {
	v int
	n int // want `field Missing\.n is not serialized by \(Missing\)\.Snapshot and not annotated`
}

func (m *Missing) Snapshot() Snap { return Snap{V: m.v} }

// Deep serializes through a same-package helper; both fields count.
type Deep struct {
	a int
	b int
}

func (d *Deep) Snapshot() Snap { return d.snap() }

func (d *Deep) snap() Snap { return Snap{V: d.a, N: d.b} }

// Annotated: derived and transient fields are exempt when they carry a
// reason.
type Annotated struct {
	v int
	//snap:derived rebuilt from v during restore
	cache []int
	tmp   int //snap:transient scratch cleared on restore
}

func (a *Annotated) Snapshot() Snap { return Snap{V: a.v} }

// Contradiction: the annotation claims derived, but Snapshot reads it.
type Contradiction struct {
	v int
	//snap:derived supposedly recomputed
	w int // want `field Contradiction\.w is annotated //snap:derived but is read by the Snapshot method`
}

func (c *Contradiction) Snapshot() Snap { return Snap{V: c.v, N: c.w} }

// Malformed: a reason is mandatory.
type Malformed struct {
	v int
	//snap:transient
	pad int // want `malformed //snap:transient annotation: a reason is required`
}

func (m *Malformed) Snapshot() Snap { return Snap{V: m.v} }

// NoSnap has no Snapshot method, so the annotation is dead weight.
type NoSnap struct {
	//snap:derived there is nothing to derive from
	x int // want `//snap:derived annotation on a field of NoSnap, which has no Snapshot method`
}

// TwoResults matches kernel.Kernel's orchestrator shape and is exempt
// from coverage checking.
type TwoResults struct {
	hidden int
}

func (t *TwoResults) Snapshot() (Snap, error) { return Snap{}, nil }
