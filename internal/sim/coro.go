//go:build go1.23

package sim

import "iter"

// start makes fn the body of p's coroutine. p.next switches into it and
// runs it to its next yield point: Sleep and Block yield their kind, and
// once fn returns or panics the coroutine ends and next reports false.
// The switch hands the host thread directly from one goroutine to the
// other (runtime.coroswitch) without passing through the scheduler, which
// is what makes one engine step cheap. This is the engine's only use of
// iter.Pull; the go1.23 build line lets the module keep its go 1.22
// language version.
func (p *Proc) start(fn func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(yieldKind) bool) {
		p.yield = yield
		p.body(fn)
	})
}
