// Package a exercises the simconcurrency analyzer: real Go concurrency
// has no place in simulated code.
package a

import (
	"iter"
	"sync"
	"sync/atomic"
)

func work() {}

func spawn() {
	go work() // want `go statement in simulated code`
}

func channels() {
	ch := make(chan int) // want `channel type in simulated code`
	ch <- 1              // want `channel send in simulated code`
	<-ch                 // want `channel receive in simulated code`
}

func ranging(ch chan int) { // want `channel type in simulated code`
	for v := range ch { // want `range over a channel in simulated code`
		_ = v
	}
}

func selecting() {
	select {} // want `select statement in simulated code`
}

var mu sync.Mutex // want `use of sync\.Mutex in simulated code`

func locked() {
	mu.Lock()
	mu.Unlock()
	var n int64
	atomic.AddInt64(&n, 1) // want `use of sync/atomic\.AddInt64 in simulated code`
}

func plainLoops(xs []int) int {
	total := 0
	for _, x := range xs { // ok: range over a slice
		total += x
	}
	return total
}

func coroutines(seq iter.Seq[int], seq2 iter.Seq2[int, string]) {
	next, stop := iter.Pull(seq) // want `use of iter\.Pull in simulated code`
	defer stop()
	next()
	next2, stop2 := iter.Pull2(seq2) // want `use of iter\.Pull2 in simulated code`
	defer stop2()
	next2()
	seq(func(int) bool { return true }) // ok: calling an iterator runs it on the caller's goroutine
}
