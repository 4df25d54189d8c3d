package parallel

import (
	"runtime"
	"sync"
)

// The process-wide CPU budget: runtime.GOMAXPROCS(0) units, of which
// every running certification holds one (Hold) and a Both call borrows a
// second only while one is free. Work that fills the cores therefore
// never oversubscribes them, and a core no holder uses is lent out.
var budget struct {
	mu    sync.Mutex
	freed sync.Cond // signalled when a lent unit returns
	held  int       // units held by running work
	lent  int       // units lent to the second half of a Both
}

func init() { budget.freed.L = &budget.mu }

// Hold claims one unit of the CPU budget for the calling work and
// returns its release. Holders never wait on each other: more holders
// than CPUs simply leave nothing to lend. A Hold waits only while lent
// units fill the budget, and each of those returns at the end of one
// Both.
func Hold() (release func()) {
	budget.mu.Lock()
	for budget.lent > 0 && budget.held+budget.lent >= runtime.GOMAXPROCS(0) {
		budget.freed.Wait()
	}
	budget.held++
	budget.mu.Unlock()
	return func() {
		budget.mu.Lock()
		budget.held--
		budget.mu.Unlock()
	}
}

// borrow lends one unit of the budget if one is free.
func borrow() bool {
	budget.mu.Lock()
	defer budget.mu.Unlock()
	if budget.held+budget.lent >= runtime.GOMAXPROCS(0) {
		return false
	}
	budget.lent++
	return true
}

// giveBack returns a lent unit.
func giveBack() {
	budget.mu.Lock()
	budget.lent--
	budget.mu.Unlock()
	budget.freed.Broadcast()
}

// Both runs a on the calling goroutine and b on a CPU borrowed from the
// budget, and returns once both have finished. With no CPU free it runs
// a, then b, inline. The two must not share mutable state. A panic in b
// is recovered on its goroutine and re-raised on the caller after the
// join, so the caller's own containment (a Map item's *PanicError, say)
// sees it as if b had run inline; if a panics too, a's panic wins.
//
// Starting b's goroutine on an idle CPU takes tens of microseconds, so
// Both pays only for halves that take longer than that.
func Both(a, b func()) {
	if !borrow() {
		a()
		b()
		return
	}
	var bPanic any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer giveBack()
		defer func() { bPanic = recover() }()
		b()
	}()
	func() {
		defer func() { <-done }() // b never outlives the call, even when a panics
		a()
	}()
	if bPanic != nil {
		panic(bPanic)
	}
}
