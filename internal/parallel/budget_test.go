package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// inUse is the budget's current count of held and lent units.
func inUse() (held, lent int) {
	budget.mu.Lock()
	defer budget.mu.Unlock()
	return budget.held, budget.lent
}

// restored checks that the budget is back to empty: every Both returned
// its lent unit and every holder its own.
func restored(t *testing.T) {
	t.Helper()
	if held, lent := inUse(); held != 0 || lent != 0 {
		t.Errorf("budget not restored: %d held, %d lent", held, lent)
	}
}

// withProcs sets GOMAXPROCS, and so the budget, for the rest of the
// test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestBothBorrowsAFreeCPU(t *testing.T) {
	withProcs(t, 2)
	release := Hold()
	var lentDuringB int
	var ranA, ranB bool
	Both(func() { ranA = true }, func() {
		ranB = true
		_, lentDuringB = inUse()
	})
	if !ranA || !ranB {
		t.Fatalf("ran a=%v b=%v, want both", ranA, ranB)
	}
	if lentDuringB != 1 {
		t.Errorf("b ran with %d units lent, want it on the borrowed one", lentDuringB)
	}
	release()
	restored(t)
}

func TestBothInlineWhenBudgetFull(t *testing.T) {
	withProcs(t, 2)
	r1, r2 := Hold(), Hold()
	defer r1()
	defer r2()
	var order []string
	Both(func() { order = append(order, "a") }, func() {
		order = append(order, "b")
		if _, lent := inUse(); lent != 0 {
			t.Errorf("b borrowed a unit of a full budget")
		}
	})
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("inline order %v, want [a b]", order)
	}
}

// TestBothPanicReraised: a panic on the borrowed half reaches the
// caller after the join — inside a Map item, as a *PanicError — and the
// lent unit comes back.
func TestBothPanicReraised(t *testing.T) {
	withProcs(t, 4)
	var aDone atomic.Bool
	err := ForEach(context.Background(), 1, 1, func(int) error {
		release := Hold()
		defer release()
		Both(func() { aDone.Store(true) }, func() { panic("golden half") })
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "golden half" {
		t.Fatalf("err = %v, want a *PanicError carrying the borrowed half's panic", err)
	}
	if !aDone.Load() {
		t.Error("the caller's half did not finish before the re-raise")
	}
	restored(t)
}

// TestBudgetHighWater hammers the budget from as many holders as CPUs,
// each taking and releasing its unit around bursts of Both calls: the
// units in use — held plus lent — never exceed GOMAXPROCS.
func TestBudgetHighWater(t *testing.T) {
	const procs = 4
	withProcs(t, procs)
	var peak atomic.Int64
	var lending atomic.Int64
	sample := func() {
		held, lent := inUse()
		for n := int64(held + lent); ; {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				release := Hold()
				sample()
				for k := 0; k < 5; k++ {
					Both(sample, func() {
						if _, lent := inUse(); lent > 0 {
							lending.Add(1)
						}
						sample()
						// Keep the unit out long enough for the
						// other holders to cycle meanwhile.
						time.Sleep(20 * time.Microsecond)
						sample()
					})
				}
				release()
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > procs {
		t.Errorf("high-water mark %d units, budget %d", p, procs)
	}
	if lending.Load() == 0 {
		t.Error("no unit was ever lent; the hammer did not exercise lending")
	}
	restored(t)
}
