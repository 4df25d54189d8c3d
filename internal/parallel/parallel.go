// Package parallel is the deterministic bounded fan-out engine behind
// every hot loop of the certification flow: lot certification fans out
// per die, the experiment harness per benchmark case, and ATPG fault
// simulation per fault shard. Within one die, Both overlaps the golden
// and physical halves of a reading on a CPU borrowed from a
// process-wide budget of GOMAXPROCS units, of which every running
// certification holds one (Hold): a lone die gets a second core, while
// dies that fill the cores run each reading inline.
//
// The engine's contract, which the equivalence test suites of the core
// and atpg packages pin down byte-for-byte:
//
//   - Ordered fan-in: Map returns results indexed by item, never by
//     completion order, so the caller's aggregation runs in the same
//     order as a serial loop.
//   - Scheduling-free seeds: any per-item randomness must derive from
//     Mix(baseSeed, index) (or an equivalent index-only formula), never
//     from a worker-local or shared generator, so results are identical
//     for every worker count.
//   - Serial escape hatch: Workers == 1 runs the items in index order on
//     the calling goroutine — the exact legacy serial path.
//   - Contained failure: a panic inside an item becomes a *PanicError
//     return, not a process crash; the first error (lowest item index
//     among the items that ran) cancels the remaining dispatch and is
//     propagated.
//   - Context cancellation: a cancelled ctx stops dispatch; items
//     already running finish and their results are discarded.
//   - Joined overlap: Both returns only after both halves finish, so no
//     helper goroutine outlives the call, and a panic in the borrowed
//     half is re-raised on the caller — inside an item, as that item's
//     *PanicError.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// DefaultWorkers is the pool width used when a Workers knob is left at
// zero: one worker per logical CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// Normalize maps a Workers setting to a concrete pool width: values
// below 1 mean DefaultWorkers.
func Normalize(workers int) int {
	if workers < 1 {
		return DefaultWorkers()
	}
	return workers
}

// Mix derives the per-item seed from a base seed and an item index
// (splitmix64 finalizer over a golden-ratio stride). Deriving every
// item's randomness this way — instead of drawing from a generator as
// items are scheduled — is what keeps parallel output bit-identical to
// serial: the seed depends only on the index, never on the interleaving.
func Mix(base uint64, index int) uint64 {
	z := base + (uint64(index)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// PanicError is a worker panic converted into an error.
type PanicError struct {
	Index int // the item whose function panicked
	Value any // the recovered panic value
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: item %d panicked: %v", e.Index, e.Value)
}

// call runs fn(i) with panic containment.
func call(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r}
		}
	}()
	return fn(i)
}

// ForEach runs fn(i) for every i in [0, n) on a pool of Normalize(workers)
// goroutines (capped at n). With workers == 1 the items run in index
// order on the calling goroutine.
//
// On failure the remaining dispatch is cancelled and the recorded error
// with the lowest item index is returned; items already in flight finish
// first. When ctx is cancelled and no item error was recorded, ctx's
// error is returned.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Normalize(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := call(fn, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	items := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range items {
				if ctx.Err() != nil {
					continue // drain: dispatch raced with cancellation
				}
				if err := call(fn, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		items <- i
	}
	close(items)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// Map runs fn(i) for every i in [0, n) under the same pool, cancellation
// and error contract as ForEach, and returns the results in item order.
// On any error the partial results are discarded.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v // each item owns its slot: no cross-item writes
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
