// Package scratch pools the O(gates) slices the simulation and sweep
// layers acquire per construction — lane-word frames, epoch guards,
// membership bitmaps. At published circuit sizes these allocations are
// noise; at 10⁵–10⁷ gates a per-die Sweeper or DeltaProp that mallocs
// five multi-megabyte arrays per lot keeps the garbage collector busy
// and the per-lot setup cost growing with gate count. Pooling by exact
// size class (netlists of the same size share; a certify service mostly
// re-sees the same designs) makes steady-state setup allocation-free.
//
// Every getter returns a zeroed slice, so pooled reuse is
// indistinguishable from make(). Putting a slice hands ownership to the
// pool: the caller must not retain any reference, including subslices.
package scratch

import (
	"sync"

	"superpose/internal/logic"
)

// slices pools []T by exact capacity class. The pool stores *[]T so
// Put/Get avoid boxing allocations.
type slices[T any] struct {
	classes sync.Map // int (capacity) -> *sync.Pool
}

func (p *slices[T]) get(n int) []T {
	if c, ok := p.classes.Load(n); ok {
		if v, ok := c.(*sync.Pool).Get().(*[]T); ok {
			s := (*v)[:n]
			clear(s)
			return s
		}
	}
	return make([]T, n)
}

func (p *slices[T]) put(s []T) {
	c := cap(s)
	if c == 0 {
		return
	}
	s = s[:c]
	cl, _ := p.classes.LoadOrStore(c, &sync.Pool{})
	cl.(*sync.Pool).Put(&s)
}

var (
	wordPool   slices[logic.Word]
	uint32Pool slices[uint32]
	uint64Pool slices[uint64]
)

// Words returns a zeroed []logic.Word of length n.
func Words(n int) []logic.Word { return wordPool.get(n) }

// PutWords returns a slice obtained from Words (or compatible) to the pool.
func PutWords(s []logic.Word) { wordPool.put(s) }

// Uint32s returns a zeroed []uint32 of length n.
func Uint32s(n int) []uint32 { return uint32Pool.get(n) }

// PutUint32s returns a slice to the pool.
func PutUint32s(s []uint32) { uint32Pool.put(s) }

// Uint64s returns a zeroed []uint64 of length n.
func Uint64s(n int) []uint64 { return uint64Pool.get(n) }

// PutUint64s returns a slice to the pool.
func PutUint64s(s []uint64) { uint64Pool.put(s) }
