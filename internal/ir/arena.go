package ir

import "unsafe"

// Arena hands out values of T from slabs that grow geometrically, from
// about 4 KB to about 256 KB, and Release takes back every value handed
// out since a Mark, for reuse: a stack discipline for memory whose
// lifetime the caller knows ends together. The compiler keeps its graph
// nodes and its type-environment chunks in arenas so that a loop
// simulation gives back what it built when it returns.
type Arena[T any] struct {
	slabs     [][]T
	slab, off int // slabs[slab][off] is handed out next
	n         int // values handed out; Release rewinds it to the mark
}

// ArenaMark is a position in an Arena.
type ArenaMark struct{ slab, off, n int }

// TestPoisonReleases, when set, makes Release overwrite what it frees
// with values no live reader can mistake for real ones, and never hand
// that memory out again. A use after release then changes the compiled
// code or fails. Tests only.
var TestPoisonReleases bool

const (
	firstSlabBytes = 4 << 10
	slabDoublings  = 6 // slabs stop growing at 64 times the first
)

// New returns the next value. It is zero the first time its slot is
// handed out; a recycled slot holds what was last stored in it, for the
// caller to overwrite.
func (a *Arena[T]) New() *T {
	if a.slab == len(a.slabs) || a.off == len(a.slabs[a.slab]) {
		if a.slab < len(a.slabs) {
			a.slab, a.off = a.slab+1, 0
		}
		if a.slab == len(a.slabs) {
			var zero T
			first := max(1, firstSlabBytes/int(unsafe.Sizeof(zero)))
			a.slabs = append(a.slabs, make([]T, first<<min(len(a.slabs), slabDoublings)))
		}
	}
	p := &a.slabs[a.slab][a.off]
	a.off++
	a.n++
	return p
}

// Len counts the values handed out and not released: the last one New
// returned is number Len.
func (a *Arena[T]) Len() int { return a.n }

// Mark returns the current position, for Release.
func (a *Arena[T]) Mark() ArenaMark { return ArenaMark{a.slab, a.off, a.n} }

// Len is the arena's Len when the mark was taken: values numbered above
// it were handed out since.
func (m ArenaMark) Len() int { return m.n }

// Release takes back every value New handed out since m; the caller
// guarantees nothing live refers to one. Under TestPoisonReleases it
// passes each to poison instead and keeps them out of use.
func (a *Arena[T]) Release(m ArenaMark, poison func(*T)) {
	if !TestPoisonReleases {
		a.slab, a.off, a.n = m.slab, m.off, m.n
		return
	}
	a.each(m, poison)
}

// All calls f on every value handed out and not released, in the order
// New handed them out (poisoned ones included).
func (a *Arena[T]) All(f func(*T)) { a.each(ArenaMark{}, f) }

func (a *Arena[T]) each(from ArenaMark, f func(*T)) {
	for i := from.slab; i < len(a.slabs) && i <= a.slab; i++ {
		lo, hi := 0, len(a.slabs[i])
		if i == from.slab {
			lo = from.off
		}
		if i == a.slab {
			hi = a.off
		}
		for j := lo; j < hi; j++ {
			f(&a.slabs[i][j])
		}
	}
}
