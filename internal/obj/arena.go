package obj

import (
	"math/bits"
	"sync/atomic"
)

// Arena is a per-VM bump allocator for request-lifetime object
// storage: vector elements, clone fields and the Object headers
// themselves come out of recycled chunks instead of individual Go
// allocations. Lifetimes are epochs: the serving layer resets the
// arena when a pooled VM returns to the pool (and the bench harness
// between iterations), recycling every chunk of the finished epoch.
//
// Chunks come in size classes: class k holds base<<k elements (base is
// 256 Values or 32 Object headers). An epoch's first chunk is class 0
// and each later one doubles, up to class arenaGrowTop (8,192 Values,
// 128 KiB; 1,024 headers, 64 KiB), so an epoch holds about twice what
// it used. A vector too large to share a chunk gets a chunk of its own
// class, up to arenaTop (65,536 Values, 1 MiB); a larger one is plain
// heap. A clean Reset puts each chunk on its class's free list, the
// lists together holding at most arenaFreeChunks top-growth-class
// chunks' worth of each kind (2 MiB of Values, 1 MiB of headers).
//
// Soundness: an arena value must not outlive its epoch, or a recycled
// chunk would be rewritten under it. Epoch 0 is the permanent Go heap
// (everything created at world-load time); each Object carries the
// epoch it was allocated in, and the VM's store barrier watches every
// write into object storage. Epoch numbers are allocated from one
// process-wide counter, so an epoch identifies its arena globally:
// forked workers sharing a world can never be at the same epoch, and a
// store from worker B into an object that escaped worker A's arena
// always trips B's barrier (with per-arena counters both workers would
// typically sit at the same small epoch number and the barrier would
// see a false "same epoch" match). When a current-epoch object or a block
// is stored into an object from any *other* epoch — the world, or a
// previous epoch that itself escaped — the value may be reachable
// after Reset, and the barrier promotes the whole epoch: MarkEscaped
// flips the dirty bit, and a dirty Reset abandons its chunks to the
// Go garbage collector (which keeps them alive exactly as long as the
// escaped values are referenced) instead of recycling them. Since
// chunks grow with use, that costs about what the epoch allocated.
// This mirrors the frame pool's escaped-frame exemption: escape is rare,
// detection is a single epoch compare on the store fast path, and the
// abandoned chunks are ordinary heap memory so escaped closures and
// NLR homes stay valid forever. Blocks escape conservatively: a
// closure's Cells alias frame slots that can be written after the
// store, so any block crossing an epoch boundary dirties the epoch.
//
// The arena is single-VM (not goroutine-safe), like the frame pool.
type Arena struct {
	epoch uint32
	dirty bool

	vals chunks[Value]  // vector elements and clone fields
	objs chunks[Object] // Object headers

	// Counters for tests and /statusz.
	Resets   int64 // epochs recycled cleanly
	Abandons int64 // epochs abandoned to the GC because a value escaped
}

const (
	arenaBaseValues = 256 // Values in a class-0 chunk (4 KiB)
	arenaBaseObjs   = 32  // Object headers in a class-0 chunk (2 KiB)
	arenaGrowTop    = 5   // an epoch's bump chunks grow up to this class
	arenaTop        = 8   // largest class: one vector of up to 65,536 Values
	arenaMaxTracked = 64  // chunks tracked per epoch; beyond this, loose heap chunks
	arenaFreeChunks = 16  // free lists hold this many class-arenaGrowTop chunks' worth
)

// chunks is one kind of arena storage: the chunk being bumped, the
// epoch's tracked chunks, and the recycled free lists, one per class.
type chunks[T any] struct {
	base    int // elements in a class-0 chunk
	cur     []T
	used    int
	grow    int // class of the epoch's next bump chunk
	tracked [][]T
	free    [arenaTop + 1][][]T
	freeLen int // elements held on the free lists
}

// class returns the smallest class whose chunks hold n elements.
func (c *chunks[T]) class(n int) int { return bits.Len(uint((n - 1) / c.base)) }

// take returns a zeroed class-k chunk, recycled when one is free, and
// tracks it for Reset. Once the epoch tracks arenaMaxTracked chunks,
// further chunks are loose heap memory Reset never sees: taking them
// from a free list would permanently drain it, so they come fresh.
func (c *chunks[T]) take(k int) []T {
	if len(c.tracked) >= arenaMaxTracked {
		return make([]T, c.base<<k)
	}
	var s []T
	if f := c.free[k]; len(f) > 0 {
		s = f[len(f)-1]
		f[len(f)-1] = nil
		c.free[k] = f[:len(f)-1]
		c.freeLen -= len(s)
	} else {
		s = make([]T, c.base<<k)
	}
	c.tracked = append(c.tracked, s)
	return s
}

// bump makes a fresh chunk current that holds at least n elements: the
// epoch's next growth class, or n's class if that is larger.
func (c *chunks[T]) bump(n int) {
	k := max(c.grow, c.class(n))
	c.cur, c.used = c.take(k), 0
	c.grow = min(k+1, arenaGrowTop)
}

// reset ends the epoch: its chunks go, zeroed, to the free lists while
// they have room (recycle), or are dropped for the GC.
func (c *chunks[T]) reset(recycle bool) {
	if recycle {
		for _, s := range c.tracked {
			if c.freeLen+len(s) > arenaFreeChunks*c.base<<arenaGrowTop {
				continue
			}
			clear(s)
			k := c.class(len(s))
			c.free[k] = append(c.free[k], s)
			c.freeLen += len(s)
		}
	}
	clear(c.tracked)
	c.tracked = c.tracked[:0]
	c.cur, c.used, c.grow = nil, 0, 0
}

// epochCounter hands out epoch numbers process-wide. Epochs are
// identity, not just sequence: the store barrier's `o.Ep != curEp`
// compare is only sound if no two live arenas ever share an epoch
// number, so every arena draws from this one counter.
var epochCounter atomic.Uint32

// nextEpoch returns a fresh process-unique epoch, never 0 (0 is the
// permanent heap). uint32 wrap after 4G epochs is tolerated: a stale
// collision would need an abandoned object *and* a live arena exactly
// 2^32 epochs apart, and the failure mode is a missed escape on a
// barrier that already fires only on cross-epoch stores.
func nextEpoch() uint32 {
	for {
		if e := epochCounter.Add(1); e != 0 {
			return e
		}
	}
}

// NewArena returns an empty arena at a fresh process-unique epoch
// (epoch 0 is reserved for the permanent heap).
func NewArena() *Arena {
	return &Arena{
		epoch: nextEpoch(),
		vals:  chunks[Value]{base: arenaBaseValues},
		objs:  chunks[Object]{base: arenaBaseObjs},
	}
}

// Epoch returns the current epoch. Never 0.
func (a *Arena) Epoch() uint32 {
	if a == nil {
		return 0
	}
	return a.epoch
}

// MarkEscaped records that a value of the current epoch became
// reachable from outside it; the next Reset abandons this epoch's
// chunks to the GC instead of recycling them.
func (a *Arena) MarkEscaped() {
	if a != nil {
		a.dirty = true
	}
}

// Reset ends the current epoch. Clean epochs recycle their chunks
// (zeroed, so no stale Values retain dead objects); escaped epochs
// abandon them to the garbage collector, which is what "promoting out
// of the arena" means here — the chunks are ordinary heap memory that
// now lives exactly as long as the escaped values need it to.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	if a.dirty {
		a.Abandons++
	} else {
		a.Resets++
	}
	a.vals.reset(!a.dirty)
	a.objs.reset(!a.dirty)
	a.dirty = false
	a.epoch = nextEpoch()
}

// allocValues returns a zeroed n-slot Value array from the current
// chunk. A request of more than half a top growth chunk gets a chunk of
// its own class instead, and one past the largest class (or any chunk
// once the per-epoch tracking cap is hit) is a plain heap make —
// correct, just not recycled.
func (a *Arena) allocValues(n int) []Value {
	c := &a.vals
	if n == 0 {
		return nil
	}
	if n > arenaBaseValues<<arenaGrowTop/2 {
		if n > arenaBaseValues<<arenaTop {
			return make([]Value, n)
		}
		return c.take(c.class(n))[:n:n]
	}
	if c.used+n > len(c.cur) {
		c.bump(n)
	}
	s := c.cur[c.used : c.used+n : c.used+n]
	c.used += n
	return s
}

// allocObject returns a zeroed Object header stamped with the current
// epoch.
func (a *Arena) allocObject() *Object {
	c := &a.objs
	if c.used >= len(c.cur) {
		c.bump(1)
	}
	o := &c.cur[c.used]
	c.used++
	o.Ep = a.epoch
	return o
}

// NewVector returns a fresh arena vector of n elements initialized to
// fill. Negative n yields an empty vector, matching World.NewVector.
func (a *Arena) NewVector(m *Map, n int, fill Value) *Object {
	if a == nil {
		w := &Object{Map: m}
		if n > 0 {
			w.Elems = make([]Value, n)
			for i := range w.Elems {
				w.Elems[i] = fill
			}
		}
		return w
	}
	if n < 0 {
		n = 0
	}
	o := a.allocObject()
	o.Map = m
	o.Fields, o.Elems = nil, nil
	if n > 0 {
		o.Elems = a.allocValues(n)
		if !fill.IsNil() {
			for i := range o.Elems {
				o.Elems[i] = fill
			}
		}
	}
	return o
}

// Clone returns a shallow arena copy of src sharing its map.
func (a *Arena) Clone(src *Object) *Object {
	if a == nil {
		return src.Clone()
	}
	o := a.allocObject()
	o.Map = src.Map
	o.Fields, o.Elems = nil, nil
	if len(src.Fields) > 0 {
		o.Fields = a.allocValues(len(src.Fields))
		copy(o.Fields, src.Fields)
	}
	if src.Map.Indexable {
		o.Elems = a.allocValues(len(src.Elems))
		copy(o.Elems, src.Elems)
	}
	return o
}
