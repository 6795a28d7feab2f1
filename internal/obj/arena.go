package obj

import "sync/atomic"

// Arena is a per-VM bump allocator for request-lifetime object
// storage: vector elements, clone fields and the Object headers
// themselves come out of recycled chunks instead of individual Go
// allocations. Lifetimes are epochs: the serving layer resets the
// arena when a pooled VM returns to the pool (and the bench harness
// between iterations), recycling every chunk of the finished epoch.
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
// escaped values are referenced) instead of recycling them. This
// mirrors the frame pool's escaped-frame exemption: escape is rare,
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

	// Value storage: the current chunk being bumped, the full list of
	// this epoch's tracked chunks, and the clean recycled free list.
	cur    []Value
	used   int
	chunks [][]Value
	free   [][]Value

	// Object-header storage, same discipline.
	objCur    []Object
	objUsed   int
	objChunks [][]Object
	objFree   [][]Object

	// Counters for tests and /statusz.
	Resets   int64 // epochs recycled cleanly
	Abandons int64 // epochs abandoned to the GC because a value escaped
}

const (
	arenaChunkValues = 8192 // 128 KiB of Value storage per chunk
	arenaChunkObjs   = 1024 // Object headers per chunk
	arenaMaxTracked  = 64   // chunks tracked per epoch; beyond this, loose heap chunks
	arenaMaxFree     = 16   // recycled chunks kept across epochs
)

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
func NewArena() *Arena { return &Arena{epoch: nextEpoch()} }

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
		a.chunks = nil
		a.objChunks = nil
		a.Abandons++
	} else {
		for _, c := range a.chunks {
			if len(a.free) >= arenaMaxFree {
				break
			}
			clear(c)
			a.free = append(a.free, c)
		}
		a.chunks = a.chunks[:0]
		for _, c := range a.objChunks {
			if len(a.objFree) >= arenaMaxFree {
				break
			}
			clear(c)
			a.objFree = append(a.objFree, c)
		}
		a.objChunks = a.objChunks[:0]
		a.Resets++
	}
	a.cur, a.used = nil, 0
	a.objCur, a.objUsed = nil, 0
	a.dirty = false
	a.epoch = nextEpoch()
}

// allocValues returns a zeroed n-slot Value array from the current
// chunk. Oversized requests (and every request once the per-epoch
// tracking cap is hit) fall through to plain heap makes — correct,
// just not recycled.
func (a *Arena) allocValues(n int) []Value {
	if n == 0 {
		return nil
	}
	if n > arenaChunkValues/2 {
		return make([]Value, n)
	}
	if a.used+n > len(a.cur) {
		a.newValueChunk()
	}
	s := a.cur[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

func (a *Arena) newValueChunk() {
	// Once the per-epoch tracking cap is hit, further chunks are loose
	// heap memory that Reset never sees — consuming the free list for
	// them would permanently drain the recycled pool, so untracked
	// chunks always come fresh from the heap.
	if len(a.chunks) >= arenaMaxTracked {
		a.cur, a.used = make([]Value, arenaChunkValues), 0
		return
	}
	var c []Value
	if k := len(a.free); k > 0 {
		c = a.free[k-1]
		a.free = a.free[:k-1]
	} else {
		c = make([]Value, arenaChunkValues)
	}
	a.chunks = append(a.chunks, c)
	a.cur, a.used = c, 0
}

// allocObject returns a zeroed Object header stamped with the current
// epoch.
func (a *Arena) allocObject() *Object {
	if a.objUsed >= len(a.objCur) {
		if len(a.objChunks) >= arenaMaxTracked {
			// Same rule as newValueChunk: untracked chunks must not
			// drain the recycled free list.
			a.objCur, a.objUsed = make([]Object, arenaChunkObjs), 0
		} else {
			var c []Object
			if k := len(a.objFree); k > 0 {
				c = a.objFree[k-1]
				a.objFree = a.objFree[:k-1]
			} else {
				c = make([]Object, arenaChunkObjs)
			}
			a.objChunks = append(a.objChunks, c)
			a.objCur, a.objUsed = c, 0
		}
	}
	o := &a.objCur[a.objUsed]
	a.objUsed++
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
