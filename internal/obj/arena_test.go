package obj

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

const (
	valueBytes  = int(unsafe.Sizeof(Value{}))
	objectBytes = int(unsafe.Sizeof(Object{}))

	// arenaRetainMax is what an arena may keep across epochs: 16 chunks
	// of 8,192 Values plus 16 of 1,024 headers, 3 MiB.
	arenaRetainMax = arenaFreeChunks * (arenaBaseValues<<arenaGrowTop*valueBytes + arenaBaseObjs<<arenaGrowTop*objectBytes)
)

// heldBytes reports the bytes of the chunks the current epoch tracks
// (what a dirty Reset gives the GC) and of the free lists (what the
// arena keeps across epochs).
func heldBytes(a *Arena) (tracked, free int) {
	vt, vf := held(&a.vals)
	ot, of := held(&a.objs)
	return vt + ot, vf + of
}

func held[T any](c *chunks[T]) (tracked, free int) {
	size := int(unsafe.Sizeof(*new(T)))
	for _, s := range c.tracked {
		tracked += len(s) * size
	}
	for _, l := range c.free {
		for _, s := range l {
			free += len(s) * size
		}
	}
	return tracked, free
}

// hostBytes returns the Go heap bytes f allocates.
func hostBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

var testVecMap = &Map{Name: "vector", Indexable: true}

// TestArenaEscapedEpochCost: an epoch that escapes one small vector
// abandons the chunks it started, not a full-size chunk of each kind
// (192 KiB when every chunk was 8,192 Values or 1,024 headers).
func TestArenaEscapedEpochCost(t *testing.T) {
	a := NewArena()
	a.NewVector(testVecMap, 10, Int(1))
	a.MarkEscaped()
	tracked, _ := heldBytes(a)
	a.Reset()
	if tracked > 8<<10 {
		t.Errorf("escaped epoch gave the GC %d bytes, want at most 8 KiB", tracked)
	}
	if _, free := heldBytes(a); a.Abandons != 1 || free != 0 {
		t.Errorf("abandons=%d free=%d bytes, want 1 and nothing recycled", a.Abandons, free)
	}
}

// TestArenaLargeVectorRecycled: a vector too large to share a chunk
// gets a chunk of its own class, which a clean Reset recycles like any
// other: after the first epoch, allocating it costs the Go heap nothing.
func TestArenaLargeVectorRecycled(t *testing.T) {
	a := NewArena()
	epoch := func() {
		v := a.NewVector(testVecMap, 8192, Nil())
		v.Elems[8191] = Int(1)
		a.Reset()
	}
	epoch()
	if got := hostBytes(func() {
		for i := 0; i < 4; i++ {
			epoch()
		}
	}); got != 0 {
		t.Errorf("four more clean epochs allocated %d Go bytes, want 0", got)
	}
	if a.Resets != 5 {
		t.Errorf("resets = %d, want 5", a.Resets)
	}
}

// TestArenaRetentionBound: whatever mix of sizes, clones and escapes an
// arena has seen, what it keeps across epochs stays within 3 MiB.
func TestArenaRetentionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := NewArena()
	proto := &Object{Map: &Map{Name: "point"}, Fields: []Value{Int(1), Int(2)}}
	peak := 0
	for e := 0; e < 300; e++ {
		for i := rng.Intn(40); i > 0; i-- {
			switch rng.Intn(4) {
			case 0:
				a.NewVector(testVecMap, rng.Intn(64), Nil())
			case 1:
				a.NewVector(testVecMap, rng.Intn(5000), Nil())
			case 2:
				a.NewVector(testVecMap, 4097+rng.Intn(70000), Nil())
			case 3:
				a.Clone(proto)
			}
		}
		if rng.Intn(8) == 0 {
			a.MarkEscaped()
		}
		a.Reset()
		_, free := heldBytes(a)
		if free > arenaRetainMax {
			t.Fatalf("epoch %d: arena keeps %d bytes, want at most %d", e, free, arenaRetainMax)
		}
		peak = max(peak, free)
	}
	if peak < arenaRetainMax/2 {
		t.Errorf("free lists peaked at %d bytes: the mix never approached the bound", peak)
	}
}

// TestArenaUntrackedChunksSpareFreeList: once an epoch has hit the
// tracking cap, further chunks are invisible to Reset — consuming a
// recycled free list for them would permanently lose those chunks from
// the pool, silently degrading a busy worker to plain heap allocation.
// That holds for every size class: bump chunks and large vectors alike.
func TestArenaUntrackedChunksSpareFreeList(t *testing.T) {
	a := NewArena()
	for len(a.vals.tracked) < arenaMaxTracked {
		a.vals.tracked = append(a.vals.tracked, make([]Value, arenaBaseValues))
	}
	for k := range a.vals.free {
		a.vals.free[k] = append(a.vals.free[k], make([]Value, arenaBaseValues<<k))
	}
	a.allocValues(10)
	a.allocValues(8000)
	a.allocValues(60000)
	for k, l := range a.vals.free {
		if len(l) != 1 {
			t.Fatalf("untracked value chunk consumed class %d's free list (len=%d, want 1)", k, len(l))
		}
	}
	if len(a.vals.tracked) != arenaMaxTracked {
		t.Fatalf("value chunk tracked past the cap: %d", len(a.vals.tracked))
	}

	for len(a.objs.tracked) < arenaMaxTracked {
		a.objs.tracked = append(a.objs.tracked, make([]Object, arenaBaseObjs))
	}
	for k := 0; k <= arenaGrowTop; k++ {
		a.objs.free[k] = append(a.objs.free[k], make([]Object, arenaBaseObjs<<k))
	}
	for i := 0; i < 100; i++ {
		a.allocObject()
	}
	for k := 0; k <= arenaGrowTop; k++ {
		if len(a.objs.free[k]) != 1 {
			t.Fatalf("untracked object chunk consumed class %d's free list (len=%d, want 1)", k, len(a.objs.free[k]))
		}
	}
}

// span is the address range of one allocation.
type span struct{ lo, hi uintptr }

func spanOf[T any](s []T) span {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return span{lo, lo + uintptr(len(s))*unsafe.Sizeof(s[0])}
}

func overlapsAny(s span, in []span) bool {
	for _, x := range in {
		if s.lo < x.hi && x.lo < s.hi {
			return true
		}
	}
	return false
}

// FuzzArena runs random vector sizes, clones, escapes and resets
// against a model of what is live: no two live allocations overlap,
// every allocation starts zeroed or filled as asked and keeps its
// contents until its epoch ends, storage of an abandoned epoch is never
// handed out again (and keeps its contents), and what the arena keeps
// across epochs stays within 3 MiB.
func FuzzArena(f *testing.F) {
	f.Add([]byte{0, 10, 3, 200, 4, 13, 7, 0, 0, 5, 6, 0, 7, 0, 1, 1})
	f.Add([]byte{4, 255, 4, 200, 7, 0, 4, 255, 4, 200, 6, 0, 7, 0, 4, 255, 7, 0})
	f.Add([]byte{5, 0, 5, 1, 2, 63, 5, 2, 6, 0, 7, 0, 5, 3, 7, 0})
	f.Add([]byte{0, 11, 7, 0, 0, 10}) // a recycled chunk comes back zeroed
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewArena()
		proto := &Object{Map: &Map{Name: "point"}, Fields: []Value{Int(1), Int(2), Int(3)}}
		type vec struct {
			o    *Object
			fill Value
		}
		var live, abandoned []span
		var vecs, kept []vec
		checkVecs := func(vs []vec, when string) {
			for _, v := range vs {
				for i, e := range v.o.Elems {
					if !e.Eq(v.fill) {
						t.Fatalf("%s: element %d of a %d-vector is %v, want %v", when, i, len(v.o.Elems), e, v.fill)
					}
				}
			}
		}
		take := func(s span) {
			if s.lo == s.hi {
				return
			}
			if overlapsAny(s, live) {
				t.Fatalf("allocation %#x-%#x overlaps a live one", s.lo, s.hi)
			}
			if overlapsAny(s, abandoned) {
				t.Fatalf("allocation %#x-%#x reuses an abandoned epoch's storage", s.lo, s.hi)
			}
			live = append(live, s)
		}
		newVec := func(n int, fill Value) {
			o := a.NewVector(testVecMap, n, fill)
			if len(o.Elems) != n || o.Ep != a.Epoch() {
				t.Fatalf("vector of %d: len %d, epoch %d (arena at %d)", n, len(o.Elems), o.Ep, a.Epoch())
			}
			take(spanOf(unsafe.Slice(o, 1)))
			if n > 0 {
				take(spanOf(o.Elems))
			}
			checkVecs([]vec{{o, fill}}, "fresh")
			vecs = append(vecs, vec{o, fill})
		}
		for i := 0; i+1 < len(data) && i < 512; i += 2 {
			op, arg := data[i]%8, int(data[i+1])
			fill := Int(int64(i) + 1)
			if arg%5 == 0 {
				fill = Nil()
			}
			switch op {
			case 0, 1, 2:
				newVec(arg%64, fill)
			case 3:
				newVec(arg*40, fill)
			case 4:
				newVec(4097+arg*300, fill) // past 65,536 for arg > 204
			case 5:
				src := proto
				if len(vecs) > 0 && arg%2 == 1 {
					src = vecs[arg%len(vecs)].o
				}
				c := a.Clone(src)
				take(spanOf(unsafe.Slice(c, 1)))
				take(spanOf(c.Fields))
				take(spanOf(c.Elems))
				for j := range src.Fields {
					if !c.Fields[j].Eq(src.Fields[j]) {
						t.Fatalf("clone field %d = %v, want %v", j, c.Fields[j], src.Fields[j])
					}
				}
				if src != proto {
					vecs = append(vecs, vec{c, vecs[arg%len(vecs)].fill})
				}
			case 6:
				a.MarkEscaped()
			case 7:
				checkVecs(vecs, "at reset")
				if a.dirty {
					abandoned = append(abandoned, live...)
					kept = append(kept, vecs...)
				}
				live, vecs = live[:0], vecs[:0]
				a.Reset()
				if _, free := heldBytes(a); free > arenaRetainMax {
					t.Fatalf("arena keeps %d bytes across epochs, want at most %d", free, arenaRetainMax)
				}
			}
		}
		checkVecs(vecs, "at end")
		checkVecs(kept, "escaped")
	})
}
