package obj

import (
	"fmt"
	"testing"
	"testing/quick"

	"selfgo/internal/parser"
)

func loadWorld(t *testing.T, src string) *World {
	t.Helper()
	f, err := parser.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld()
	if err := w.Load(f); err != nil {
		t.Fatal(err)
	}
	w.Finalize()
	return w
}

func TestWorldBasics(t *testing.T) {
	w := NewWorld()
	if w.MapOf(Int(3)) != w.IntMap {
		t.Error("int map")
	}
	if w.MapOf(Nil()) != w.NilMap {
		t.Error("nil map")
	}
	if w.MapOf(Str("x")) != w.StrMap {
		t.Error("str map")
	}
	tv, _ := w.GlobalValue("true")
	if tv.Obj() != w.TrueObj {
		t.Error("true global")
	}
	if !w.Bool(true).Eq(tv) {
		t.Error("Bool(true)")
	}
}

func TestLoadAndLookup(t *testing.T) {
	w := loadWorld(t, `
		base = (| objectName = 'base'. greet = ( 42 ) |).
		child = (| parent* = base. x <- 7 |).
		counter <- 0.
	`)
	cv, ok := w.GlobalValue("child")
	if !ok || cv.K() != KObj {
		t.Fatalf("child = %v", cv)
	}
	// Inherited method lookup.
	r, ok := Lookup(cv.Obj().Map, "greet")
	if !ok || r.Slot.Kind != MethodSlot {
		t.Fatalf("greet lookup = %v", r)
	}
	if r.Map.Name != "base" {
		t.Errorf("holder = %s", r.Map.Name)
	}
	// Data slot and its assignment slot.
	if s := cv.Obj().Map.SlotNamed("x"); s == nil || s.Kind != DataSlot {
		t.Fatal("x slot missing")
	}
	if s := cv.Obj().Map.SlotNamed("x:"); s == nil || s.Kind != AssignSlot {
		t.Fatal("x: assignment slot missing")
	}
	if got := cv.Obj().Fields[cv.Obj().Map.SlotNamed("x").Index]; !got.Eq(Int(7)) {
		t.Errorf("x = %v", got)
	}
	// Lobby data slot.
	if v, _ := w.GlobalValue("counter"); !v.Eq(Int(0)) {
		t.Errorf("counter = %v", v)
	}
}

func TestClone(t *testing.T) {
	w := loadWorld(t, `pt = (| x <- 1. y <- 2 |).`)
	pv, _ := w.GlobalValue("pt")
	c := pv.Obj().Clone()
	if c.Map != pv.Obj().Map {
		t.Error("clone must share map")
	}
	c.Fields[0] = Int(99)
	if pv.Obj().Fields[0].Eq(Int(99)) {
		t.Error("clone must not alias fields")
	}
}

func TestVector(t *testing.T) {
	w := NewWorld()
	v := w.NewVector(3, Int(0))
	if len(v.Elems) != 3 || !v.Elems[2].Eq(Int(0)) {
		t.Fatalf("vector = %v", v)
	}
	c := v.Clone()
	c.Elems[0] = Int(5)
	if v.Elems[0].Eq(Int(5)) {
		t.Error("clone aliases elems")
	}
	if w.MapOf(Obj(v)) != w.VecMap {
		t.Error("vector map")
	}
}

func TestFinalizePatchesTraits(t *testing.T) {
	w := loadWorld(t, `
		traitsInteger = (| double = ( 2 ) |).
		traitsTrue = (| yes = ( 1 ) |).
	`)
	if _, ok := Lookup(w.IntMap, "double"); !ok {
		t.Error("int traits not patched")
	}
	if _, ok := Lookup(w.TrueObj.Map, "yes"); !ok {
		t.Error("true traits not patched")
	}
	// Finalize is idempotent.
	w.Finalize()
	if _, ok := Lookup(w.IntMap, "double"); !ok {
		t.Error("int traits lost after second finalize")
	}
}

func TestLookupCycleTolerated(t *testing.T) {
	w := loadWorld(t, `
		a = (| pa* = lobby |).
	`)
	av, _ := w.GlobalValue("a")
	// Create a cycle: lobby gets a parent pointing back at a.
	w.addSlot(w.Lobby.Map, Slot{Name: "cyc", Kind: ParentSlot, Value: av})
	if r, ok := Lookup(av.Obj().Map, "noSuchMessage"); ok {
		t.Errorf("found %v", r)
	}
	// Still finds lobby slots through the parent.
	if _, ok := Lookup(av.Obj().Map, "true"); !ok {
		t.Error("true not visible through lobby parent")
	}
}

func TestValueEqAndString(t *testing.T) {
	if !Int(3).Eq(Int(3)) || Int(3).Eq(Int(4)) || Int(3).Eq(Str("3")) {
		t.Error("int eq")
	}
	if !Str("a").Eq(Str("a")) {
		t.Error("str eq")
	}
	if !Nil().Eq(Value{}) {
		t.Error("zero value is nil")
	}
	if Int(5).String() != "5" || Nil().String() != "nil" {
		t.Error("String()")
	}
}

func TestUndefinedGlobalError(t *testing.T) {
	f, err := parser.ParseFile(`x = missingThing.`)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld()
	if err := w.Load(f); err == nil {
		t.Error("expected undefined-global error")
	}
}

func TestSmallIntBounds(t *testing.T) {
	if MaxSmallInt != 1<<29-1 || MinSmallInt != -(1<<29) {
		t.Errorf("bounds: %d %d", MinSmallInt, MaxSmallInt)
	}
}

// TestQuickClonePreservesPrototype: mutating any field of a clone never
// affects the prototype, for arbitrary field counts and indices.
func TestQuickClonePreservesPrototype(t *testing.T) {
	w := NewWorld()
	f := func(nFields uint8, idx uint8, v int32) bool {
		n := int(nFields%16) + 1
		m := &Map{Name: "p"}
		proto := &Object{Map: m, Fields: make([]Value, n)}
		for i := range proto.Fields {
			proto.Fields[i] = Int(int64(i))
		}
		c := proto.Clone()
		i := int(idx) % n
		c.Fields[i] = Int(int64(v))
		return proto.Fields[i].Eq(Int(int64(i))) && c.Map == proto.Map
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	_ = w
}

// TestLookupPrecedence: own slots shadow parents; earlier parents win.
func TestLookupPrecedence(t *testing.T) {
	w := loadWorld(t, `
		p1 = (| tag = ( 1 ). only1 = ( 10 ) |).
		p2 = (| tag = ( 2 ). only2 = ( 20 ) |).
		child = (| pa* = p1. pb* = p2. tag = ( 3 ) |).
	`)
	cv, _ := w.GlobalValue("child")
	r, ok := Lookup(cv.Obj().Map, "tag")
	if !ok || r.Map != cv.Obj().Map {
		t.Errorf("own slot should shadow parents: %+v", r)
	}
	// First parent wins for slots both parents define? They define
	// distinct slots here; both are reachable.
	_, ok1 := Lookup(cv.Obj().Map, "only1")
	_, ok2 := Lookup(cv.Obj().Map, "only2")
	if !ok1 || !ok2 {
		t.Error("parent slots not reachable")
	}
	// Declaration order: pa before pb, so a slot in both resolves to pa.
	w2 := loadWorld(t, `
		q1 = (| both = ( 1 ) |).
		q2 = (| both = ( 2 ) |).
		kid = (| pa* = q1. pb* = q2 |).
	`)
	kv, _ := w2.GlobalValue("kid")
	r2, ok := Lookup(kv.Obj().Map, "both")
	if !ok || r2.Slot.Meth == nil {
		t.Fatal("both not found")
	}
	q1v, _ := w2.GlobalValue("q1")
	if r2.Map != q1v.Obj().Map {
		t.Errorf("first parent should win, found in %s", r2.Map.Name)
	}
}

// TestInheritedDataSlotHolder: lookup reports the holder object for
// parent-inherited data slots (the storage is shared).
func TestInheritedDataSlotHolder(t *testing.T) {
	w := loadWorld(t, `
		base = (| shared <- 7 |).
		kidA = (| pa* = base |).
		kidB = (| pa* = base |).
	`)
	av, _ := w.GlobalValue("kidA")
	bv, _ := w.GlobalValue("kidB")
	basev, _ := w.GlobalValue("base")
	ra, ok := Lookup(av.Obj().Map, "shared")
	if !ok || ra.Holder != basev.Obj() {
		t.Fatalf("holder = %v, want base", ra)
	}
	// Writing through one inheritor is visible through the other: the
	// slot lives in base.
	wSlot, ok := Lookup(av.Obj().Map, "shared:")
	if !ok || wSlot.Holder != basev.Obj() {
		t.Fatal("assignment slot holder wrong")
	}
	wSlot.Holder.Fields[wSlot.Slot.Index] = Int(42)
	rb, _ := Lookup(bv.Obj().Map, "shared")
	if got := rb.Holder.Fields[rb.Slot.Index]; !got.Eq(Int(42)) {
		t.Errorf("shared storage not shared: %v", got)
	}
}

// TestArenaEpochsGloballyUnique: epoch numbers are identity for the
// store barrier's `Ep != curEp` compare, so no two arenas may ever
// observe the same epoch — including across resets. Per-arena counters
// (the original bug) would hand every fresh arena epoch 1.
func TestArenaEpochsGloballyUnique(t *testing.T) {
	a, b := NewArena(), NewArena()
	seen := map[uint32]bool{}
	for i := 0; i < 50; i++ {
		for _, ar := range []*Arena{a, b} {
			e := ar.Epoch()
			if e == 0 {
				t.Fatal("live arena at reserved epoch 0")
			}
			if seen[e] {
				t.Fatalf("epoch %d observed twice across arenas", e)
			}
			seen[e] = true
			ar.Reset()
		}
	}
}

// TestInternBounded: the intern table must not grow without bound —
// guests mint strings — and dropping a generation must not break
// string equality for Values that span the boundary.
func TestInternBounded(t *testing.T) {
	before := Str("intern-generation-probe")
	for i := 0; i < internMaxEntries+16; i++ {
		Intern(fmt.Sprintf("intern-bound-filler-%d", i))
	}
	if n := internLen(); n > internMaxEntries {
		t.Fatalf("intern table grew past its cap: %d > %d", n, internMaxEntries)
	}
	after := Str("intern-generation-probe")
	if !before.Eq(after) || !after.Eq(before) {
		t.Fatal("string equality broken across intern generations")
	}
	if before.S() != "intern-generation-probe" || after.S() != "intern-generation-probe" {
		t.Fatalf("string payload corrupted across generations: %q / %q", before.S(), after.S())
	}
}
