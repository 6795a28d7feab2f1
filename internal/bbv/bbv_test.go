package bbv

import (
	"fmt"
	"testing"

	"selfgo/internal/obj"
)

func testMaps(n int) []*obj.Map {
	out := make([]*obj.Map, n)
	for i := range out {
		out[i] = &obj.Map{ID: i + 1, Name: fmt.Sprintf("m%d", i+1)}
	}
	return out
}

func TestContextWithGetWithout(t *testing.T) {
	m := testMaps(3)
	c := EmptyContext()
	if c.Len() != 0 || c.Key() != "" || c.UsesShape() || c.Generation() != NoShapeGen {
		t.Fatalf("empty context: len=%d key=%q usesShape=%v gen=%d", c.Len(), c.Key(), c.UsesShape(), c.Generation())
	}
	c = c.With(3, m[0], false, NoShapeGen)
	c = c.With(1, m[1], false, NoShapeGen)
	c = c.With(7, m[2], false, NoShapeGen)
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	// Facts come back sorted by register regardless of insertion order.
	for i, want := range []struct {
		reg int32
		m   *obj.Map
	}{{1, m[1]}, {3, m[0]}, {7, m[2]}} {
		f := c.Get(want.reg)
		if f == nil || f.Map != want.m {
			t.Fatalf("fact %d (reg %d): got %+v, want map %s", i, want.reg, f, want.m.Name)
		}
	}
	if c.Get(2) != nil || c.Get(0) != nil || c.Get(100) != nil {
		t.Fatal("Get on absent registers must return nil")
	}
	// Overwrite keeps the set size and replaces the map.
	c2 := c.With(3, m[2], false, NoShapeGen)
	if c2.Len() != 3 || c2.Get(3).Map != m[2] {
		t.Fatalf("overwrite: len=%d map=%v", c2.Len(), c2.Get(3).Map)
	}
	// The original is untouched (immutability).
	if c.Get(3).Map != m[0] {
		t.Fatal("With mutated the receiver")
	}
	// Without removes exactly one fact.
	c3 := c.Without(3)
	if c3.Len() != 2 || c3.Get(3) != nil || c3.Get(1) == nil || c3.Get(7) == nil {
		t.Fatalf("Without(3): len=%d", c3.Len())
	}
	// Without on an absent register is identity.
	if c3.Without(42).Len() != 2 {
		t.Fatal("Without on absent register changed the context")
	}
	// With(nil map) kills the fact.
	if c.With(3, nil, false, NoShapeGen).Get(3) != nil {
		t.Fatal("With(nil) must drop the fact")
	}
}

func TestContextKey(t *testing.T) {
	m := testMaps(2)
	a := EmptyContext().With(1, m[0], false, NoShapeGen).With(2, m[1], false, NoShapeGen)
	b := EmptyContext().With(2, m[1], false, NoShapeGen).With(1, m[0], false, NoShapeGen)
	if a.Key() != b.Key() {
		t.Fatal("insertion order must not change the key")
	}
	// Different map → different key.
	if a.Key() == EmptyContext().With(1, m[1], false, NoShapeGen).With(2, m[1], false, NoShapeGen).Key() {
		t.Fatal("different maps must yield different keys")
	}
	// Same facts but shape provenance differs → different key (a shape
	// fact needs a run-time guard the pure fact doesn't).
	if a.Key() == EmptyContext().With(1, m[0], true, 5).With(2, m[1], false, NoShapeGen).Key() {
		t.Fatal("shape provenance must be part of the key")
	}
}

func TestContextGeneration(t *testing.T) {
	m := testMaps(2)
	// Pure facts: no generation.
	c := EmptyContext().With(1, m[0], false, NoShapeGen)
	if c.UsesShape() || c.Generation() != NoShapeGen {
		t.Fatal("pure context must not carry a shape generation")
	}
	// A shape fact stamps its generation; a second, older one lowers it.
	c = c.With(2, m[1], true, 7)
	if !c.UsesShape() || c.Generation() != 7 {
		t.Fatalf("gen = %d, want 7", c.Generation())
	}
	c2 := c.With(3, m[0], true, 4)
	if c2.Generation() != 4 {
		t.Fatalf("gen = %d, want min(7,4)=4", c2.Generation())
	}
	// Dropping the last shape fact restores NoShapeGen.
	c3 := c.Without(2)
	if c3.UsesShape() || c3.Generation() != NoShapeGen {
		t.Fatalf("after dropping the shape fact: gen = %d, want NoShapeGen", c3.Generation())
	}
	// Overwriting the shape fact with a pure one does too.
	c4 := c.With(2, m[1], false, NoShapeGen)
	if c4.UsesShape() {
		t.Fatal("overwriting the shape fact with a pure one must clear the generation")
	}
}

func TestVersionFreshAndOut(t *testing.T) {
	m := testMaps(1)
	v := &Version{ShapeGen: NoShapeGen}
	if !v.Fresh(0) || !v.Fresh(99) {
		t.Fatal("a version with no shape facts is always fresh")
	}
	v = &Version{ShapeGen: 3}
	if !v.Fresh(3) || v.Fresh(4) {
		t.Fatal("a shape version is fresh only at its own generation")
	}
	outT := EmptyContext().With(1, m[0], false, NoShapeGen)
	v = &Version{OutT: outT, OutF: EmptyContext()}
	if v.Out(true).Len() != 1 || v.Out(false).Len() != 0 {
		t.Fatal("Out must select the per-edge context")
	}
	// Successor memoization round-trips per edge.
	sT, sF := &Version{Entry: 10}, &Version{Entry: 20}
	if v.Succ(true) != nil || v.Succ(false) != nil {
		t.Fatal("successors start nil")
	}
	v.SetSucc(true, sT)
	v.SetSucc(false, sF)
	if v.Succ(true) != sT || v.Succ(false) != sF {
		t.Fatal("SetSucc/Succ must round-trip per edge")
	}
}

// countingMat is a materializer stub that tags versions in creation
// order.
func countingMat() (func(*Version), *int) {
	n := new(int)
	return func(v *Version) {
		*n++
		v.Bytes = int64(*n)
	}, n
}

func TestStateEnterReuse(t *testing.T) {
	m := testMaps(1)
	st := NewState()
	mat, calls := countingMat()
	ctx := EmptyContext().With(1, m[0], false, NoShapeGen)

	v1, materialized, capped := st.Enter(0, ctx, 0, mat)
	if !materialized || capped || v1 == nil {
		t.Fatalf("first entry: materialized=%v capped=%v", materialized, capped)
	}
	// Same context again: reused, no new materialization.
	v2, materialized, capped := st.Enter(0, ctx, 0, mat)
	if materialized || capped || v2 != v1 {
		t.Fatalf("second entry: materialized=%v capped=%v same=%v", materialized, capped, v2 == v1)
	}
	if *calls != 1 {
		t.Fatalf("materializer ran %d times, want 1", *calls)
	}
	vers, caps := st.Counts()
	if vers != 1 || caps != 0 {
		t.Fatalf("Counts = (%d, %d), want (1, 0)", vers, caps)
	}
	if st.VersionsAt(0) != 1 {
		t.Fatalf("VersionsAt(0) = %d, want 1", st.VersionsAt(0))
	}
}

func TestStateEnterCap(t *testing.T) {
	maps := testMaps(MaxVers + 5)
	st := NewState()
	mat, _ := countingMat()

	// MaxVers distinct contexts fill the table.
	for i := 0; i < MaxVers; i++ {
		ctx := EmptyContext().With(1, maps[i], false, NoShapeGen)
		if _, materialized, capped := st.Enter(0, ctx, 0, mat); !materialized || capped {
			t.Fatalf("context %d should materialize under the cap", i)
		}
	}
	// The next five distinct contexts are all served the SAME generic
	// fallback and counted as cap hits; the table stays at the cap.
	var generic *Version
	for i := MaxVers; i < len(maps); i++ {
		ctx := EmptyContext().With(1, maps[i], false, NoShapeGen)
		v, _, capped := st.Enter(0, ctx, 0, mat)
		if !capped {
			t.Fatalf("context %d must be capped", i)
		}
		if !v.Generic {
			t.Fatalf("context %d must be served the generic version", i)
		}
		if generic == nil {
			generic = v
		} else if v != generic {
			t.Fatal("all capped contexts must share one generic version")
		}
	}
	if st.VersionsAt(0) != MaxVers {
		t.Fatalf("VersionsAt(0) = %d, want the cap %d", st.VersionsAt(0), MaxVers)
	}
	vers, caps := st.Counts()
	// MaxVers specialized + 1 generic materialized; 5 cap hits.
	if vers != MaxVers+1 || caps != 5 {
		t.Fatalf("Counts = (%d, %d), want (%d, 5)", vers, caps, MaxVers+1)
	}
	// The generic version itself (empty context) is always reusable and
	// never a cap hit.
	if v, materialized, capped := st.Enter(0, EmptyContext(), 0, mat); materialized || capped || v != generic {
		t.Fatalf("empty-context entry: materialized=%v capped=%v same=%v", materialized, capped, v == generic)
	}
}

func TestStateEnterShapeStaleness(t *testing.T) {
	m := testMaps(1)
	st := NewState()
	// The materializer simulates a region that derives a shape fact at
	// the current world generation.
	var worldGen uint64 = 1
	mat := func(v *Version) { v.ShapeGen = worldGen }

	ctx := EmptyContext().With(1, m[0], true, 1)
	v1, materialized, _ := st.Enter(0, ctx, worldGen, mat)
	if !materialized || v1.ShapeGen != 1 {
		t.Fatalf("first entry: materialized=%v gen=%d", materialized, v1.ShapeGen)
	}

	// A widening moves the world on. A flow arriving with a CURRENT
	// context must not be handed the stale version: it re-materializes
	// in place, regaining elisions at the new generation.
	worldGen = 2
	ctx2 := EmptyContext().With(1, m[0], true, 2)
	v2, materialized, _ := st.Enter(0, ctx2, worldGen, mat)
	if !materialized || v2.ShapeGen != 2 {
		t.Fatalf("post-widening entry: materialized=%v gen=%d", materialized, v2.ShapeGen)
	}
	if st.VersionsAt(0) != 1 {
		t.Fatalf("refresh must replace in place, VersionsAt = %d", st.VersionsAt(0))
	}

	// A flow arriving with an OLDER context generation than the stored
	// version must not reuse it either (its guards could pass on facts
	// the flow never verified): Enter re-materializes.
	ctxOld := EmptyContext().With(1, m[0], true, 1)
	v3, materialized, _ := st.Enter(0, ctxOld, worldGen, mat)
	if !materialized {
		t.Fatalf("older-flow entry must re-materialize, got reuse of gen %d", v3.ShapeGen)
	}
}
