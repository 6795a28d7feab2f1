package selfgo_test

import (
	"testing"

	"selfgo"
)

// bbvMegamorphic drives one merge-heavy method: three independent
// comparisons whose boolean results all stay live across the three
// conditionals that consume them, so the merge points after each
// conditional see up to eight distinct fact combinations — far more
// contexts than a small version cap admits. (The results are held in
// locals on purpose: a temporary's fact dies with its slot once
// register allocation coalesces copies.)
const bbvMegamorphic = `
go: n = ( | s <- 0 |
    1 to: n Do: [ :i |
        | a. b. c |
        a: (i % 2) = 0. b: (i % 3) = 0. c: (i % 5) = 0.
        a ifTrue: [ s: s + 1 ].
        b ifTrue: [ s: s + 2 ].
        c ifTrue: [ s: s + 3 ].
        a ifTrue: [ s: s + 1 ].
        b ifTrue: [ s: s + 2 ].
        s: s + i ].
    s ).`

// TestBBVVersionCapBound: a megamorphic program plateaus at maxvers
// specialized versions per block, with the overflow served by the
// generic fallback — so the version store (host memory) is bounded no
// matter how many contexts flow through. All counter-asserted: cap
// hits observed, per-block tables never exceed the cap, and a second
// run materializes nothing new.
func TestBBVVersionCapBound(t *testing.T) {
	const maxVers = 2
	cfg := bbvStrategyConfig(selfgo.StrategyBBV)
	cfg.MaxVers = maxVers

	// The split strategy pins the expected value.
	ref, err := selfgo.NewSystem(bbvStrategyConfig(selfgo.StrategySplit))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.LoadSource(bbvMegamorphic); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Call("go:", selfgo.IntValue(300))
	if err != nil {
		t.Fatal(err)
	}

	sys, err := selfgo.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadSource(bbvMegamorphic); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Call("go:", selfgo.IntValue(300))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.I() != want.Value.I() {
		t.Fatalf("capped bbv computed %d, split computed %d", res.Value.I(), want.Value.I())
	}
	if res.Run.BBVCapHits <= 0 {
		t.Fatal("no cap hits recorded: the program is not megamorphic enough to test the bound")
	}
	if res.Run.BBVVersions <= 0 {
		t.Fatal("no versions materialized")
	}

	code, err := sys.CodeFor("go:")
	if err != nil {
		t.Fatal(err)
	}
	st := code.BBVState()
	if st == nil {
		t.Fatal("bbv strategy compiled code without a version store")
	}
	if st.MaxVers() != maxVers {
		t.Fatalf("MaxVers = %d, want the configured %d", st.MaxVers(), maxVers)
	}
	// The bound itself: no block's specialized table ever exceeds the
	// cap, however many contexts arrived.
	if max := st.PerBlockMax(); max > maxVers {
		t.Fatalf("a block holds %d specialized versions, cap is %d", max, maxVers)
	}
	versBefore, capsBefore := st.Counts()
	if capsBefore != res.Run.BBVCapHits {
		t.Fatalf("store counted %d cap hits, run recorded %d", capsBefore, res.Run.BBVCapHits)
	}

	// Plateau: the same workload again materializes zero new versions —
	// every context is either memoized or capped onto the existing
	// generic fallback, so host memory stops growing.
	res2, err := sys.Call("go:", selfgo.IntValue(300))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Value.I() != want.Value.I() {
		t.Fatalf("second run computed %d, want %d", res2.Value.I(), want.Value.I())
	}
	versAfter, _ := st.Counts()
	if versAfter != versBefore {
		t.Fatalf("second run grew the version store: %d -> %d versions", versBefore, versAfter)
	}
	if res2.Run.BBVVersions != 0 {
		t.Fatalf("second run recorded %d fresh versions, want 0 (plateau)", res2.Run.BBVVersions)
	}
	if max := st.PerBlockMax(); max > maxVers {
		t.Fatalf("after the second run a block holds %d versions, cap is %d", max, maxVers)
	}
}

// bbvShapeProgram: bump is reached through polymorphic dispatch, so it
// compiles out-of-line as a customization of point's map and lands in
// the shared code cache — the same dependency shape as the slot
// reclassification oracle (TestSharedCacheInvalidation). Its x + 1
// specializes on point's typed shape tag for x.
const bbvShapeProgram = `
point = (| parent* = lobby. x <- 1.
    bump = ( x + 1 ).
    setX: v = ( x: v ) |).
other = (| parent* = lobby. bump = ( 7 ) |).
pick: i = ( ((i % 2) = 0) ifTrue: [ ^ point ]. other ).
drive: n = ( | s <- 0 | 1 to: n Do: [ :i | s: s + (pick: i) bump ]. s ).`

// TestBBVShapeInvalidation: storing a value of a new type into a slot
// BBV shape-specialized against must invalidate through the ordinary
// OnMapChange path — the widening evicts point's customizations from
// the shared cache and the next run recompiles them, exactly the
// misses/evictions accounting the reclassification oracle pins. After
// the widening the program still computes the identical value; the
// shape elisions are gone for good (a widened tag never narrows).
func TestBBVShapeInvalidation(t *testing.T) {
	sys, err := selfgo.NewTieredSystem(bbvStrategyConfig(selfgo.StrategyBBV), selfgo.ModeOpt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadSource(bbvShapeProgram); err != nil {
		t.Fatal(err)
	}
	res1, err := sys.Call("drive:", selfgo.IntValue(50))
	if err != nil {
		t.Fatal(err)
	}
	// 25 polymorphic laps each way: 25*(1+1) + 25*7.
	if res1.Value.I() != 225 {
		t.Fatalf("drive: 50 = %d, want 225", res1.Value.I())
	}
	if res1.Run.BBVElidedShape <= 0 {
		t.Fatal("no shape-derived elisions recorded: the test is not exercising typed shapes")
	}
	before := sys.CacheStats()

	// The widening store: x held smallInt everywhere, now a string.
	if _, err := sys.Eval("point setX: 'str'"); err != nil {
		t.Fatal(err)
	}
	mid := sys.CacheStats()
	if mid.Evicted <= before.Evicted {
		t.Fatalf("widening evicted nothing: evicted %d -> %d", before.Evicted, mid.Evicted)
	}

	// Restore an integer and re-run: the value is untouched, the evicted
	// customizations recompile (misses grow), and no shape elision ever
	// fires again — PolyShape is permanent.
	if _, err := sys.Eval("point setX: 1"); err != nil {
		t.Fatal(err)
	}
	res2, err := sys.Call("drive:", selfgo.IntValue(50))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Value.I() != 225 {
		t.Fatalf("post-widening drive: 50 = %d, want 225", res2.Value.I())
	}
	if res2.Run.BBVElidedShape != 0 {
		t.Fatalf("post-widening run still elided %d shape tests; the tag must stay polymorphic", res2.Run.BBVElidedShape)
	}
	after := sys.CacheStats()
	if after.Misses <= mid.Misses {
		t.Fatalf("post-widening run recompiled nothing: misses %d -> %d", mid.Misses, after.Misses)
	}
}
