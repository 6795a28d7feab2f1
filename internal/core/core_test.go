package core

import (
	"strings"
	"testing"

	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/parser"
	"selfgo/internal/prelude"
)

// buildWorld loads the prelude plus src into a fresh world.
func buildWorld(t *testing.T, src string) *obj.World {
	t.Helper()
	w := obj.NewWorld()
	for _, s := range []string{prelude.Source, src} {
		f, err := parser.ParseFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Load(f); err != nil {
			t.Fatal(err)
		}
	}
	w.Finalize()
	return w
}

// compileLobby compiles the lobby method named sel under cfg.
func compileLobby(t *testing.T, w *obj.World, cfg Config, sel string) (*ir.Graph, *Stats) {
	t.Helper()
	r, ok := obj.Lookup(w.Lobby.Map, sel)
	if !ok || r.Slot.Kind != obj.MethodSlot {
		t.Fatalf("no method %q", sel)
	}
	rmap := w.Lobby.Map
	if !cfg.Customization {
		rmap = nil
	}
	g, st, err := New(w, cfg).CompileMethod(r.Slot.Meth, rmap)
	if err != nil {
		t.Fatalf("compile %s: %v", sel, err)
	}
	return g, st
}

const triangleSrc = `triangleNumber: n = ( | sum <- 0 |
	1 upTo: n Do: [ :i | sum: sum + i ].
	sum ).`

// TestTriangleNumberMultiVersion reproduces the §5.3 worked example
// (F1): with multi-version loops the compiler emits a common-case loop
// version containing NO type tests (the gray box), plus a general
// version carrying the tests — effectively hoisting the n-is-integer
// test out of the loop.
func TestTriangleNumberMultiVersion(t *testing.T) {
	w := buildWorld(t, triangleSrc)
	g, st := compileLobby(t, w, NewSELFMultiLoop, "triangleNumber:")

	if st.LoopVersions != 2 {
		t.Fatalf("loop versions = %d, want 2\n%s", st.LoopVersions, g.Dump())
	}
	// Partition the loop bodies: walk from each LoopHead to the back
	// edge counting type tests on the common (non-uncommon) path.
	var heads []*ir.Node
	for _, n := range g.Reachable() {
		if n.Op == ir.LoopHead {
			heads = append(heads, n)
		}
	}
	if len(heads) != 2 {
		t.Fatalf("found %d loop heads", len(heads))
	}
	counts := map[*ir.Node]int{}
	for _, h := range heads {
		seen := map[*ir.Node]bool{}
		var walk func(n *ir.Node)
		walk = func(n *ir.Node) {
			if n == nil || seen[n] || (n.Op == ir.LoopHead && n != h) {
				return
			}
			seen[n] = true
			if n.Op == ir.TypeTest && !n.Uncommon {
				counts[h]++
			}
			for _, s := range n.Succ {
				if s != nil && !s.Uncommon {
					walk(s)
				}
			}
		}
		walk(h)
	}
	var common *ir.Node
	for _, h := range heads {
		if strings.Contains(h.Note, "common-case") {
			common = h
		}
	}
	if common == nil {
		t.Fatalf("no head marked common-case\n%s", g.Dump())
	}
	if counts[common] != 0 {
		t.Errorf("common-case loop version contains %d type tests, want 0 (the §5.3 gray box)\n%s",
			counts[common], g.Dump())
	}
	for _, h := range heads {
		if h != common && counts[h] == 0 {
			t.Errorf("general loop version has no type tests — nothing was hoisted")
		}
	}
	// §5.3: the remaining overflow check on sum cannot be eliminated;
	// the increment's check is removed by range analysis.
	if st.RemovedOvfl == 0 {
		t.Error("range analysis removed no overflow checks")
	}
}

// TestIterativeAnalysisIterates checks §5.1: the loop body is
// recompiled until the fix-point (at least two iterations for the
// constant-seeded counter of triangleNumber).
func TestIterativeAnalysisIterates(t *testing.T) {
	w := buildWorld(t, triangleSrc)
	_, st := compileLobby(t, w, NewSELF, "triangleNumber:")
	if st.LoopIterations < 2 {
		t.Errorf("loop iterations = %d, want >= 2", st.LoopIterations)
	}
	// The paper's generalization rule reaches the fix-point quickly.
	if st.LoopIterations > 8 {
		t.Errorf("loop iterations = %d: generalization failed to converge quickly", st.LoopIterations)
	}
}

// TestPessimisticLoops checks that the old compiler's strategy leaves
// the loop-carried variables unknown: type tests remain in the loop.
func TestPessimisticLoops(t *testing.T) {
	w := buildWorld(t, triangleSrc)
	gOld, stOld := compileLobby(t, w, OldSELF89, "triangleNumber:")
	gNew, _ := compileLobby(t, w, NewSELF, "triangleNumber:")
	if stOld.LoopIterations != 0 {
		// pessimize runs discovery simulations but no iterative
		// refinement is recorded as iterations
		t.Logf("note: old compiler recorded %d iterations", stOld.LoopIterations)
	}
	oldTests := gOld.ComputeStats().TypeTests
	newTests := gNew.ComputeStats().TypeTests
	// Static counts are similar, but the OLD graph tests the counter
	// and accumulator inside the loop; the new one proves them integer.
	// Compare dynamic shape instead: the new graph removes at least one
	// overflow check that the old one keeps.
	oldOvfl := gOld.ComputeStats().OverflowChecks
	newOvfl := gNew.ComputeStats().OverflowChecks
	if newOvfl >= oldOvfl {
		t.Errorf("overflow checks: new %d vs old %d — range analysis bought nothing", newOvfl, oldOvfl)
	}
	_ = oldTests
	_ = newTests
}

// TestPrimitiveInliningChecks (F2) verifies §3.2.3 at the graph level:
// unknown operands keep both type tests and the overflow check; known
// small ranges eliminate all three.
func TestPrimitiveInliningChecks(t *testing.T) {
	w := buildWorld(t, `
		addUnknown: a And: b = ( a _IntAdd: b ).
		addKnown = ( | x <- 3. y <- 4 | x _IntAdd: y ).
		addHalfKnown: b = ( 3 _IntAdd: b ).
	`)
	g, _ := compileLobby(t, w, NewSELF, "addUnknown:And:")
	s := g.ComputeStats()
	if s.TypeTests != 2 {
		t.Errorf("addUnknown: %d type tests, want 2 (receiver and argument)\n%s", s.TypeTests, g.Dump())
	}
	if s.OverflowChecks != 1 {
		t.Errorf("addUnknown: %d overflow checks, want 1", s.OverflowChecks)
	}

	g, st := compileLobby(t, w, NewSELF, "addKnown")
	s = g.ComputeStats()
	if s.TypeTests != 0 || s.OverflowChecks != 0 {
		t.Errorf("addKnown: %d tests, %d overflow checks, want 0/0 (constant folding)\n%s",
			s.TypeTests, s.OverflowChecks, g.Dump())
	}
	if st.FoldedPrims == 0 {
		t.Error("addKnown: primitive was not constant-folded")
	}

	g, _ = compileLobby(t, w, NewSELF, "addHalfKnown:")
	s = g.ComputeStats()
	if s.TypeTests != 1 {
		t.Errorf("addHalfKnown: %d type tests, want 1 (argument only)", s.TypeTests)
	}
}

// TestComparisonFoldingOnRanges checks §3.2.3's range-based folding:
// comparing provably-disjoint subranges compiles to a constant.
func TestComparisonFoldingOnRanges(t *testing.T) {
	w := buildWorld(t, `
		cmp = ( | a <- 3. b <- 100 | (a < b) ifTrue: [ 1 ] False: [ 2 ] ).
	`)
	g, _ := compileLobby(t, w, NewSELF, "cmp")
	for _, n := range g.Reachable() {
		if n.Op == ir.CmpBr {
			t.Errorf("comparison was not folded:\n%s", g.Dump())
			break
		}
	}
}

// TestExtendedSplitting (F3) reproduces the §4 figure: a merge dilutes
// the type of x, and a later send of a predicted selector must either
// be split back (extended splitting: no run-time test of x after the
// merge on the common path... the split versions know the type) or
// re-test at run time.
func TestExtendedSplitting(t *testing.T) {
	// x is 3 or 4 after the conditional — an integer either way, but
	// through a merge. Intervening statements separate the merge from
	// the use, so local splitting alone cannot recover the type.
	src := `
	split: c = ( | x. pad <- 0 |
		(c = 0) ifTrue: [ x: 3 ] False: [ x: 4 ].
		pad: pad + 1.
		pad: pad + 2.
		x + 10 ).`
	w := buildWorld(t, src)

	// With extended splitting the x+10 send is compiled on both arms:
	// no type test of x survives (both arms know x exactly), and the
	// compiler records kept splits.
	g, st := compileLobby(t, w, NewSELF, "split:")
	testsOnX := 0
	for _, n := range g.Reachable() {
		if n.Op == ir.TypeTest && !n.Uncommon {
			testsOnX++
		}
	}
	// The only legitimate test is on c (argument of =); x needs none.
	if testsOnX > 1 {
		t.Errorf("extended splitting left %d common-path type tests, want <= 1 (only on c)\n%s", testsOnX, g.Dump())
	}
	if st.Splits == 0 {
		t.Error("no splits recorded under extended splitting")
	}

	// Without extended splitting the merge forms, the constants are
	// merged, and the + must re-discover x's type at run time.
	cfg := NewSELF
	cfg.Name = "no-ext"
	cfg.ExtendedSplitting = false
	g2, _ := compileLobby(t, w, cfg, "split:")
	testsNoExt := 0
	for _, n := range g2.Reachable() {
		if n.Op == ir.TypeTest && !n.Uncommon {
			testsNoExt++
		}
	}
	if testsNoExt <= testsOnX {
		t.Errorf("disabling extended splitting should add type tests: ext=%d noext=%d", testsOnX, testsNoExt)
	}
}

// TestSplitBudgetForcesMerge: a tiny copied-node threshold forces the
// compiler to merge (forming merge types) instead of splitting.
func TestSplitBudgetForcesMerge(t *testing.T) {
	src := `
	split: c = ( | x |
		(c = 0) ifTrue: [ x: 3 ] False: [ x: 4 ].
		c print. c print. c print. c print. c print. c print.
		x + 10 ).`
	w := buildWorld(t, src)
	cfg := NewSELF
	cfg.SplitNodeThreshold = 2
	_, st := compileLobby(t, w, cfg, "split:")
	if st.ForcedMerges == 0 {
		t.Error("tiny split budget never forced a merge")
	}
}

// TestTypePredictionInsertsTest: a + on an unknown receiver gets an
// integer type test with the true send out of line (§3.2.2).
func TestTypePredictionInsertsTest(t *testing.T) {
	w := buildWorld(t, `bump: x = ( x + 1 ).`)
	g, _ := compileLobby(t, w, NewSELF, "bump:")
	var hasIntTest, hasUncommonSend bool
	for _, n := range g.Reachable() {
		if n.Op == ir.TypeTest && n.TestMap == w.IntMap {
			hasIntTest = true
		}
		if n.Op == ir.Send && n.Uncommon && n.Sel == "+" {
			hasUncommonSend = true
		}
	}
	if !hasIntTest {
		t.Errorf("no integer type test inserted:\n%s", g.Dump())
	}
	if !hasUncommonSend {
		t.Errorf("the non-integer case should be an out-of-line send:\n%s", g.Dump())
	}
}

// TestCustomizationKnowsReceiver: under customization a method sees its
// receiver's map, so self sends inline with zero dynamic sends; without
// customization (ST-80) the self send stays dynamic.
func TestCustomizationKnowsReceiver(t *testing.T) {
	src := `
	o = (| parent* = lobby. double = ( two * 2 ). two = ( 2 ) |).
	`
	w := buildWorld(t, src)
	ov, _ := w.GlobalValue("o")
	r, _ := obj.Lookup(ov.Obj().Map, "double")

	g, _, err := New(w, NewSELF).CompileMethod(r.Slot.Meth, ov.Obj().Map)
	if err != nil {
		t.Fatal(err)
	}
	// Customization: self's map is known, "two" inlines to a constant,
	// and the multiply folds: no sends anywhere, common or uncommon.
	if s := g.ComputeStats(); s.Sends != 0 {
		t.Errorf("customized compile kept %d dynamic sends\n%s", s.Sends, g.Dump())
	}

	g2, _, err := New(w, ST80).CompileMethod(r.Slot.Meth, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := g2.ComputeStats(); s.Sends == 0 {
		t.Errorf("uncustomized compile should keep a dynamic send\n%s", g2.Dump())
	}
}

// TestBoundsChecksRemain documents the §7 limitation our reproduction
// shares with the paper: the upper array bounds check survives because
// the index range overlaps the (unknown) vector length.
func TestBoundsChecksRemain(t *testing.T) {
	w := buildWorld(t, `
	sumVec: n = ( | s <- 0. v |
		v: vector copySize: n.
		0 upTo: n Do: [ :i | s: s + (v at: i) ].
		s ).`)
	g, _ := compileLobby(t, w, NewSELF, "sumVec:")
	s := g.ComputeStats()
	if s.BoundsChecks == 0 {
		t.Errorf("expected a surviving upper bounds check\n%s", g.Dump())
	}
	// The lower bound (i >= 0) is provable by range analysis: only the
	// upper check should remain per at: on the common path.
	for _, n := range g.Reachable() {
		if n.Op == ir.CmpBr && strings.HasPrefix(n.Note, "bounds(lower)") && !n.Uncommon {
			t.Errorf("lower bounds check not eliminated by range analysis:\n%s", g.Dump())
		}
	}
	// And the C stand-in drops them all.
	gc, _ := compileLobby(t, w, StaticIdealC, "sumVec:")
	if sc := gc.ComputeStats(); sc.BoundsChecks != 0 {
		t.Errorf("static-ideal kept %d bounds checks", sc.BoundsChecks)
	}
}

// TestUncommonCodeOutOfLine: assembled failure paths land after the
// main body (the paper's out-of-line failure blocks).
func TestUncommonCodeOutOfLine(t *testing.T) {
	w := buildWorld(t, `bump: x = ( x + 1 ).`)
	g, _ := compileLobby(t, w, NewSELF, "bump:")
	// Find positions: every common node's reachable-order index must
	// precede the first uncommon Send in the assembled code. We check
	// via the ir dump ordering after assembly in vm tests; here, just
	// assert the uncommon markers exist.
	uncommon := 0
	for _, n := range g.Reachable() {
		if n.Uncommon {
			uncommon++
		}
	}
	if uncommon == 0 {
		t.Error("no uncommon nodes marked")
	}
}

// TestStaticIdealHasNoChecks: the optimized-C stand-in compiles the
// triangleNumber loop to the §5.3 "gray box" with nothing but moves,
// compares and adds.
func TestStaticIdealHasNoChecks(t *testing.T) {
	w := buildWorld(t, triangleSrc)
	g, _ := compileLobby(t, w, StaticIdealC, "triangleNumber:")
	s := g.ComputeStats()
	if s.TypeTests != 0 || s.OverflowChecks != 0 || s.Sends != 0 || s.BoundsChecks != 0 {
		t.Errorf("static ideal kept checks: %+v\n%s", s, g.Dump())
	}
}

// TestMergeTypesKeepIdentity: after a forced merge of int with unknown,
// prediction still splits the + (the merge type retains the integer
// constituent, so the test is against int, not a blind guess).
func TestMergeTypesKeepIdentity(t *testing.T) {
	w := buildWorld(t, `
	m: c With: u = ( | x |
		(c = 0) ifTrue: [ x: 3 ] False: [ x: u ].
		x + 1 ).`)
	cfg := NewSELF
	cfg.ExtendedSplitting = false // force the merge
	g, _ := compileLobby(t, w, cfg, "m:With:")
	// x is merge{int, ?}: the + needs exactly one test on x.
	var tests int
	for _, n := range g.Reachable() {
		if n.Op == ir.TypeTest && n.TestMap == w.IntMap && !n.Uncommon {
			tests++
		}
	}
	if tests == 0 {
		t.Errorf("no integer test on the merged receiver:\n%s", g.Dump())
	}
}

// TestInlineBudgetRespected: a method bigger than the budget compiles
// as a call, not inline.
func TestInlineBudgetRespected(t *testing.T) {
	big := `big = ( 1 print. 2 print. 3 print. 4 print. 5 print. 6 print. 7 print. 8 print. 9 print. 10 print. 0 ).
	        go = ( big ).`
	w := buildWorld(t, big)
	cfg := NewSELF
	cfg.InlineBudget = 5
	g, _ := compileLobby(t, w, cfg, "go")
	var hasCall bool
	for _, n := range g.Reachable() {
		if n.Op == ir.Call && n.Callee.Sel == "big" {
			hasCall = true
		}
	}
	if !hasCall {
		t.Errorf("oversized method was inlined despite the budget:\n%s", g.Dump())
	}
}

// TestRecursionCompilesAsCall: self-recursion cannot unroll forever.
func TestRecursionCompilesAsCall(t *testing.T) {
	w := buildWorld(t, `f: n = ( (n = 0) ifTrue: [ 0 ] False: [ f: n - 1 ] ).`)
	g, _ := compileLobby(t, w, NewSELF, "f:")
	var hasSelfCall bool
	for _, n := range g.Reachable() {
		if n.Op == ir.Call && n.Callee.Sel == "f:" {
			hasSelfCall = true
		}
	}
	if !hasSelfCall {
		t.Errorf("recursive send neither called nor bounded:\n%s", g.Dump())
	}
}

// TestLoopVersionStats: multi-version only splits when merge types
// arise; a loop over fully-known types stays single-version.
func TestLoopVersionStats(t *testing.T) {
	w := buildWorld(t, `go = ( | s <- 0 | 1 upTo: 10 Do: [ :i | s: s + i ]. s ).`)
	_, st := compileLobby(t, w, NewSELFMultiLoop, "go")
	// sum's overflow failure path still introduces {int, ?}, so two
	// versions are expected here too — but a loop with no failure
	// paths stays single-version:
	if st.LoopVersions == 0 {
		t.Fatal("no loops compiled")
	}
	w2 := buildWorld(t, `go2 = ( | s <- 0 | 1 upTo: 10 Do: [ :i | s: i ]. s ).`)
	_, st2 := compileLobby(t, w2, NewSELFMultiLoop, "go2")
	if st2.LoopVersions != 1 {
		t.Errorf("assignment-only loop compiled %d versions, want 1", st2.LoopVersions)
	}
}

// TestComparisonFactsEliminateRepeatedBounds exercises the §7
// future-work extension on the guarded-access pattern the paper
// describes: "the index is still always less than the array length, and
// so the array bounds check can be eliminated". The guard's comparison
// proves the fact the body's upper bounds checks need; the loaded
// vector length is also reused.
func TestComparisonFactsEliminateRepeatedBounds(t *testing.T) {
	src := `
	bump: n = ( | v |
		v: vector copySize: 10.
		(n < v size) ifTrue: [
			v at: n Put: (v at: n) + 1 ].
		v size ).`
	w := buildWorld(t, src)

	factsOnly := NewSELF
	factsOnly.Name = "new SELF + comparison facts"
	factsOnly.ComparisonFacts = true

	countUpper := func(g *ir.Graph) int {
		n := 0
		for _, nd := range g.Reachable() {
			if nd.Op == ir.CmpBr && strings.HasPrefix(nd.Note, "bounds(upper)") && !nd.Uncommon {
				n++
			}
		}
		return n
	}
	base, _ := compileLobby(t, w, NewSELF, "bump:")
	ext, _ := compileLobby(t, w, factsOnly, "bump:")
	nBase := countUpper(base)
	nExt := countUpper(ext)
	if nBase < 2 {
		t.Fatalf("baseline has %d upper bounds checks, expected >= 2 (at: and at:Put:)\n%s", nBase, base.Dump())
	}
	if nExt != 0 {
		t.Errorf("comparison facts left %d upper bounds checks (base %d)\n%s", nExt, nBase, ext.Dump())
	}
	// The lower checks must remain: the guard proves nothing about
	// negative indices.
	lower := 0
	for _, nd := range ext.Reachable() {
		if nd.Op == ir.CmpBr && strings.HasPrefix(nd.Note, "bounds(lower)") && !nd.Uncommon {
			lower++
		}
	}
	if lower == 0 {
		t.Error("the extension must not remove the lower bounds checks here")
	}
}

// TestComparisonFactsSound: the extension must not change results even
// when the index pattern would tempt a stale fact (reassignment
// invalidates).
func TestComparisonFactsSound(t *testing.T) {
	src := `
	go = ( | v. i <- 0. s <- 0 |
		v: vector copySize: 4 FillWith: 5.
		[ i < v size ] whileTrue: [
			s: s + (v at: i).
			i: i + 1 ].
		s ).`
	w := buildWorld(t, src)
	factsOnly := NewSELF
	factsOnly.ComparisonFacts = true
	// Execution-level equivalence is covered by the public-API suite;
	// here we just require both compiles to succeed and the extension
	// to never *add* checks.
	gBase, _ := compileLobby(t, w, NewSELF, "go")
	gExt, _ := compileLobby(t, w, factsOnly, "go")
	if gExt.ComputeStats().BoundsChecks > gBase.ComputeStats().BoundsChecks {
		t.Error("extension added bounds checks")
	}
}
