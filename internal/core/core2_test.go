package core

import (
	"strings"
	"testing"

	"selfgo/internal/ir"
	"selfgo/internal/obj"
)

// TestWhileFalseNegation: whileFalse: swaps the loop's branch sense.
func TestWhileFalseNegation(t *testing.T) {
	w := buildWorld(t, `go = ( | i <- 0 | [ i >= 5 ] whileFalse: [ i: i + 1 ]. i ).`)
	g, st := compileLobby(t, w, NewSELF, "go")
	if st.LoopVersions == 0 {
		t.Fatalf("no loop compiled:\n%s", g.Dump())
	}
	var hasLoop bool
	for _, n := range g.Reachable() {
		if n.Op == ir.LoopHead {
			hasLoop = true
		}
	}
	if !hasLoop {
		t.Error("no loop head")
	}
}

// TestNestedLoopsCompileIndependently: each nesting level gets its own
// head and its own iterative analysis.
func TestNestedLoopsCompileIndependently(t *testing.T) {
	w := buildWorld(t, `
	go = ( | s <- 0 |
		0 upTo: 3 Do: [ :i |
			0 upTo: 3 Do: [ :j | s: (s + (i * j)) % 1000 ] ].
		s ).`)
	g, st := compileLobby(t, w, NewSELF, "go")
	heads := 0
	for _, n := range g.Reachable() {
		if n.Op == ir.LoopHead {
			heads++
		}
	}
	if heads != 2 {
		t.Errorf("loop heads = %d, want 2\n%s", heads, g.Dump())
	}
	if st.LoopIterations < 4 {
		t.Errorf("iterations = %d: nested loops should each iterate", st.LoopIterations)
	}
}

// TestBoolPredictionShape: ifTrue: on a data-slot boolean tests true
// then false, with a dynamic fallback out of line.
func TestBoolPredictionShape(t *testing.T) {
	w := buildWorld(t, `
	holder = (| parent* = lobby. flag <- nil |).
	go: h = ( (h flag) ifTrue: [ 1 ] False: [ 2 ] ).`)
	g, _ := compileLobby(t, w, NewSELF, "go:")
	var trueTest, falseTest, fallback bool
	for _, n := range g.Reachable() {
		if n.Op == ir.TypeTest {
			switch n.TestMap.Name {
			case "true":
				trueTest = true
			case "false":
				falseTest = true
			}
		}
		if n.Op == ir.Send && n.Sel == "ifTrue:False:" && n.Uncommon {
			fallback = true
		}
	}
	if !trueTest || !falseTest || !fallback {
		t.Errorf("bool prediction shape wrong (true=%v false=%v fallback=%v)\n%s",
			trueTest, falseTest, fallback, g.Dump())
	}
}

// TestPredictionDisabled: without type prediction an unknown + compiles
// to a plain dynamic send, no tests.
func TestPredictionDisabled(t *testing.T) {
	w := buildWorld(t, `bump: x = ( x + 1 ).`)
	cfg := NewSELF
	cfg.TypePrediction = false
	g, _ := compileLobby(t, w, cfg, "bump:")
	s := g.ComputeStats()
	if s.TypeTests != 0 {
		t.Errorf("type tests = %d with prediction off", s.TypeTests)
	}
	if s.Sends == 0 {
		t.Error("expected a dynamic send")
	}
}

// TestAnnotateTypes: the flag attaches operand types to dumps.
func TestAnnotateTypes(t *testing.T) {
	w := buildWorld(t, `bump: x = ( x + 1 ).`)
	cfg := NewSELF
	cfg.AnnotateTypes = true
	g, _ := compileLobby(t, w, cfg, "bump:")
	d := g.Dump()
	if !strings.Contains(d, ":?") && !strings.Contains(d, ":int") {
		t.Errorf("dump lacks type annotations:\n%s", d)
	}
}

// TestBlockArityMismatch is a compile-time error: invoking a one-arg
// block with zero arguments.
func TestBlockArityMismatch(t *testing.T) {
	w := buildWorld(t, `go = ( | blk | blk: [ :x | x ]. blk value ).`)
	r, _ := obj.Lookup(w.Lobby.Map, "go")
	_, _, err := New(w, NewSELF).CompileMethod(r.Slot.Meth, w.Lobby.Map)
	if err == nil || !strings.Contains(err.Error(), "block takes") {
		t.Errorf("expected block arity error, got %v", err)
	}
}

// TestStaticIdealLoopShape: the C stand-in compiles a counted loop to
// compare + add + branch, nothing else costly.
func TestStaticIdealLoopShape(t *testing.T) {
	w := buildWorld(t, `go = ( | s <- 0 | 1 to: 100 Do: [ :i | s: s + i ]. s ).`)
	g, _ := compileLobby(t, w, StaticIdealC, "go")
	for _, n := range g.Reachable() {
		switch n.Op {
		case ir.Send, ir.Call, ir.TypeTest, ir.PrimOp, ir.MkBlk:
			t.Errorf("static ideal emitted %v\n%s", n.Op, g.Dump())
		case ir.Arith:
			if n.Checked {
				t.Errorf("static ideal kept a checked op\n%s", g.Dump())
			}
		}
	}
}

// TestUncommonNeverSplit: flows downstream of failures are merged, not
// multiplied — count primitiveFailed sends; each failing op contributes
// one, not a copy per upstream path.
func TestUncommonNeverSplit(t *testing.T) {
	w := buildWorld(t, `
	go: a With: b = ( | x |
		(a < b) ifTrue: [ x: a ] False: [ x: b ].
		x + a + b ).`)
	g, _ := compileLobby(t, w, NewSELF, "go:With:")
	fails := 0
	for _, n := range g.Reachable() {
		if n.Op == ir.Send && n.Sel == "primitiveFailed:" {
			fails++
		}
	}
	// Each arithmetic op contributes one failure send per live common
	// flow (<= MaxFlows) plus the uncommon path's own: linear, around a
	// dozen here. What must NOT happen is exponential copying (hundreds).
	if fails > 25 {
		t.Errorf("%d failure sends: uncommon paths look split\n%s", fails, g.Dump())
	}
}

// TestOldSELFLocalVarsUnknown (§5): under the original compiler a local
// keeps no type knowledge across statements — an assigned-then-used
// local needs a type test even straight-line.
func TestOldSELFLocalVarsUnknown(t *testing.T) {
	w := buildWorld(t, `
	go = ( | x |
		x: 3.
		x + 1 ).`)
	gOld, _ := compileLobby(t, w, OldSELF89, "go")
	gNew, _ := compileLobby(t, w, NewSELF, "go")
	oldTests := gOld.ComputeStats().TypeTests
	newTests := gNew.ComputeStats().TypeTests
	if oldTests == 0 {
		t.Errorf("old compiler should re-test the assigned local\n%s", gOld.Dump())
	}
	if newTests != 0 {
		t.Errorf("new compiler should know x is 3\n%s", gNew.Dump())
	}
}

// TestConstantConditionFoldsBranch: a statically-true condition
// eliminates the other arm entirely.
func TestConstantConditionFoldsBranch(t *testing.T) {
	w := buildWorld(t, `go = ( (3 < 4) ifTrue: [ 111 ] False: [ 222 ] ).`)
	g, _ := compileLobby(t, w, NewSELF, "go")
	for _, n := range g.Reachable() {
		if n.Op == ir.Const && n.Val.K() == 1 /* KInt */ && n.Val.I() == 222 {
			t.Errorf("dead arm not folded:\n%s", g.Dump())
		}
		if n.Op == ir.CmpBr {
			t.Errorf("constant comparison not folded:\n%s", g.Dump())
		}
	}
}

// TestEmptyMethodReturnsSelf.
func TestEmptyMethodReturnsSelf(t *testing.T) {
	w := buildWorld(t, `noop = (  ).`)
	g, _ := compileLobby(t, w, NewSELF, "noop")
	var ret *ir.Node
	for _, n := range g.Reachable() {
		if n.Op == ir.Return {
			ret = n
		}
	}
	if ret == nil || ret.A != 0 {
		t.Errorf("empty method should return self (r0):\n%s", g.Dump())
	}
}

// TestSimulatedReturnStaysInSimulation: a ^ compiled while iterative
// type analysis simulates a loop body (§5.1) belongs to that throwaway
// body. When its home method lies outside the simulation, the flow must
// not reach the home's return collector: it starts at a discarded node.
// A collector hooks each of its flows in by the flow's start node, so a
// leak shows up as a discarded node with a reachable successor (an
// inlined home merges its returns with its fall-through) or as a Return
// that nothing reaches (the compiled method's own home).
func TestSimulatedReturnStaysInSimulation(t *testing.T) {
	w := buildWorld(t, `
	find: v In: n = ( | i <- 0 |
		[ i < n ] whileTrue: [ (i = v) ifTrue: [ ^ i ]. i: i + 1 ].
		nil ).
	go: v = ( (find: v In: 10) + 1 ).`)
	for _, cfg := range []Config{OldSELF89, NewSELF, NewSELFMultiLoop, StaticIdealC} {
		for _, sel := range []string{"find:In:", "go:"} {
			g, st := compileLobby(t, w, cfg, sel)
			if cfg.IterativeLoops && st.LoopIterations == 0 {
				t.Fatalf("%s %s: no loop body was simulated", cfg.Name, sel)
			}
			// What the code generator emits: the entry's graph and the
			// non-local-return landings its closures resume at.
			reach := map[*ir.Node]bool{}
			var walk func(n *ir.Node)
			walk = func(n *ir.Node) {
				if n == nil || reach[n] {
					return
				}
				reach[n] = true
				walk(n.Landing)
				for _, s := range n.Succ {
					walk(s)
				}
			}
			walk(g.Entry)
			for _, n := range g.Nodes() {
				if reach[n] {
					continue
				}
				if n.Op == ir.Return {
					t.Errorf("%s %s: %s is a return nothing reaches", cfg.Name, sel, n)
				}
				for _, s := range n.Succ {
					if reach[s] {
						t.Errorf("%s %s: discarded %s flows into reachable %s", cfg.Name, sel, n, s)
					}
				}
			}
		}
	}
}
