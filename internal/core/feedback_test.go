package core

import (
	"reflect"
	"testing"

	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/types"
)

// counterSrc defines an object with a non-predicted selector and a
// lobby method that sends it to a statically-unknown receiver (the
// argument) — the shape where the eager compiler must emit a dynamic
// send but harvested feedback lets a recompile test-and-inline.
const counterSrc = `
counter = (| parent* = lobby.
    n <- 0.
    bump = ( n: n + 1. n ).
|).
poke: c = ( c bump ).`

func lobbyMethod(t *testing.T, w *obj.World, sel string) *obj.Method {
	t.Helper()
	r, ok := obj.Lookup(w.Lobby.Map, sel)
	if !ok || r.Slot.Kind != obj.MethodSlot {
		t.Fatalf("no method %q", sel)
	}
	return r.Slot.Meth
}

func constObjMap(t *testing.T, w *obj.World, name string) *obj.Map {
	t.Helper()
	r, ok := obj.Lookup(w.Lobby.Map, name)
	if !ok || r.Slot.Value.Obj() == nil {
		t.Fatalf("no object %q on the lobby", name)
	}
	return r.Slot.Value.Obj().Map
}

func countNodes(g *ir.Graph, pred func(*ir.Node) bool) int {
	n := 0
	for _, nd := range g.Reachable() {
		if pred(nd) {
			n++
		}
	}
	return n
}

// TestFeedbackSplitInlinesObservedReceiver: compiling poke: with no
// feedback leaves `c bump` as a dynamic send; seeding the observed
// receiver map turns it into a type test whose passing branch inlines
// bump, with the dynamic send only on the fall-through — and the
// FeedbackTests stat witnesses the inserted test.
func TestFeedbackSplitInlinesObservedReceiver(t *testing.T) {
	w := buildWorld(t, counterSrc)
	meth := lobbyMethod(t, w, "poke:")
	cmap := constObjMap(t, w, "counter")

	isBump := func(n *ir.Node) bool { return n.Op == ir.Send && n.Sel == "bump" && !n.Direct }
	isTest := func(n *ir.Node) bool { return n.Op == ir.TypeTest && n.TestMap == cmap }

	// Cold compile: receiver unknown, no feedback — dynamic send, no
	// test against counter's map, nothing inlined.
	cold, coldSt, err := New(w, NewSELF).compileMethodFB(meth, w.Lobby.Map, nil)
	if err != nil {
		t.Fatal(err)
	}
	if coldSt.FeedbackTests != 0 {
		t.Errorf("cold compile inserted %d feedback tests", coldSt.FeedbackTests)
	}
	if got := countNodes(cold, isBump); got != 1 {
		t.Fatalf("cold compile: %d dynamic bump sends, want 1\n%s", got, cold.Dump())
	}
	if got := countNodes(cold, isTest); got != 0 {
		t.Errorf("cold compile tests against counter's map without feedback")
	}

	// Hot recompile with feedback: what Harvest would return after the
	// send site observed counter instances.
	fb := types.NewFeedback()
	fb.Add("bump", cmap)
	hot, hotSt, err := New(w, NewSELF).compileMethodFB(meth, w.Lobby.Map, fb)
	if err != nil {
		t.Fatal(err)
	}
	if hotSt.FeedbackTests != 1 {
		t.Errorf("FeedbackTests = %d, want 1", hotSt.FeedbackTests)
	}
	if got := countNodes(hot, isTest); got != 1 {
		t.Fatalf("feedback compile: %d type tests against counter's map, want 1\n%s", got, hot.Dump())
	}
	if hotSt.InlinedMethods < 1 {
		t.Errorf("feedback compile inlined %d methods; bump should inline on the tested branch", hotSt.InlinedMethods)
	}
	// The fall-through keeps a sound dynamic send for unobserved
	// receivers; the tested branch must not re-dispatch bump.
	if got := countNodes(hot, isBump); got != 1 {
		t.Errorf("feedback compile: %d dynamic bump sends, want exactly the fall-through one\n%s", got, hot.Dump())
	}
}

// TestFeedbackNilIsBitIdentical: compileMethodFB with nil feedback is
// exactly CompileMethod — the guarantee that lets -tier=opt share the
// pipeline code path and stay bit-identical.
func TestFeedbackNilIsBitIdentical(t *testing.T) {
	w := buildWorld(t, counterSrc)
	meth := lobbyMethod(t, w, "poke:")
	g1, st1, err := New(w, NewSELF).compileMethodFB(meth, w.Lobby.Map, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, st2, err := New(w, NewSELF).CompileMethod(meth, w.Lobby.Map)
	if err != nil {
		t.Fatal(err)
	}
	st1.Duration, st2.Duration = 0, 0
	if !reflect.DeepEqual(st1, st2) {
		t.Errorf("stats diverge: %+v vs %+v", st1, st2)
	}
	if g1.Dump() != g2.Dump() {
		t.Errorf("graphs diverge:\n%s\nvs\n%s", g1.Dump(), g2.Dump())
	}
}

// TestFeedbackMegamorphicStaysDynamic: feedback listing several maps
// chains tests in observation order but still ends in a dynamic send;
// an empty feedback object changes nothing.
func TestFeedbackMultipleMaps(t *testing.T) {
	src := counterSrc + `
gauge = (| parent* = lobby.
    m <- 0.
    bump = ( m: m + 2. m ).
|).`
	w := buildWorld(t, src)
	meth := lobbyMethod(t, w, "poke:")
	cmap := constObjMap(t, w, "counter")
	gmap := constObjMap(t, w, "gauge")

	fb := types.NewFeedback()
	fb.Add("bump", cmap)
	fb.Add("bump", gmap)
	g, st, err := New(w, NewSELF).compileMethodFB(meth, w.Lobby.Map, fb)
	if err != nil {
		t.Fatal(err)
	}
	if st.FeedbackTests != 2 {
		t.Errorf("FeedbackTests = %d, want 2", st.FeedbackTests)
	}
	tests := countNodes(g, func(n *ir.Node) bool {
		return n.Op == ir.TypeTest && (n.TestMap == cmap || n.TestMap == gmap)
	})
	if tests != 2 {
		t.Errorf("%d chained type tests, want 2\n%s", tests, g.Dump())
	}
	if st.InlinedMethods < 2 {
		t.Errorf("inlined %d methods, want both bump bodies", st.InlinedMethods)
	}
	if dyn := countNodes(g, func(n *ir.Node) bool { return n.Op == ir.Send && n.Sel == "bump" && !n.Direct }); dyn != 1 {
		t.Errorf("%d dynamic fall-through sends, want 1\n%s", dyn, g.Dump())
	}

	empty := types.NewFeedback()
	ge, ste, err := New(w, NewSELF).compileMethodFB(meth, w.Lobby.Map, empty)
	if err != nil {
		t.Fatal(err)
	}
	gn, stn, err := New(w, NewSELF).compileMethodFB(meth, w.Lobby.Map, nil)
	if err != nil {
		t.Fatal(err)
	}
	ste.Duration, stn.Duration = 0, 0
	if !reflect.DeepEqual(ste, stn) || ge.Dump() != gn.Dump() {
		t.Errorf("empty feedback is not a no-op")
	}
}
