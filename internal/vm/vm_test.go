package vm_test

import (
	"strings"
	"testing"

	"selfgo/internal/ast"
	"selfgo/internal/core"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/parser"
	"selfgo/internal/prelude"
	"selfgo/internal/vm"
)

// harness wires a world, compiler and VM the way the public package
// does, for testing the back end in isolation.
type harness struct {
	w  *obj.World
	c  *core.Compiler
	vm *vm.VM
}

func newHarness(t *testing.T, cfg core.Config, src string) *harness {
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
	h := &harness{w: w, c: core.New(w, cfg)}
	h.vm = &vm.VM{
		World:     w,
		Customize: cfg.Customization,
		CompileMethod: func(m *obj.Method, rmap *obj.Map) (*vm.Code, error) {
			g, _, err := h.c.CompileMethod(m, rmap)
			if err != nil {
				return nil, err
			}
			return vm.Assemble(g), nil
		},
		CompileBlock: func(b *ast.Block, upNames []string) (*vm.Code, error) {
			g, _, err := h.c.CompileBlock(b, upNames)
			if err != nil {
				return nil, err
			}
			return vm.Assemble(g), nil
		},
	}
	return h
}

func (h *harness) call(t *testing.T, sel string, args ...obj.Value) obj.Value {
	t.Helper()
	r, ok := obj.Lookup(h.w.Lobby.Map, sel)
	if !ok {
		t.Fatalf("no %q", sel)
	}
	v, err := h.vm.RunMethod(r.Slot.Meth, obj.Obj(h.w.Lobby), args...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func (h *harness) codeFor(t *testing.T, sel string) *vm.Code {
	t.Helper()
	r, ok := obj.Lookup(h.w.Lobby.Map, sel)
	if !ok {
		t.Fatalf("no %q", sel)
	}
	c, err := h.vm.CodeFor(r.Slot.Meth, h.w.Lobby.Map)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAssembleLayoutUncommonOutOfLine(t *testing.T) {
	h := newHarness(t, core.NewSELF, `bump: x = ( x + 1 ).`)
	code := h.codeFor(t, "bump:")
	// The uncommon "+"-send fallback must come after the main-path
	// return: find the first Return and the Send.
	firstRet, sendAt := -1, -1
	for i := range code.Instrs {
		in := &code.Instrs[i]
		if in.Op == ir.Return && firstRet < 0 {
			firstRet = i
		}
		if in.Op == ir.Send && code.SelOf(in) == "+" {
			sendAt = i
		}
	}
	if firstRet < 0 || sendAt < 0 {
		t.Fatalf("missing instructions:\n%s", code.Disasm())
	}
	if sendAt < firstRet {
		t.Errorf("uncommon send at %d before main return at %d:\n%s", sendAt, firstRet, code.Disasm())
	}
}

func TestDeadCodeEliminated(t *testing.T) {
	// The boolean results materialized for an inlined conditional are
	// dead once the ifTrue:False: is compiled away.
	h := newHarness(t, core.NewSELF, `go = ( | x <- 0 | (x < 1) ifTrue: [ 7 ] False: [ 8 ] ).`)
	code := h.codeFor(t, "go")
	for i := range code.Instrs {
		in := &code.Instrs[i]
		if v := code.ConstOf(in); in.Op == ir.Const && v.K() == obj.KObj {
			if v.Obj() == h.w.TrueObj || v.Obj() == h.w.FalseObj {
				t.Errorf("dead boolean constant survived:\n%s", code.Disasm())
			}
		}
	}
}

func TestCycleAccounting(t *testing.T) {
	h := newHarness(t, core.NewSELF, `go = ( 1 + 2 ).`)
	v := h.call(t, "go")
	if !v.Eq(obj.Int(3)) {
		t.Fatalf("got %v", v)
	}
	st := h.vm.Stats
	if st.Cycles == 0 || st.Instrs == 0 {
		t.Errorf("no cost recorded: %+v", st)
	}
	// Folding makes this a Const+Return: only a handful of cycles.
	if st.Cycles > 10 {
		t.Errorf("constant method cost %d cycles", st.Cycles)
	}
}

func TestInlineCacheHitsAndMisses(t *testing.T) {
	src := `
	a = (| parent* = lobby. tagB = ( 1 ) |).
	b = (| parent* = lobby. tagB = ( 2 ) |).
	pingPong: n = ( | o. s <- 0. i <- 0 |
		[ i < n ] whileTrue: [
			(i even) ifTrue: [ o: a ] False: [ o: b ].
			s: s + (o describeDyn).
			i: i + 1 ].
		s ).
	mono: n = ( | s <- 0. i <- 0 |
		[ i < n ] whileTrue: [ s: s + (a describeDyn). i: i + 1 ].
		s ).`
	// describeDyn must not be inlinable: make it live on both objects
	// via lobby so the send stays dynamic (o is unknown).
	src += `
	describeDynFallback = ( 0 ).`
	// Give each object its own describeDyn through a lobby-level
	// dispatcher trick: define on the objects directly.
	src = strings.Replace(src, "tagB = ( 1 )", "tagB = ( 1 ). describeDyn = ( tagB )", 1)
	src = strings.Replace(src, "tagB = ( 2 )", "tagB = ( 2 ). describeDyn = ( tagB )", 1)

	h := newHarness(t, core.ST80, src) // ST80: sends stay dynamic
	v := h.call(t, "pingPong:", obj.Int(100))
	if !v.Eq(obj.Int(150)) { // 50*1 + 50*2
		t.Fatalf("pingPong = %v", v)
	}
	poly := h.vm.Stats
	if poly.ICMisses < 50 {
		t.Errorf("alternating receivers should thrash the monomorphic cache: %d misses", poly.ICMisses)
	}

	h2 := newHarness(t, core.ST80, src)
	h2.call(t, "mono:", obj.Int(100))
	mono := h2.vm.Stats
	if mono.ICMisses > mono.ICHits/2 {
		t.Errorf("monomorphic site should mostly hit: hits=%d misses=%d", mono.ICHits, mono.ICMisses)
	}
}

func TestMissHandlerCostModel(t *testing.T) {
	src := `
	a = (| parent* = lobby. v = ( 1 ) |).
	b = (| parent* = lobby. v = ( 2 ) |).
	poly: n = ( | o. s <- 0. i <- 0 |
		[ i < n ] whileTrue: [
			(i even) ifTrue: [ o: a ] False: [ o: b ].
			s: s + (o v).
			i: i + 1 ].
		s ).`
	h := newHarness(t, core.ST80, src)
	h.call(t, "poly:", obj.Int(200))
	slow := h.vm.Stats.Cycles

	h2 := newHarness(t, core.ST80, src)
	h2.vm.MissHandlers = true
	h2.call(t, "poly:", obj.Int(200))
	fast := h2.vm.Stats.Cycles
	if fast >= slow {
		t.Errorf("miss handlers should cut polymorphic cost: %d -> %d", slow, fast)
	}
}

// TestClosureCapturesByReference: a closure's cells alias the variables
// it captures — through a nested closure too — except parameters, whose
// cells hold the value of their own binding; and closures of one block
// literal made in different inlined copies of its method share one cell
// layout, so they share its compiled code.
func TestClosureCapturesByReference(t *testing.T) {
	cases := []struct {
		name        string
		cfg         core.Config
		src         string
		want        int64
		blockValues int64 // at least this many out-of-line invocations
		mkBlks      int   // at least this many MkBlk of one block in go
	}{
		{"assign", core.ST80, `
		go = ( | c <- 0. blk |
			blk: [ c: c + 1 ].
			blk value. blk value.
			c ).`, 2, 2, 0},
		{"nested assign", core.ST80, `
		go = ( | c <- 0. outer |
			outer: [ | inner | inner: [ c: c + 10 ]. inner value. inner value ].
			outer value.
			c ).`, 20, 3, 0},
		{"parameter by value", core.NewSELF, `
		go = ( | v |
			v: (vector copySize: 3).
			0 upTo: 3 Do: [ :i | v at: i Put: [ i * 10 ] ].
			((v at: 0) value + (v at: 1) value) + (v at: 2) value ).`, 30, 3, 0},
		{"two inlined copies", core.NewSELF, `
		mk: n = ( [ n * 2 ] ).
		go = ( | v |
			v: (vector copySize: 2).
			v at: 0 Put: (mk: 3).
			v at: 1 Put: (mk: 40).
			(v at: 0) value + (v at: 1) value ).`, 86, 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, c.cfg, c.src)
			if v := h.call(t, "go"); !v.Eq(obj.Int(c.want)) {
				t.Fatalf("got %v, want %d", v, c.want)
			}
			if h.vm.Stats.BlockValues < c.blockValues {
				t.Errorf("%d closure invocations, want at least %d", h.vm.Stats.BlockValues, c.blockValues)
			}
			made := map[*ast.Block]int{}
			most := 0
			h.codeFor(t, "go").BlockCaptures(func(blk *ast.Block, _ []ir.Capture) {
				made[blk]++
				most = max(most, made[blk])
			})
			if most < c.mkBlks {
				t.Errorf("go makes at most %d closures of one block literal, want %d", most, c.mkBlks)
			}
		})
	}
}

func TestNonLocalReturnThroughClosure(t *testing.T) {
	// Under ST-80, detect: is not inlined, so the ^-block becomes a
	// real closure whose ^ unwinds the detect: frame.
	h := newHarness(t, core.ST80, `
	detect: n = ( 0 upTo: 10 Do: [ :i | (i = n) ifTrue: [ ^ i * 7 ] ]. -1 ).
	go = ( detect: 6 ).`)
	if v := h.call(t, "go"); !v.Eq(obj.Int(42)) {
		t.Fatalf("got %v", v)
	}
}

func TestNLRFromDeadFrame(t *testing.T) {
	// Returning a block whose ^ targets a frame that already returned
	// must raise a clean error, not corrupt state.
	h := newHarness(t, core.ST80, `
	mk = ( [ ^ 1 ] ).
	go = ( | blk | blk: mk. blk value ).`)
	r, _ := obj.Lookup(h.w.Lobby.Map, "go")
	_, err := h.vm.RunMethod(r.Slot.Meth, obj.Obj(h.w.Lobby))
	if err == nil || !strings.Contains(err.Error(), "dead home") {
		t.Errorf("expected dead-home error, got %v", err)
	}
}

func TestGenericPrimOpPath(t *testing.T) {
	// With primitive inlining off, primitives run out of line with all
	// checks, including failure-block dispatch.
	cfg := core.NewSELF
	cfg.InlinePrimitives = false
	h := newHarness(t, cfg, `
	go = ( 6 _IntMul: 7 ).
	fails = ( 1 _IntDiv: 0 IfFail: [ -5 ] ).`)
	if v := h.call(t, "go"); !v.Eq(obj.Int(42)) {
		t.Fatalf("got %v", v)
	}
	if v := h.call(t, "fails"); !v.Eq(obj.Int(-5)) {
		t.Fatalf("failure block: got %v", v)
	}
}

func TestDeepRecursionGuard(t *testing.T) {
	h := newHarness(t, core.NewSELF, `deep: n = ( (deep: n + 1) ).`)
	r, _ := obj.Lookup(h.w.Lobby.Map, "deep:")
	_, err := h.vm.RunMethod(r.Slot.Meth, obj.Obj(h.w.Lobby), obj.Int(0))
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("expected stack overflow, got %v", err)
	}
}

func TestCodeSizeModel(t *testing.T) {
	h := newHarness(t, core.NewSELF, `tiny = ( 1 ). bigger = ( | v | v: vector copySize: 10. v atAllPut: 3. v ).`)
	tiny := h.codeFor(t, "tiny")
	bigger := h.codeFor(t, "bigger")
	if tiny.Bytes <= 0 || bigger.Bytes <= tiny.Bytes {
		t.Errorf("size model broken: tiny=%d bigger=%d", tiny.Bytes, bigger.Bytes)
	}
	// Every instruction kind used must have a nonzero size.
	total := vm.SizePrologue
	for i := range bigger.Instrs {
		in := &bigger.Instrs[i]
		total += vm.SizeOf(bigger, in)
		if vm.SizeOf(bigger, in) == 0 {
			t.Errorf("instruction %v has zero size", in.Op)
		}
	}
}

func TestPrintPrimitive(t *testing.T) {
	h := newHarness(t, core.NewSELF, `go = ( 'hi' print. 42 printLine. 0 ).`)
	var sb strings.Builder
	h.vm.Out = &sb
	h.call(t, "go")
	if sb.String() != "hi42\n" {
		t.Errorf("printed %q", sb.String())
	}
}

func TestBranchTargetsResolved(t *testing.T) {
	h := newHarness(t, core.NewSELF, `go: n = ( (n < 10) ifTrue: [ n + 1 ] False: [ n - 1 ] ).`)
	code := h.codeFor(t, "go:")
	n := int32(len(code.Instrs))
	for i, in := range code.Instrs {
		switch in.Op {
		case ir.CmpBr, ir.TypeTest:
			if in.T < 0 || in.T >= n || in.F < 0 || in.F >= n {
				t.Errorf("instr %d: unresolved branch targets T=%d F=%d", i, in.T, in.F)
			}
		case vm.OpJmp:
			if in.T < 0 || in.T >= n {
				t.Errorf("instr %d: unresolved jump %d", i, in.T)
			}
		}
	}
	if v := h.call(t, "go:", obj.Int(5)); !v.Eq(obj.Int(6)) {
		t.Fatalf("go: 5 = %v", v)
	}
	if v := h.call(t, "go:", obj.Int(50)); !v.Eq(obj.Int(49)) {
		t.Fatalf("go: 50 = %v", v)
	}
}

func TestPolymorphicInlineCache(t *testing.T) {
	src := `
	a = (| parent* = lobby. v = ( 1 ) |).
	b = (| parent* = lobby. v = ( 2 ) |).
	poly: n = ( | o. s <- 0. i <- 0 |
		[ i < n ] whileTrue: [
			(i even) ifTrue: [ o: a ] False: [ o: b ].
			s: s + (o v).
			i: i + 1 ].
		s ).`
	h := newHarness(t, core.ST80, src)
	h.call(t, "poly:", obj.Int(200))
	mono := h.vm.Stats

	h2 := newHarness(t, core.ST80, src)
	h2.vm.PICs = true
	v := h2.call(t, "poly:", obj.Int(200))
	if !v.Eq(obj.Int(300)) {
		t.Fatalf("got %v", v)
	}
	pic := h2.vm.Stats
	if pic.ICMisses >= mono.ICMisses/4 {
		t.Errorf("PICs should absorb the alternation: misses %d -> %d", mono.ICMisses, pic.ICMisses)
	}
	if pic.Cycles >= mono.Cycles {
		t.Errorf("PICs should be cheaper overall: %d -> %d cycles", mono.Cycles, pic.Cycles)
	}
}
