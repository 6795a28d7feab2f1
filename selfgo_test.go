package selfgo

import (
	"context"
	"strings"
	"testing"
)

// newSys builds a system, loads src, and fails the test on error.
func newSys(t *testing.T, cfg Config, src string) *System {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadSource(src); err != nil {
		t.Fatal(err)
	}
	return sys
}

func callInt(t *testing.T, sys *System, sel string, args ...Value) int64 {
	t.Helper()
	res, err := sys.Call(sel, args...)
	if err != nil {
		t.Fatalf("Call(%s): %v", sel, err)
	}
	return res.Value.I()
}

// TestLanguageFeatures exercises the language surface under every
// compiler configuration: all six systems must agree.
func TestLanguageFeatures(t *testing.T) {
	cases := []struct {
		name, src, sel string
		args           []Value
		want           int64
	}{
		{"arith", `go = ( ((2 + 3) * 4 - 6) / 2 ).`, "go", nil, 7},
		{"mod-div", `go = ( ((17 % 5) * 100) + (17 / 5) ).`, "go", nil, 203},
		{"bitops", `go = ( ((12 bitAnd: 10) * 10000) + ((12 bitOr: 10) * 100) + (12 bitXor: 10) ).`, "go", nil, 81406},
		{"negatives", `go = ( (-5 + 3) abs + -1 abs ).`, "go", nil, 3},
		{"minmax", `go = ( ((3 min: 7) + (3 max: 7)) + (2 succ) + (2 pred) ).`, "go", nil, 14},
		{"evenodd", `go = ( (4 even) asInt * 10 + (4 odd) asInt ).`, "go", nil, 10},
		{"vector", `go = ( | v | v: vector copySize: 5. v atAllPut: 7. (v at: 2) + v size ).`, "go", nil, 12},
		{"vec2d", `go = ( | m | m: vector copySize: 3. 0 upTo: 3 Do: [ :i | m at: i Put: (vector copySize: 3 FillWith: i) ]. ((m at: 2) at: 1) ).`, "go", nil, 2},
		{"object", `pt = (| parent* = lobby. x <- 1. y <- 2. sum = ( x + y ). movexTo: nx = ( x: nx. self ) |).
		            go = ( | p | p: pt _Clone. p movexTo: 40. p sum ).`, "go", nil, 42},
		{"clone-isolation", `ctr = (| parent* = lobby. n <- 0. bump = ( n: n + 1. n ) |).
		            go = ( | a. b | a: ctr _Clone. b: ctr _Clone. a bump. a bump. b bump. (a n * 10) + b n ).`, "go", nil, 21},
		{"inherited-global", `gCount <- 5.
		            o = (| parent* = lobby. take = ( gCount: gCount + 1. gCount ) |).
		            go = ( | x | x: o _Clone take. x + gCount ).`, "go", nil, 12},
		{"recursion", `fib: n = ( (n < 2) ifTrue: [ n ] False: [ (fib: n - 1) + (fib: n - 2) ] ).`, "fib:", []Value{IntValue(15)}, 610},
		{"mutual-recursion", `isEven: n = ( (n = 0) ifTrue: [ 1 ] False: [ isOdd: n - 1 ] ).
		            isOdd: n = ( (n = 0) ifTrue: [ 0 ] False: [ isEven: n - 1 ] ).
		            go = ( (isEven: 10) * 10 + (isOdd: 7) ).`, "go", nil, 11},
		{"ifs", `go = ( | x <- 0 | (3 < 4) ifTrue: [ x: x + 1 ]. (4 < 3) ifFalse: [ x: x + 10 ]. ((x = 11) and: [ true ]) ifTrue: [ x: x + 100 ] False: [ x: 0 ]. x ).`, "go", nil, 111},
		{"and-or", `go = ( | c <- 0 | (true and: [ false or: [ true ] ]) ifTrue: [ c: 1 ]. (false and: [ true ]) ifTrue: [ c: c + 10 ]. c ).`, "go", nil, 1},
		{"not", `go = ( ((3 < 4) not) asInt * 10 + ((4 < 3) not) asInt ).`, "go", nil, 1},
		{"while", `go = ( | i <- 0. s <- 0 | [ i < 10 ] whileTrue: [ s: s + i. i: i + 1 ]. s ).`, "go", nil, 45},
		{"whileFalse", `go = ( | i <- 0 | [ i >= 5 ] whileFalse: [ i: i + 1 ]. i ).`, "go", nil, 5},
		{"upTo", `go = ( | s <- 0 | 1 upTo: 5 Do: [ :i | s: s + i ]. s ).`, "go", nil, 10},
		{"to", `go = ( | s <- 0 | 1 to: 5 Do: [ :i | s: s + i ]. s ).`, "go", nil, 15},
		{"downTo", `go = ( | s <- 0 | 5 downTo: 1 Do: [ :i | s: s + i ]. s ).`, "go", nil, 15},
		{"timesRepeat", `go = ( | s <- 0 | 7 timesRepeat: [ s: s + 2 ]. s ).`, "go", nil, 14},
		{"nested-loops", `go = ( | s <- 0 | 0 upTo: 5 Do: [ :i | 0 upTo: 5 Do: [ :j | s: s + (i * j) ] ]. s ).`, "go", nil, 100},
		{"nlr-from-loop", `find: n = ( 0 upTo: 100 Do: [ :i | (i = n) ifTrue: [ ^ i * 2 ] ]. -1 ).`, "find:", []Value{IntValue(21)}, 42},
		{"nlr-miss", `find: n = ( 0 upTo: 10 Do: [ :i | (i = n) ifTrue: [ ^ i ] ]. -1 ).`, "find:", []Value{IntValue(50)}, -1},
		{"nlr-through-inline", `rec: n = ( (n = 0) ifTrue: [ ^ 100 ]. 0 upTo: 3 Do: [ :k | (k = 1) ifTrue: [ ^ (rec: n - 1) + 1 ] ]. 0 ).
		            go = ( rec: 3 ).`, "go", nil, 103},
		{"identity", `go = ( | v | v: nil. ((v isNil) asInt * 10) + (3 == 3) asInt ).`, "go", nil, 11},
		{"block-value", `apply: blk To: x = ( blk value: x ).
		            go = ( apply: [ :v | v * 3 ] To: 14 ).`, "go", nil, 42},
		{"block-capture", `mkAdder: n = ( [ :x | x + n ] ).
		            go = ( (mkAdder: 10) value: 32 ).`, "go", nil, 42},
		{"block-mutate-upvar", `go = ( | c <- 0. blk | blk: [ c: c + 1 ]. blk value. blk value. blk value. c ).`, "go", nil, 3},
		{"objlit-in-method", `go = ( | o | o: (| parent* = lobby. v = ( 9 ) |). o v ).`, "go", nil, 9},
		{"do", `go = ( | v. s <- 0 | v: vector copySize: 4 FillWith: 5. v do: [ :e | s: s + e ]. s ).`, "go", nil, 20},
		{"withIndexDo", `go = ( | v. s <- 0 | v: vector copySize: 4 FillWith: 2. v withIndexDo: [ :e :i | s: s + (e * i) ]. s ).`, "go", nil, 12},
		{"fillFrom", `go = ( | v. s <- 0 | v: vector copySize: 5. v fillFrom: [ :i | i * i ]. v do: [ :e | s: s + e ]. s ).`, "go", nil, 30},
		{"vector-copy", `go = ( | a. b | a: vector copySize: 3 FillWith: 1. b: a copy. b at: 0 Put: 9. (a at: 0) * 10 + (b at: 0) ).`, "go", nil, 19},
		{"string-eq", `go = ( ('abc' = 'abc') asInt * 10 + ('abc' = 'abd') asInt ).`, "go", nil, 10},
		{"yourself", `go = ( 5 yourself + 1 ).`, "go", nil, 6},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, cfg := range Configs() {
				sys := newSys(t, cfg, c.src)
				if got := callInt(t, sys, c.sel, c.args...); got != c.want {
					t.Errorf("[%s] got %d, want %d", cfg.Name, got, c.want)
				}
			}
		})
	}
}

// TestPrimitiveFailureHandlers checks explicit IfFail: blocks and the
// default failure behavior.
func TestPrimitiveFailureHandlers(t *testing.T) {
	sys := newSys(t, NewSELF, `
		safeDiv: a By: b = ( a _IntDiv: b IfFail: [ -999 ] ).
		overflowing = ( | big <- 536870911 | big _IntAdd: big IfFail: [ -1 ] ).
	`)
	if got := callInt(t, sys, "safeDiv:By:", IntValue(10), IntValue(2)); got != 5 {
		t.Errorf("safeDiv 10/2 = %d", got)
	}
	if got := callInt(t, sys, "safeDiv:By:", IntValue(10), IntValue(0)); got != -999 {
		t.Errorf("safeDiv 10/0 = %d, want -999 (failure block)", got)
	}
	// MaxSmallInt + MaxSmallInt overflows into the failure block.
	if got := callInt(t, sys, "overflowing"); got != -1 {
		t.Errorf("overflow handler = %d, want -1", got)
	}
}

// TestRuntimeErrors checks that unhandled failures surface as errors.
func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, sel string
		wantSub        string
	}{
		{"dnu", `go = ( 3 noSuchMessage ).`, "go", "noSuchMessage"},
		{"div-zero", `go = ( 3 / 0 ).`, "go", "/"},
		{"bounds", `go = ( | v | v: vector copySize: 2. v at: 5 ).`, "go", "_At:"},
		{"error", `go = ( error: 'boom' ).`, "go", "boom"},
		{"overflow", `go = ( | x <- 536870911 | x + x ).`, "go", "+"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, cfg := range []Config{NewSELF, ST80, OptimizedC} {
				if cfg.StaticIdeal && c.name != "dnu" && c.name != "error" {
					continue // the C stand-in drops robustness checks by design
				}
				sys := newSys(t, cfg, c.src)
				_, err := sys.Call(c.sel)
				if err == nil {
					t.Fatalf("[%s] expected error", cfg.Name)
				}
				if !strings.Contains(err.Error(), c.wantSub) {
					t.Errorf("[%s] error %q does not mention %q", cfg.Name, err, c.wantSub)
				}
			}
		})
	}
}

// TestAssignToParameterRejected enforces SELF's immutable parameters
// (the compiler relies on this for argument aliasing).
func TestAssignToParameterRejected(t *testing.T) {
	sys := newSys(t, NewSELF, `bad: x = ( x: 3. x ).`)
	if _, err := sys.Call("bad:", IntValue(1)); err == nil || !strings.Contains(err.Error(), "parameter") {
		t.Errorf("expected parameter-assignment error, got %v", err)
	}
}

// TestEval runs scratch code.
func TestEval(t *testing.T) {
	sys, err := NewSystem(NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Eval(`| s <- 0 | 1 to: 4 Do: [ :i | s: s + i ]. s * 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.I() != 20 {
		t.Errorf("Eval = %v, want 20", res.Value)
	}
}

// TestStatsAccounting sanity-checks the run statistics.
func TestStatsAccounting(t *testing.T) {
	sys := newSys(t, NewSELF, `go = ( | s <- 0 | 1 to: 100 Do: [ :i | s: s + i ]. s ).`)
	res, err := sys.Call("go")
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Cycles <= 0 || res.Run.Instrs <= 0 {
		t.Errorf("stats empty: %+v", res.Run)
	}
	// Range analysis removes the loop counter's overflow check but not
	// the accumulator's: exactly one checked add per iteration.
	if res.Run.OvflChecks != 100 {
		t.Errorf("overflow checks = %d, want 100", res.Run.OvflChecks)
	}
	if res.Compile.Methods == 0 || res.Compile.CodeBytes == 0 {
		t.Errorf("compile record empty: %+v", res.Compile)
	}
}

// TestCompiledCodeReuse: the second call must not recompile.
func TestCompiledCodeReuse(t *testing.T) {
	sys := newSys(t, NewSELF, `go = ( 1 + 2 ).`)
	r1, err := sys.Call("go")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Call("go")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Compile.Methods != r1.Compile.Methods {
		t.Errorf("second call recompiled: %d -> %d methods", r1.Compile.Methods, r2.Compile.Methods)
	}
}

// TestCustomizationCompilesPerReceiverMap: with customization the same
// method compiles once per receiver map; without it, once in total.
func TestCustomizationCompilesPerReceiverMap(t *testing.T) {
	src := `
		shared = (| parent* = lobby.
		    countDown: n = ( (n = 0) ifTrue: [ self tag ] False: [ countDown: n - 1 ] ).
		    describe = ( countDown: 3 ) |).
		oa = (| parent* = shared. tag = ( 10 ) |).
		ob = (| parent* = shared. tag = ( 20 ) |).
		go = ( (oa describe) + (ob describe) ).`
	sys := newSys(t, NewSELF, src)
	if got := callInt(t, sys, "go"); got != 30 {
		t.Fatalf("go = %d", got)
	}
	// The recursive countDown: cannot be fully inlined, so it compiles
	// as a customized method: one copy per receiver map.
	n := 0
	for _, e := range sys.CompileLog() {
		if strings.HasSuffix(e.Name, ">>countDown:") {
			n++
		}
	}
	if n != 2 {
		t.Errorf("customization compiled %d copies of countDown:, want 2", n)
	}
}

// TestGraphAndCodeAccessors exercise the tool-facing API.
func TestGraphAndCodeAccessors(t *testing.T) {
	sys := newSys(t, NewSELF, `go = ( | s <- 0 | 1 to: 3 Do: [ :i | s: s + i ]. s ).`)
	g, st, err := sys.GraphFor("go")
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes == 0 || !strings.Contains(g.Dump(), "loopHead") {
		t.Errorf("graph dump missing loop: %s", g.Dump())
	}
	code, err := sys.CodeFor("go")
	if err != nil {
		t.Fatal(err)
	}
	if len(code.Instrs) == 0 || code.Bytes == 0 {
		t.Error("empty code")
	}
	if !strings.Contains(code.Disasm(), "ret") {
		t.Error("disassembly missing return")
	}
}

// TestEvalProgramInterning: an interned eval program compiles once
// across repeated runs and across forked workers, where plain Eval
// builds a fresh cache entry per call; DropEvalProgram evicts the
// interned entries again.
func TestEvalProgramInterning(t *testing.T) {
	root, err := NewSystem(NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	w := root.Fork()
	const src = `| s <- 0 | 1 upTo: 50 Do: [ :i | s: s + i ]. s`
	p, err := root.ParseEval(src)
	if err != nil {
		t.Fatal(err)
	}
	base := root.CacheStats()
	for i := 0; i < 3; i++ {
		for _, sys := range []*System{root, w} {
			res, err := sys.EvalProgramCtx(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Value.I() != 1225 {
				t.Fatalf("value = %d, want 1225", res.Value.I())
			}
		}
	}
	st := root.CacheStats()
	grew := st.Entries - base.Entries
	if grew < 1 {
		t.Fatalf("interned program added no cache entries (entries %d -> %d)", base.Entries, st.Entries)
	}
	// Plain Eval of the same source keeps adding entries per call…
	if _, err := root.Eval(src); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Eval(src); err != nil {
		t.Fatal(err)
	}
	st2 := root.CacheStats()
	if st2.Entries <= st.Entries {
		t.Fatalf("plain Eval did not add entries (entries %d -> %d)", st.Entries, st2.Entries)
	}
	// …while the interned program's entries can be evicted precisely.
	evicted0 := st2.Evicted
	root.DropEvalProgram(p)
	st3 := root.CacheStats()
	if st3.Evicted-evicted0 < grew {
		t.Fatalf("DropEvalProgram evicted %d entries, want >= %d", st3.Evicted-evicted0, grew)
	}
	// And the program still runs afterwards (recompiles).
	res, err := w.EvalProgramCtx(context.Background(), p)
	if err != nil || res.Value.I() != 1225 {
		t.Fatalf("rerun after drop: %v, %v", res, err)
	}
}
