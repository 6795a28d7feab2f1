package vm_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"selfgo"
	"selfgo/internal/ast"
	"selfgo/internal/bbv"
	"selfgo/internal/bench"
	"selfgo/internal/core"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/vm"
)

// newFusedHarness is newHarness with the superinstruction pass applied
// after assembly, the way the public package wires it.
func newFusedHarness(t *testing.T, cfg core.Config, src string) *harness {
	t.Helper()
	h := newHarness(t, cfg, src)
	inner := h.vm.CompileMethod
	h.vm.CompileMethod = func(m *obj.Method, rmap *obj.Map) (*vm.Code, error) {
		c, err := inner(m, rmap)
		if err == nil {
			vm.Fuse(c)
		}
		return c, err
	}
	innerBlk := h.vm.CompileBlock
	h.vm.CompileBlock = func(b *ast.Block, upNames []string) (*vm.Code, error) {
		c, err := innerBlk(b, upNames)
		if err == nil {
			vm.Fuse(c)
		}
		return c, err
	}
	return h
}

const fuseSrc = `
sumTo: n = ( | s <- 0. i <- 0 | [ i < n ] whileTrue: [ s: s + i. i: i + 1 ]. s ).
fib: n = ( (n < 2) ifTrue: [ n ] False: [ (fib: n - 1) + (fib: n - 2) ] ).
quot: a Over: b = ( a / b ).
square: n = ( n * n ).
`

// TestFusePreservesModelledTotals: fusing a stream must preserve the
// modelled code exactly — same total constituent count (sum of N), same
// total static cost, same Bytes — while producing strictly fewer
// dispatches, and every branch target must land on a group head.
func TestFusePreservesModelledTotals(t *testing.T) {
	h := newHarness(t, core.NewSELF, fuseSrc)
	fusedAny := false
	for _, sel := range []string{"sumTo:", "fib:", "quot:Over:", "square:"} {
		plain := h.codeFor(t, sel)
		fused := plain.Clone()
		vm.Fuse(fused)

		var plainCost, fusedCost, fusedN int64
		for i := range plain.Instrs {
			plainCost += int64(plain.Instrs[i].Cost)
		}
		for i := range fused.Instrs {
			in := &fused.Instrs[i]
			fusedN += int64(in.N)
			fusedCost += int64(in.Cost)
			_, tails := vm.FusedHeadOp(in.Op)
			fusedAny = fusedAny || tails > 0
			if len(fused.Tails(in)) != tails {
				t.Errorf("%s@%d: %d tails, want %d", sel, i, len(fused.Tails(in)), tails)
			}
			// Branch targets (including those held by interior
			// constituents) must be valid new pcs.
			for _, f := range append([]vm.Instr{*in}, fused.Tails(in)...) {
				checkTarget := func(pc int32, kind string) {
					if pc < 0 || int(pc) >= len(fused.Instrs) {
						t.Errorf("%s@%d: %s target %d out of range [0,%d)", sel, i, kind, pc, len(fused.Instrs))
					}
				}
				switch f.Op {
				case vm.OpJmp:
					checkTarget(f.T, "jmp")
				case ir.CmpBr, ir.TypeTest:
					checkTarget(f.T, "T")
					checkTarget(f.F, "F")
				}
				if f.Checked() {
					checkTarget(f.F, "ovfl")
				}
			}
		}
		if fusedN != int64(len(plain.Instrs)) {
			t.Errorf("%s: sum of N = %d, want %d (unfused instr count)", sel, fusedN, len(plain.Instrs))
		}
		if fusedCost != plainCost {
			t.Errorf("%s: fused static cost %d != unfused %d", sel, fusedCost, plainCost)
		}
		if fused.Bytes != plain.Bytes {
			t.Errorf("%s: fusion changed modelled Bytes %d -> %d", sel, plain.Bytes, fused.Bytes)
		}
	}
	if !fusedAny {
		t.Error("no superinstruction produced on any test method; patterns never fire")
	}
}

// TestFusedExecutionMatchesUnfused: the same programs produce the same
// values and the same full RunStats with and without fusion, including
// the checked-arith early exits (overflow branch, division by zero)
// that trigger the uncharge path inside fused groups.
func TestFusedExecutionMatchesUnfused(t *testing.T) {
	for _, cfg := range []core.Config{core.NewSELF, core.ST80, core.StaticIdealC} {
		plain := newHarness(t, cfg, fuseSrc)
		fused := newFusedHarness(t, cfg, fuseSrc)
		calls := []struct {
			sel  string
			args []obj.Value
		}{
			{"sumTo:", []obj.Value{obj.Int(500)}},
			{"fib:", []obj.Value{obj.Int(12)}},
			{"quot:Over:", []obj.Value{obj.Int(91), obj.Int(7)}},
			{"square:", []obj.Value{obj.Int(9)}},
			// Overflow: square of 2^40 exceeds MaxSmallInt, taking the
			// checked-arith overflow branch (fail path under configs
			// that keep the check).
			{"square:", []obj.Value{obj.Int(1 << 40)}},
			// Division by zero: checked configs branch to the failure
			// path, StaticIdeal faults on the unchecked path; either
			// way fused and unfused must agree.
			{"quot:Over:", []obj.Value{obj.Int(5), obj.Int(0)}},
		}
		for _, c := range calls {
			pv, perr := plain.vm.RunMethod(lookupMeth(t, plain, c.sel), obj.Obj(plain.w.Lobby), c.args...)
			fv, ferr := fused.vm.RunMethod(lookupMeth(t, fused, c.sel), obj.Obj(fused.w.Lobby), c.args...)
			if (perr == nil) != (ferr == nil) {
				t.Fatalf("%s %s: error mismatch: plain=%v fused=%v", cfg.Name, c.sel, perr, ferr)
			}
			if perr == nil && !pv.Eq(fv) {
				t.Fatalf("%s %s: value mismatch: plain=%s fused=%s", cfg.Name, c.sel, pv, fv)
			}
			if plain.vm.Stats != fused.vm.Stats {
				t.Fatalf("%s %s: stats diverged:\nplain: %+v\nfused: %+v", cfg.Name, c.sel, plain.vm.Stats, fused.vm.Stats)
			}
		}
	}
}

func lookupMeth(t *testing.T, h *harness, sel string) *obj.Method {
	t.Helper()
	r := obj.Lookup(h.w.Lobby.Map, sel)
	if r == nil {
		t.Fatalf("no %q", sel)
	}
	return r.Slot.Meth
}

// TestTracedMatchesFast: tracing makes every dispatch reach poll, and
// poll must then do nothing but write the line — a traced run executes
// identically to an untraced one: same value, same full RunStats, and
// under a budget or a cancelled context the same fault (kind, message,
// backtrace pcs) at the same instruction, whatever the poll stride,
// with fusion on and off.
func TestTracedMatchesFast(t *testing.T) {
	type run struct {
		name, sel string
		args      []obj.Value
		ctx       context.Context
		budget    vm.Budget
	}
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	runs := []run{
		{"sumTo", "sumTo:", []obj.Value{obj.Int(100)}, bg, vm.Budget{}},
		{"fib", "fib:", []obj.Value{obj.Int(10)}, bg, vm.Budget{}},
		{"div0", "quot:Over:", []obj.Value{obj.Int(5), obj.Int(0)}, bg, vm.Budget{}},
	}
	for _, every := range []int64{1, 7, 1024} {
		fib := []obj.Value{obj.Int(15)}
		runs = append(runs,
			run{fmt.Sprintf("fuel/poll%d", every), "fib:", fib, bg, vm.Budget{MaxInstrs: 500, PollEvery: every}},
			run{fmt.Sprintf("cancelled/poll%d", every), "fib:", fib, cancelled, vm.Budget{PollEvery: every}})
	}
	type outcome struct {
		val   string
		fault *vm.RuntimeError // kind, message and backtrace pcs
		stats vm.RunStats
	}
	for _, fuse := range []bool{false, true} {
		for _, r := range runs {
			var out [2]outcome
			for i, tr := range []io.Writer{nil, io.Discard} {
				h := newHarness(t, core.NewSELF, fuseSrc)
				if fuse {
					h = newFusedHarness(t, core.NewSELF, fuseSrc)
				}
				h.vm.Trace, h.vm.Budget = tr, r.budget
				v, err := h.vm.RunMethodCtx(r.ctx, lookupMeth(t, h, r.sel), obj.Obj(h.w.Lobby), r.args...)
				out[i] = outcome{val: v.String(), stats: h.vm.Stats}
				if !errors.As(err, &out[i].fault) && (err != nil || r.budget != (vm.Budget{})) {
					t.Fatalf("fused=%v %s: want a value or a RuntimeError (a fault under a budget), got %v", fuse, r.name, err)
				}
			}
			if !reflect.DeepEqual(out[0], out[1]) {
				t.Errorf("fused=%v %s: traced run diverged:\nfast:   %+v\ntraced: %+v", fuse, r.name, out[0], out[1])
			}
		}
	}
}

// TestTraceGolden: the trace of fused fuseSrc code is byte for byte what
// the run loop's deleted traced twin wrote: one line per dispatch (a
// fused entry traces once), indented by activation depth.
func TestTraceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/trace_fuse.golden")
	if err != nil {
		t.Fatal(err)
	}
	h := newFusedHarness(t, core.NewSELF, fuseSrc)
	var sb strings.Builder
	h.vm.Trace = &sb
	h.call(t, "fib:", obj.Int(3))
	h.call(t, "sumTo:", obj.Int(2))
	if _, err := h.vm.RunMethod(lookupMeth(t, h, "quot:Over:"), obj.Obj(h.w.Lobby), obj.Int(7), obj.Int(0)); err == nil {
		t.Fatal("quot: 7 Over: 0 did not fail")
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("trace differs from testdata/trace_fuse.golden:\n%s", got)
	}
}

// TestFuseRespectsBranchTargets: an instruction that is a branch target
// must stay a group head — fusing it into the middle of a group would
// let a jump skip the earlier constituents.
func TestFuseRespectsBranchTargets(t *testing.T) {
	// Hand-built stream:
	//   0: r2 <- const 1
	//   1: r2 <- r2 + r2        <- branch target
	//   2: if r2 < r3 ->1 else ->3
	//   3: ret r2
	// (0,1) must NOT fuse (1 is a target); (1,2) may fuse into
	// ArithCmpBr, and the loop branch must then point at the fused head.
	no := ir.NoReg
	c := vm.HandCode("handmade", 4, 0,
		vm.Wide{Op: ir.Const, Dst: 2, A: no, B: no, C: no, Val: obj.Int(1)},
		vm.Wide{Op: ir.Arith, Dst: 2, A: 2, B: 2, C: no, AOp: ir.Add},
		vm.Wide{Op: ir.CmpBr, Dst: no, A: 2, B: 3, C: no, COp: ir.LT, T: 1, F: 3},
		vm.Wide{Op: ir.Return, Dst: no, A: 2, B: no, C: no},
	)
	vm.Fuse(c)
	if len(c.Instrs) != 3 {
		t.Fatalf("got %d instrs, want 3:\n%s", len(c.Instrs), c.Disasm())
	}
	if c.Instrs[0].Op != ir.Const {
		t.Errorf("instr 0 fused across a branch target: %s", c.Render(&c.Instrs[0]))
	}
	if c.Instrs[1].Op != vm.OpArithCmpBr {
		t.Errorf("instr 1 = %s, want fused arith+cmpbr", c.Render(&c.Instrs[1]))
	}
	if got := c.Tails(&c.Instrs[1])[0].T; got != 1 {
		t.Errorf("loop branch T = %d after remap, want 1 (the fused head)", got)
	}
	if got := c.Tails(&c.Instrs[1])[0].F; got != 2 {
		t.Errorf("loop branch F = %d after remap, want 2 (the return)", got)
	}
}

// TestFusedDisasm: fused instructions render their constituents, so
// disassembly stays readable.
func TestFusedDisasm(t *testing.T) {
	h := newFusedHarness(t, core.NewSELF, fuseSrc)
	d := h.codeFor(t, "sumTo:").Disasm()
	if !strings.Contains(d, "fused{") {
		t.Errorf("disassembly of a fused method shows no fused instruction:\n%s", d)
	}
}

// TestFusedLoopDensity pins, without timing anything, what coalescing
// and fusion are for: in the code that ships for the loop benchmarks,
// the first innermost loop of the stream (the common path; its out-of-
// line copies follow) dispatches at most half as many entries as it
// retires modelled instructions.
func TestFusedLoopDensity(t *testing.T) {
	for _, name := range []string{"sumTo", "sumFromTo", "sieve", "atAllPut", "bubble"} {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %s", name)
		}
		sys, err := selfgo.NewSystem(selfgo.NewSELF)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadSource(b.Source); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Call(b.Entry); err != nil {
			t.Fatal(err)
		}
		code, err := sys.CodeFor(b.Entry)
		if err != nil {
			t.Fatal(err)
		}
		// The first backward jump closes the first innermost loop.
		head, tail := -1, -1
		for pc := range code.Instrs {
			for _, f := range append([]vm.Instr{code.Instrs[pc]}, code.Tails(&code.Instrs[pc])...) {
				if f.Op == vm.OpJmp && int(f.T) <= pc && head < 0 {
					head, tail = int(f.T), pc
				}
			}
		}
		if head < 0 {
			t.Fatalf("%s: no loop in\n%s", name, code.Disasm())
		}
		entries, instrs := tail-head+1, 0
		for pc := head; pc <= tail; pc++ {
			instrs += int(code.Instrs[pc].N)
		}
		t.Logf("%s: %d entries for %d modelled instructions", name, entries, instrs)
		if 2*entries > instrs {
			t.Errorf("%s: %d entries for %d modelled instructions, want at most half:\n%s", name, entries, instrs, code.Disasm())
		}
		if name == "sumTo" && (entries > 5 || instrs != 12) {
			t.Errorf("sumTo: %d entries for %d modelled instructions, want at most 5 for 12", entries, instrs)
		}
	}
}

// TestFuseAbsorbsSelfMoves: a self-move leaves the fused stream and
// its charge moves to the next instruction of its block; one that is a
// branch target hands that on; one that falls into a branch target
// stays; and Code.pcs remembers where every entry came from.
func TestFuseAbsorbsSelfMoves(t *testing.T) {
	no := ir.NoReg
	self := vm.Wide{Op: ir.Move, Dst: 3, A: 3, B: no, C: no}
	c := vm.HandCode("handmade", 5, 0,
		vm.Wide{Op: ir.Const, Dst: 2, A: no, B: no, C: no, Val: obj.Int(1)},
		self, // absorbed by the Arith
		vm.Wide{Op: ir.Arith, Dst: 2, A: 2, B: 2, C: no, AOp: ir.Add},
		self, // a branch target: absorbed by the CmpBr, which becomes the target
		vm.Wide{Op: ir.CmpBr, Dst: no, A: 2, B: 4, C: no, COp: ir.LT, T: 3, F: 6},
		self, // falls into a branch target: stays
		vm.Wide{Op: ir.Return, Dst: no, A: 2, B: no, C: no},
	)
	var cost int64
	for i := range c.Instrs {
		cost += int64(c.Instrs[i].Cost)
	}
	vm.Fuse(c)
	type entry struct {
		op ir.Op
		n  uint16
	}
	want := []entry{{vm.OpConstArith, 3}, {ir.CmpBr, 2}, {ir.Move, 1}, {ir.Return, 1}}
	if len(c.Instrs) != len(want) {
		t.Fatalf("got %d entries, want %d:\n%s", len(c.Instrs), len(want), c.Disasm())
	}
	var gotCost int64
	for i, w := range want {
		if in := c.Instrs[i]; in.Op != w.op || in.N != w.n {
			t.Errorf("entry %d: op %d ×%d, want op %d ×%d\n%s", i, in.Op, in.N, w.op, w.n, c.Disasm())
		}
		gotCost += int64(c.Instrs[i].Cost)
	}
	if gotCost != cost {
		t.Errorf("static cost %d after fusion, %d before", gotCost, cost)
	}
	if f := c.Tails(&c.Instrs[0]); len(f) != 1 || f[0].N != 2 {
		t.Errorf("the Arith constituent does not carry the self-move it absorbed:\n%s", c.Disasm())
	}
	if br := c.Instrs[1]; br.T != 1 || br.F != 3 {
		t.Errorf("branch ->%d else ->%d, want ->1 (itself, for the self-move it absorbed) else ->3", br.T, br.F)
	}
	for pc, want := range []int{0, 4, 5, 6} {
		if got := c.SourcePC(pc, 0); got != want {
			t.Errorf("entry %d came from pc %d, want %d", pc, got, want)
		}
	}
	if got := c.SourcePC(0, 2); got != 2 {
		t.Errorf("the Arith of entry 0 came from pc %d, want 2", got)
	}
}

// TestBBVVersionsFusedEntries: versions over fused code charge and size
// what the unfused stream does. A context-elided type test that absorbed
// a self-move uncharges only itself — one instruction and CostTypeTest —
// and keeps the move's charge; the version's Bytes count the move; and
// a fused Arith;CmpBr ends its region at its own pc.
func TestBBVVersionsFusedEntries(t *testing.T) {
	no := ir.NoReg
	build := func(w *obj.World) *vm.Code {
		c := vm.HandCode("handmade", 5, 2,
			vm.Wide{Op: ir.Const, Dst: 4, A: no, B: no, C: no, Val: obj.Int(7)},
			vm.Wide{Op: ir.Move, Dst: 4, A: 4, B: no, C: no}, // absorbed by the TypeTest
			vm.Wide{Op: ir.TypeTest, Dst: no, A: 4, B: no, C: no, TestMap: w.IntMap, T: 3, F: 6},
			vm.Wide{Op: ir.Arith, Dst: 4, A: 4, B: 2, C: no, AOp: ir.Add},
			vm.Wide{Op: ir.CmpBr, Dst: no, A: 4, B: 3, C: no, COp: ir.LT, T: 5, F: 6},
			vm.Wide{Op: ir.Return, Dst: no, A: 4, B: no, C: no},
			vm.Wide{Op: ir.Return, Dst: no, A: 2, B: no, C: no},
		)
		vm.EnableBBV(c, 0)
		return c
	}
	const extra = 3
	want := vm.RunStats{
		Instrs:      5, // the elided test is not counted
		Cycles:      vm.CostConst + vm.CostMove + vm.CostArith + vm.CostCmpBranch + vm.CostReturn + 5*extra,
		BBVVersions: 3, BBVElidedCtx: 1, MaxDepth: 1,
		BBVVersionBytes: vm.SizePrologue + vm.SizeConst + vm.SizeSimple + // entry: Const, the move
			vm.SizeSimple + vm.SizeBranch + vm.SizeReturn, // Arith;CmpBr, then Return
	}
	for _, fuse := range []bool{false, true} {
		h := newHarness(t, core.NewSELF, fuseSrc)
		h.vm.InstrExtra = extra
		code := build(h.w)
		branchPC := 4 // of the region after the type test
		if fuse {
			vm.Fuse(code)
			if len(code.Instrs) != 5 || code.Instrs[1].N != 2 || code.Instrs[2].Op != vm.OpArithCmpBr {
				t.Fatalf("unexpected fused stream:\n%s", code.Disasm())
			}
			branchPC = 2
		}
		h.vm.CompileMethod = func(*obj.Method, *obj.Map) (*vm.Code, error) { return code, nil }
		v, err := h.vm.RunMethod(lookupMeth(t, h, "quot:Over:"), obj.Obj(h.w.Lobby), obj.Int(1), obj.Int(100))
		if err != nil || v.I() != 8 {
			t.Fatalf("fused=%v: got %v, %v; want 8", fuse, v, err)
		}
		if h.vm.Stats != want {
			t.Errorf("fused=%v: stats\n %+v, want\n %+v", fuse, h.vm.Stats, want)
		}
		ent := code.BBVState().Entry()
		if ent.Elide != bbv.ElideTrue || ent.Bytes != vm.SizePrologue+vm.SizeConst+vm.SizeSimple {
			t.Errorf("fused=%v: entry version elides %d in %d bytes; want the test elided, the move's bytes counted", fuse, ent.Elide, ent.Bytes)
		}
		if next := ent.Succ(true); next == nil || next.BranchPC != branchPC {
			t.Errorf("fused=%v: the Arith;CmpBr region does not end at pc %d: %+v", fuse, branchPC, next)
		}
	}
}

// TestFusedTailUnchargedByN: when the head of a group branches out
// early, what the tail had absorbed is uncharged with it — Instrs,
// Cycles and the per-instruction surcharge — so Stats match the unfused
// stream on both outcomes.
func TestFusedTailUnchargedByN(t *testing.T) {
	no := ir.NoReg
	self := vm.Wide{Op: ir.Move, Dst: 4, A: 4, B: no, C: no}
	build := func() *vm.Code {
		return vm.HandCode("handmade", 5, 2,
			vm.Wide{Op: ir.Arith, Dst: 4, A: 2, B: 3, C: no, AOp: ir.Mul, Checked: true, F: 5},
			self,
			self,
			vm.Wide{Op: vm.OpJmp, Dst: no, A: no, B: no, C: no, T: 4},
			vm.Wide{Op: ir.Return, Dst: no, A: 4, B: no, C: no},
			vm.Wide{Op: ir.Const, Dst: 4, A: no, B: no, C: no, Val: obj.Int(-1)},
			vm.Wide{Op: vm.OpJmp, Dst: no, A: no, B: no, C: no, T: 4},
		)
	}
	fused := build()
	vm.Fuse(fused)
	if head := fused.Instrs[0]; head.Op != vm.OpArithJmp || head.N != 4 {
		t.Fatalf("entry 0 is op %d ×%d, want the Arith;Jmp group ×4:\n%s", head.Op, head.N, fused.Disasm())
	}
	for _, args := range [][]obj.Value{{obj.Int(3), obj.Int(4)}, {obj.Int(1 << 20), obj.Int(1 << 20)}} {
		var stats [2]vm.RunStats
		var vals [2]obj.Value
		for i, code := range []*vm.Code{build(), fused} {
			h := newHarness(t, core.NewSELF, fuseSrc)
			h.vm.InstrExtra = 3
			h.vm.CompileMethod = func(*obj.Method, *obj.Map) (*vm.Code, error) { return code, nil }
			v, err := h.vm.RunMethod(lookupMeth(t, h, "quot:Over:"), obj.Obj(h.w.Lobby), args...)
			if err != nil {
				t.Fatal(err)
			}
			vals[i], stats[i] = v, h.vm.Stats
		}
		if !vals[0].Eq(vals[1]) || stats[0] != stats[1] {
			t.Errorf("%v: unfused %s %+v\n        fused %s %+v", args, vals[0], stats[0], vals[1], stats[1])
		}
	}
}
