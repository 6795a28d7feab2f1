package vm_test

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"selfgo"
	"selfgo/internal/ast"
	"selfgo/internal/bench"
	"selfgo/internal/core"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/vm"
)

// TestInstrRecord pins the dispatched record: at most 32 bytes, and
// nothing in it the garbage collector must scan — everything a pointer
// would reach lives in the Code's cold tables.
func TestInstrRecord(t *testing.T) {
	if size := unsafe.Sizeof(vm.Instr{}); size > 32 {
		t.Errorf("vm.Instr is %d bytes, want at most 32", size)
	}
	typ := reflect.TypeOf(vm.Instr{})
	for i := range typ.NumField() {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("vm.Instr.%s is a %s: the record must hold no pointer, slice, string, map or interface", f.Name, f.Type)
		}
	}
}

// TestOperandRoles assembles the benchmarks under three presets and
// checks, instruction by instruction, that what the role table reads off
// an instruction is exactly what the graph node it was encoded from
// says: the registers read (in slot order), the register written, the
// branch edges, and the non-local-return landing — a pc slot counting
// as right when it reaches the instruction the node's successor did.
func TestOperandRoles(t *testing.T) {
	seen := map[ir.Op]int{}
	check := func(g *ir.Graph) {
		c, src := vm.Linearize(g)
		at := map[*ir.Node]int{}
		for pc, n := range src {
			if n != nil {
				at[n] = pc
			}
		}
		// land is where control that reaches node n runs its first
		// instruction: labels and dead pure nodes emit none.
		land := func(n *ir.Node) int {
			for hops := 0; n != nil && hops < len(src)+len(g.Nodes()); hops++ {
				if pc, ok := at[n]; ok {
					return pc
				}
				if len(n.Succ) == 0 {
					break
				}
				n = n.Succ[0]
			}
			return -1
		}
		// follow is the instruction a jump to pc ends up running.
		follow := func(pc int) int {
			for hops := 0; pc >= 0 && pc < len(c.Instrs) && c.Instrs[pc].Op == vm.OpJmp && hops < len(c.Instrs); hops++ {
				pc = int(c.Instrs[pc].T)
			}
			return pc
		}
		for pc, n := range src {
			if n == nil {
				continue
			}
			seen[n.Op]++
			o := c.OperandsOf(pc)
			var uses []ir.Reg
			for _, r := range append([]ir.Reg{n.A, n.B, n.C, n.FailBlk}, n.Args...) {
				if r != ir.NoReg {
					uses = append(uses, r)
				}
			}
			for _, cp := range n.Caps {
				if !cp.FromUp {
					uses = append(uses, cp.Src)
				}
			}
			where := func() string { return g.Name + ": " + n.String() }
			if !slices.Equal(o.Uses, uses) || o.Def != n.Dst {
				t.Errorf("%s: roles read %v and write r%d, the node reads %v and writes r%d", where(), o.Uses, o.Def, uses, n.Dst)
			}
			succ := n.Succ
			if o.FallsThrough && len(succ) > 0 {
				if follow(pc+1) != land(succ[0]) {
					t.Errorf("%s: falls through to pc %d, its successor runs at %d", where(), follow(pc+1), land(succ[0]))
				}
				succ = succ[1:]
			}
			var want []int
			for _, s := range succ {
				want = append(want, land(s))
			}
			var got []int
			for _, e := range o.Edges {
				got = append(got, follow(e))
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: edges reach %v, its successors run at %v", where(), got, want)
			}
			if want, got := land(n.Landing), follow(o.Landing); want != got {
				t.Errorf("%s: landing reaches %d, the node's runs at %d", where(), got, want)
			}
		}
	}
	for _, cfg := range []core.Config{core.NewSELF, core.ST80, core.StaticIdealC} {
		for _, b := range bench.All() {
			h := newHarness(t, cfg, b.Source)
			h.vm.Budget = vm.Budget{MaxInstrs: 300_000}
			h.vm.CompileMethod = func(m *obj.Method, rmap *obj.Map) (*vm.Code, error) {
				g, _, err := h.c.CompileMethod(m, rmap)
				if err != nil {
					return nil, err
				}
				check(g)
				return vm.Assemble(g), nil
			}
			h.vm.CompileBlock = func(blk *ast.Block, cells []string) (*vm.Code, error) {
				g, _, err := h.c.CompileBlock(blk, cells)
				if err != nil {
					return nil, err
				}
				check(g)
				return vm.Assemble(g), nil
			}
			_, err := h.vm.RunMethod(lookupMeth(t, h, b.Entry), obj.Obj(h.w.Lobby))
			var re *vm.RuntimeError
			if err != nil && !(errors.As(err, &re) && re.Kind == vm.KindOutOfFuel) {
				t.Fatalf("%s under %s: %v", b.Name, cfg.Name, err)
			}
		}
	}
	t.Logf("instructions checked per op: %v", seen)
	for _, op := range []ir.Op{ir.Const, ir.Move, ir.LoadF, ir.StoreF, ir.LoadE, ir.StoreE, ir.VecLen, ir.NewVec,
		ir.Arith, ir.CmpBr, ir.TypeTest, ir.Send, ir.Call, ir.PrimOp, ir.MkBlk, ir.Fail, ir.Return,
		ir.NLReturn, ir.LoadUp, ir.StoreUp} {
		if seen[op] == 0 {
			t.Errorf("no %s instruction in the corpus: its roles went unchecked", op)
		}
	}
}

// TestCodeHostBytes reports what the Codes the 21 benchmarks compile
// under new SELF take in host memory: the records the VM dispatches
// (fused tails and the pc map included), and the cold tables beside
// them. With the 216-byte record they took 5,738,696 B: 5,582,836 of
// records and pc map, 155,860 of argument vectors and captures. The
// bound keeps them under a quarter of that.
func TestCodeHostBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark")
	}
	var codes []*vm.Code
	vm.TestHookAssemble = func(_, c *vm.Code) *vm.Code {
		codes = append(codes, c)
		return c
	}
	defer func() { vm.TestHookAssemble = nil }()
	for _, b := range bench.All() {
		sys, err := selfgo.NewSystem(selfgo.NewSELF)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadSource(b.Source); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Call(b.Entry); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
	entries, tails, records, cold := 0, 0, 0, 0
	for _, c := range codes {
		r, k := c.HostBytes()
		entries += len(c.Instrs)
		for i := range c.Instrs {
			tails += len(c.Tails(&c.Instrs[i]))
		}
		records, cold = records+r, cold+k
	}
	t.Logf("%d Codes: %d entries and %d fused tails; %d B of records, %d B of cold tables, %d B in all",
		len(codes), entries, tails, records, cold, records+cold)
	if len(codes) != 103 {
		t.Errorf("the suite compiled %d Codes, not the 103 the bound was taken over", len(codes))
	}
	if limit := 5_738_696 / 4; records+cold > limit {
		t.Errorf("the Codes take %d B, more than %d (a quarter of what they took with 216-byte records)", records+cold, limit)
	}
}

// TestBigMethod compiles a 12,000-statement method — about 120 KB of
// source — under new SELF. The compiler mints more virtual registers for
// it than a 16-bit register field could name, so no register slot of
// the record may be narrower than the compiler's.
func TestBigMethod(t *testing.T) {
	const stmts = 12_000
	sys, err := selfgo.NewSystem(selfgo.NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadSource("big = ( | x <- 0 | " + strings.Repeat("x: x + 1. ", stmts) + "x )."); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Call("big")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value.String(); got != "12000" {
		t.Errorf("big = %s, want 12000", got)
	}
	code, err := sys.CodeFor("big")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d virtual registers, %d slots, %d entries", code.VirtRegs, code.NumRegs, len(code.Instrs))
	if code.VirtRegs <= math.MaxInt16 {
		t.Errorf("only %d virtual registers: the method no longer exercises wide register numbers", code.VirtRegs)
	}
}

// TestFuseBoundsN: a run of self-moves longer than one entry's N can
// count is absorbed only up to the bound — the rest stay in the stream,
// fused where they can be — so the entries still add up to every
// modelled instruction, and a run charges them all.
func TestFuseBoundsN(t *testing.T) {
	const moves = 70_000
	no := ir.NoReg
	ins := make([]vm.Wide, moves, moves+1)
	for i := range ins {
		ins[i] = vm.Wide{Op: ir.Move, Dst: 2, A: 2, B: no, C: no}
	}
	ins = append(ins, vm.Wide{Op: ir.Return, Dst: no, A: 2, B: no, C: no})
	code := vm.HandCode("handmade", 4, 2, ins...)
	vm.Fuse(code)
	var n, cost int64
	for i := range code.Instrs {
		n += int64(code.Instrs[i].N)
		cost += int64(code.Instrs[i].Cost)
	}
	if n != moves+1 || cost != moves*vm.CostMove+vm.CostReturn || len(code.Instrs) < 2 {
		t.Fatalf("%d entries stand for %d instructions costing %d, want %d costing %d:\n%s",
			len(code.Instrs), n, cost, moves+1, moves*vm.CostMove+vm.CostReturn, code.Disasm())
	}
	h := newHarness(t, core.NewSELF, fuseSrc)
	h.vm.CompileMethod = func(*obj.Method, *obj.Map) (*vm.Code, error) { return code, nil }
	if v, err := h.vm.RunMethod(lookupMeth(t, h, "quot:Over:"), obj.Obj(h.w.Lobby), obj.Int(5), obj.Int(6)); err != nil || v.I() != 5 {
		t.Fatalf("got %v, %v; want 5", v, err)
	}
	if got := h.vm.Stats.Instrs; got != moves+1 {
		t.Errorf("the run charged %d instructions, want %d", got, moves+1)
	}
}
