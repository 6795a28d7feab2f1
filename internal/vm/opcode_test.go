package vm

import (
	"strings"
	"testing"

	"selfgo/internal/ir"
	"selfgo/internal/obj"
)

// runGraph assembles and executes a hand-built graph with the given
// receiver and arguments (calling convention: regs[0]=recv, regs[2:]).
func runGraph(t *testing.T, w *obj.World, g *ir.Graph, recv obj.Value, args ...obj.Value) (obj.Value, *VM) {
	t.Helper()
	machine := &VM{World: w}
	g.NumParams = len(args)
	code := Assemble(g)
	v, err := machine.invokeCode(code, recv, args)
	if err != nil {
		t.Fatalf("exec: %v\n%s", err, code.Disasm())
	}
	return v, machine
}

// chain wires nodes sequentially from the entry and returns the last.
func chain(g *ir.Graph, nodes ...*ir.Node) *ir.Node {
	prev := g.Entry
	for _, n := range nodes {
		prev.Succ = append(prev.Succ, n)
		prev = n
	}
	return prev
}

func TestOpConstMoveReturn(t *testing.T) {
	w := obj.NewWorld()
	g := ir.NewGraph("t")
	r0, r1 := g.NewReg(), g.NewReg()
	c := g.NewNode(ir.Const)
	c.Dst = r0
	c.Val = obj.Int(41)
	mv := g.NewNode(ir.Move)
	mv.Dst = r1
	mv.A = r0
	ret := g.NewNode(ir.Return)
	ret.A = r1
	chain(g, c, mv, ret)
	// Defeat DCE: ret reads r1, mv reads r0.
	v, m := runGraph(t, w, g, obj.Nil())
	if !v.Eq(obj.Int(41)) {
		t.Fatalf("got %v", v)
	}
	if m.Stats.Cycles != CostConst+CostMove+CostReturn {
		t.Errorf("cycles = %d", m.Stats.Cycles)
	}
}

func TestOpArithVariants(t *testing.T) {
	w := obj.NewWorld()
	cases := []struct {
		op   ir.ArithKind
		a, b int64
		want int64
	}{
		{ir.Add, 20, 22, 42}, {ir.Sub, 50, 8, 42}, {ir.Mul, 6, 7, 42},
		{ir.Div, 85, 2, 42}, {ir.Mod, 85, 43, 42},
		{ir.BAnd, 0xff, 0x2a, 42}, {ir.BOr, 0x2a, 0x0a, 42}, {ir.BXor, 0x6a, 0x40, 42},
	}
	for _, c := range cases {
		g := ir.NewGraph("t")
		ra, rb, rd := g.NewReg(), g.NewReg(), g.NewReg()
		ca := g.NewNode(ir.Const)
		ca.Dst = ra
		ca.Val = obj.Int(c.a)
		cb := g.NewNode(ir.Const)
		cb.Dst = rb
		cb.Val = obj.Int(c.b)
		op := g.NewNode(ir.Arith)
		op.Dst = rd
		op.A = ra
		op.B = rb
		op.AOp = c.op
		ret := g.NewNode(ir.Return)
		ret.A = rd
		chain(g, ca, cb, op, ret)
		v, _ := runGraph(t, w, g, obj.Nil())
		if !v.Eq(obj.Int(c.want)) {
			t.Errorf("%v(%d,%d) = %v, want %d", c.op, c.a, c.b, v, c.want)
		}
	}
}

func TestOpCheckedArithOverflowBranch(t *testing.T) {
	w := obj.NewWorld()
	g := ir.NewGraph("t")
	ra, rb, rd, rf := g.NewReg(), g.NewReg(), g.NewReg(), g.NewReg()
	ca := g.NewNode(ir.Const)
	ca.Dst = ra
	ca.Val = obj.Int(obj.MaxSmallInt)
	cb := g.NewNode(ir.Const)
	cb.Dst = rb
	cb.Val = obj.Int(1)
	op := g.NewNode(ir.Arith)
	op.Dst = rd
	op.A = ra
	op.B = rb
	op.AOp = ir.Add
	op.Checked = true
	retOK := g.NewNode(ir.Return)
	retOK.A = rd
	cf := g.NewNode(ir.Const)
	cf.Dst = rf
	cf.Val = obj.Int(-7)
	cf.Uncommon = true
	retOv := g.NewNode(ir.Return)
	retOv.A = rf
	retOv.Uncommon = true

	chain(g, ca, cb, op)
	op.Succ = []*ir.Node{retOK, cf}
	cf.Succ = []*ir.Node{retOv}

	v, m := runGraph(t, w, g, obj.Nil())
	if !v.Eq(obj.Int(-7)) {
		t.Fatalf("overflow branch not taken: %v", v)
	}
	if m.Stats.OvflChecks != 1 {
		t.Errorf("overflow checks = %d", m.Stats.OvflChecks)
	}
}

func TestOpCmpBranchesAndTypeTest(t *testing.T) {
	w := obj.NewWorld()
	mk := func(op ir.CmpKind, a, b int64) int64 {
		g := ir.NewGraph("t")
		ra, rb, rt, rf := g.NewReg(), g.NewReg(), g.NewReg(), g.NewReg()
		ca := g.NewNode(ir.Const)
		ca.Dst = ra
		ca.Val = obj.Int(a)
		cb := g.NewNode(ir.Const)
		cb.Dst = rb
		cb.Val = obj.Int(b)
		cmp := g.NewNode(ir.CmpBr)
		cmp.A = ra
		cmp.B = rb
		cmp.COp = op
		c1 := g.NewNode(ir.Const)
		c1.Dst = rt
		c1.Val = obj.Int(1)
		r1 := g.NewNode(ir.Return)
		r1.A = rt
		c0 := g.NewNode(ir.Const)
		c0.Dst = rf
		c0.Val = obj.Int(0)
		r0 := g.NewNode(ir.Return)
		r0.A = rf
		chain(g, ca, cb, cmp)
		cmp.Succ = []*ir.Node{c1, c0}
		c1.Succ = []*ir.Node{r1}
		c0.Succ = []*ir.Node{r0}
		v, _ := runGraph(t, w, g, obj.Nil())
		return v.I()
	}
	checks := []struct {
		op   ir.CmpKind
		a, b int64
		want int64
	}{
		{ir.LT, 1, 2, 1}, {ir.LT, 2, 1, 0}, {ir.LE, 2, 2, 1},
		{ir.GT, 3, 2, 1}, {ir.GE, 2, 3, 0}, {ir.EQ, 5, 5, 1},
		{ir.NE, 5, 5, 0}, {ir.NE, 5, 6, 1},
	}
	for _, c := range checks {
		if got := mk(c.op, c.a, c.b); got != c.want {
			t.Errorf("%d %v %d = %d, want %d", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestOpVectorTraffic(t *testing.T) {
	w := obj.NewWorld()
	g := ir.NewGraph("t")
	size, fill, vec, idx, val, out, ln, acc := g.NewReg(), g.NewReg(), g.NewReg(), g.NewReg(), g.NewReg(), g.NewReg(), g.NewReg(), g.NewReg()
	cs := g.NewNode(ir.Const)
	cs.Dst = size
	cs.Val = obj.Int(3)
	cfill := g.NewNode(ir.Const)
	cfill.Dst = fill
	cfill.Val = obj.Int(9)
	nv := g.NewNode(ir.NewVec)
	nv.Dst = vec
	nv.A = size
	nv.B = fill
	ci := g.NewNode(ir.Const)
	ci.Dst = idx
	ci.Val = obj.Int(1)
	cv := g.NewNode(ir.Const)
	cv.Dst = val
	cv.Val = obj.Int(33)
	st := g.NewNode(ir.StoreE)
	st.A = vec
	st.B = idx
	st.C = val
	ld := g.NewNode(ir.LoadE)
	ld.Dst = out
	ld.A = vec
	ld.B = idx
	vl := g.NewNode(ir.VecLen)
	vl.Dst = ln
	vl.A = vec
	sum := g.NewNode(ir.Arith)
	sum.Dst = acc
	sum.A = out
	sum.B = ln
	sum.AOp = ir.Add
	ret := g.NewNode(ir.Return)
	ret.A = acc
	chain(g, cs, cfill, nv, ci, cv, st, ld, vl, sum, ret)
	v, m := runGraph(t, w, g, obj.Nil())
	if !v.Eq(obj.Int(36)) { // 33 + len 3
		t.Fatalf("got %v", v)
	}
	if m.Stats.Allocs != 1 {
		t.Errorf("allocs = %d", m.Stats.Allocs)
	}
}

func TestOpCloneAndFields(t *testing.T) {
	w := obj.NewWorld()
	// A prototype with one field.
	m := &obj.Map{Name: "pt"}
	proto := &obj.Object{Map: m, Fields: []obj.Value{obj.Int(5)}}

	g := ir.NewGraph("t")
	p, c, f, out := g.NewReg(), g.NewReg(), g.NewReg(), g.NewReg()
	cp := g.NewNode(ir.Const)
	cp.Dst = p
	cp.Val = obj.Obj(proto)
	cl := g.NewNode(ir.CloneOp)
	cl.Dst = c
	cl.A = p
	cf := g.NewNode(ir.Const)
	cf.Dst = f
	cf.Val = obj.Int(77)
	st := g.NewNode(ir.StoreF)
	st.A = c
	st.Index = 0
	st.B = f
	ld := g.NewNode(ir.LoadF)
	ld.Dst = out
	ld.A = c
	ld.Index = 0
	ret := g.NewNode(ir.Return)
	ret.A = out
	chain(g, cp, cl, cf, st, ld, ret)
	v, _ := runGraph(t, w, g, obj.Nil())
	if !v.Eq(obj.Int(77)) {
		t.Fatalf("got %v", v)
	}
	// The prototype's field is untouched: clones copy storage.
	if !proto.Fields[0].Eq(obj.Int(5)) {
		t.Error("clone aliased the prototype")
	}
}

func TestOpTypeTestDispatch(t *testing.T) {
	w := obj.NewWorld()
	g := ir.NewGraph("t")
	a, r1, r2 := ir.Reg(2), g.NewReg(), g.NewReg()
	g.NumRegs = 3 // recv, result, arg convention
	r1 = g.NewReg()
	r2 = g.NewReg()
	tt := g.NewNode(ir.TypeTest)
	tt.A = a
	tt.TestMap = w.IntMap
	c1 := g.NewNode(ir.Const)
	c1.Dst = r1
	c1.Val = obj.Int(1)
	ret1 := g.NewNode(ir.Return)
	ret1.A = r1
	c2 := g.NewNode(ir.Const)
	c2.Dst = r2
	c2.Val = obj.Int(0)
	ret2 := g.NewNode(ir.Return)
	ret2.A = r2
	chain(g, tt)
	tt.Succ = []*ir.Node{c1, c2}
	c1.Succ = []*ir.Node{ret1}
	c2.Succ = []*ir.Node{ret2}

	if v, _ := runGraph(t, w, g, obj.Nil(), obj.Int(3)); !v.Eq(obj.Int(1)) {
		t.Errorf("int arg: %v", v)
	}
	if v, _ := runGraph(t, w, g, obj.Nil(), obj.Str("x")); !v.Eq(obj.Int(0)) {
		t.Errorf("str arg: %v", v)
	}
}

func TestOpPrimOpAllSelectors(t *testing.T) {
	w := obj.NewWorld()
	run := func(sel string, recv obj.Value, args ...obj.Value) (obj.Value, error) {
		g := ir.NewGraph("t")
		regs := []ir.Reg{g.NewReg()}
		cr := g.NewNode(ir.Const)
		cr.Dst = regs[0]
		cr.Val = recv
		nodes := []*ir.Node{cr}
		for _, a := range args {
			r := g.NewReg()
			cn := g.NewNode(ir.Const)
			cn.Dst = r
			cn.Val = a
			regs = append(regs, r)
			nodes = append(nodes, cn)
		}
		dst := g.NewReg()
		p := g.NewNode(ir.PrimOp)
		p.Dst = dst
		p.Sel = sel
		p.Args = regs
		ret := g.NewNode(ir.Return)
		ret.A = dst
		nodes = append(nodes, p, ret)
		chain(g, nodes...)
		machine := &VM{World: w}
		return machine.invokeCode(Assemble(g), obj.Nil(), nil)
	}
	vec := obj.Obj(w.NewVector(4, obj.Int(2)))

	cases := []struct {
		sel  string
		recv obj.Value
		args []obj.Value
		want obj.Value
	}{
		{"_IntAdd:", obj.Int(1), []obj.Value{obj.Int(2)}, obj.Int(3)},
		{"_IntSub:", obj.Int(5), []obj.Value{obj.Int(2)}, obj.Int(3)},
		{"_IntMul:", obj.Int(5), []obj.Value{obj.Int(2)}, obj.Int(10)},
		{"_IntDiv:", obj.Int(7), []obj.Value{obj.Int(2)}, obj.Int(3)},
		{"_IntMod:", obj.Int(7), []obj.Value{obj.Int(2)}, obj.Int(1)},
		{"_IntAnd:", obj.Int(6), []obj.Value{obj.Int(3)}, obj.Int(2)},
		{"_IntOr:", obj.Int(6), []obj.Value{obj.Int(3)}, obj.Int(7)},
		{"_IntXor:", obj.Int(6), []obj.Value{obj.Int(3)}, obj.Int(5)},
		{"_IntLT:", obj.Int(1), []obj.Value{obj.Int(2)}, w.Bool(true)},
		{"_IntLE:", obj.Int(2), []obj.Value{obj.Int(2)}, w.Bool(true)},
		{"_IntGT:", obj.Int(1), []obj.Value{obj.Int(2)}, w.Bool(false)},
		{"_IntGE:", obj.Int(1), []obj.Value{obj.Int(2)}, w.Bool(false)},
		{"_IntEQ:", obj.Int(2), []obj.Value{obj.Int(2)}, w.Bool(true)},
		{"_IntNE:", obj.Int(2), []obj.Value{obj.Int(2)}, w.Bool(false)},
		{"_Eq:", obj.Str("a"), []obj.Value{obj.Str("a")}, w.Bool(true)},
		{"_At:", vec, []obj.Value{obj.Int(1)}, obj.Int(2)},
		{"_Size", vec, nil, obj.Int(4)},
	}
	for _, c := range cases {
		v, err := run(c.sel, c.recv, c.args...)
		if err != nil {
			t.Errorf("%s: %v", c.sel, err)
			continue
		}
		if !v.Eq(c.want) {
			t.Errorf("%s = %v, want %v", c.sel, v, c.want)
		}
	}

	// Failures without handlers error out.
	for _, c := range []struct {
		sel  string
		recv obj.Value
		args []obj.Value
	}{
		{"_IntAdd:", obj.Str("x"), []obj.Value{obj.Int(1)}},
		{"_IntDiv:", obj.Int(1), []obj.Value{obj.Int(0)}},
		{"_At:", vec, []obj.Value{obj.Int(99)}},
		{"_NewVec:", obj.Nil(), []obj.Value{obj.Int(-1)}},
		{"_NoSuchPrim", obj.Nil(), nil},
	} {
		if _, err := run(c.sel, c.recv, c.args...); err == nil {
			t.Errorf("%s with bad inputs should fail", c.sel)
		} else if !strings.Contains(err.Error(), "failed") {
			t.Errorf("%s: unexpected error %v", c.sel, err)
		}
	}
}

func TestOpFail(t *testing.T) {
	w := obj.NewWorld()
	g := ir.NewGraph("t")
	msg := g.NewReg()
	cm := g.NewNode(ir.Const)
	cm.Dst = msg
	cm.Val = obj.Str("boom")
	fl := g.NewNode(ir.Fail)
	fl.Sel = "_Error"
	fl.A = msg
	chain(g, cm, fl)
	machine := &VM{World: w}
	_, err := machine.invokeCode(Assemble(g), obj.Nil(), nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("got %v", err)
	}
}
