package core

import (
	"slices"
	"strings"

	"selfgo/internal/ast"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/types"
)

// debugBounds, when set by tests, traces bounds-check decisions.
var debugBounds func(f *flow, vec, idx ir2, haveLen bool, ln ir2, hit bool)

type ir2 = ir.Reg

// compilePrimCall compiles a robust primitive (§3.2.3): constant-fold
// when possible, otherwise inline the primitive's type tests, checks
// and raw operation, eliminating whatever the type and range analysis
// proves unnecessary.
func (cp *compilation) compilePrimCall(flows []*flow, n *ast.PrimCall, sc *scope) ([]*flow, ir.Reg) {
	base := n.Sel
	failIdx := -1
	if strings.HasSuffix(base, "IfFail:") {
		base = strings.TrimSuffix(base, "IfFail:")
		failIdx = len(n.Args) - 1
	}
	flows, rr := cp.compileExpr(flows, n.Recv, sc)
	var args []ir.Reg
	for _, a := range n.Args {
		var ar ir.Reg
		flows, ar = cp.compileExpr(flows, a, sc)
		args = append(args, ar)
	}
	failReg := ir.NoReg
	if failIdx >= 0 {
		failReg = args[failIdx]
		args = args[:failIdx]
	}
	if cp.err != nil || len(flows) == 0 {
		return flows, cp.g.NewReg()
	}
	if len(flows) > cp.cfg.MaxFlows+2 {
		flows = cp.mergePolicy(flows, rr)
	}
	if len(flows) == 1 {
		return cp.primOne(flows[0], base, rr, args, failReg, sc)
	}
	dst := cp.g.NewReg()
	var out []*flow
	for _, f := range flows {
		fs, res := cp.primOne(f, base, rr, args, failReg, sc)
		out = append(out, cp.moveInto(fs, dst, res)...)
	}
	return out, dst
}

func (cp *compilation) primOne(f *flow, base string, rr ir.Reg, args []ir.Reg, failReg ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	if !cp.cfg.InlinePrimitives {
		return cp.emitPrimOp(f, base, rr, args, failReg)
	}
	if op := slices.Index(ir.ArithPrims[:], base); op >= 0 {
		return cp.intArith(f, ir.ArithKind(op), rr, args, failReg, sc)
	}
	if op := slices.Index(ir.CmpPrims[:], base); op >= 0 {
		return cp.intCmp(f, ir.CmpKind(op), rr, args, failReg, sc)
	}
	switch base {
	case "_Eq:":
		return cp.identityEq(f, rr, args)
	case "_At:":
		return cp.vecAt(f, rr, args, failReg, sc)
	case "_At:Put:":
		return cp.vecAtPut(f, rr, args, failReg, sc)
	case "_Size":
		return cp.vecSize(f, rr, failReg, sc)
	case "_NewVec:", "_NewVec:Fill:":
		return cp.newVec(f, rr, args, failReg, sc)
	case "_Clone":
		return cp.cloneObj(f, rr)
	case "_Error", "_Error:", "_Print", "_PrintLine":
		if strings.HasPrefix(base, "_Error") {
			n := cp.g.NewNode(ir.Fail)
			n.Sel = base
			n.A = rr // the receiver is the error message
			if len(args) > 0 {
				n.A = args[0]
			}
			n.Uncommon = true
			cp.emit(f, n)
			return nil, ir.NoReg
		}
		return cp.emitPrimOp(f, base, rr, args, ir.NoReg)
	}
	return cp.emitPrimOp(f, base, rr, args, failReg)
}

// emitPrimOp emits an out-of-line primitive call carrying every check.
func (cp *compilation) emitPrimOp(f *flow, base string, rr ir.Reg, args []ir.Reg, failReg ir.Reg) ([]*flow, ir.Reg) {
	cp.materialize(f, rr)
	for _, a := range args {
		cp.materialize(f, a)
	}
	if failReg != ir.NoReg {
		cp.materialize(f, failReg)
	}
	dst := cp.g.NewReg()
	n := cp.g.NewNode(ir.PrimOp)
	n.Dst = dst
	n.Sel = base
	n.Args = append([]ir.Reg{rr}, args...)
	n.FailBlk = failReg
	cp.emit(f, n)
	cp.clobberVolatile(f)
	f.env.set(dst, types.Unknown{})
	return []*flow{f}, dst
}

// ensureInt guarantees reg holds a small integer, emitting a type test
// unless the analysis already knows (pass may be nil when it can never
// be an integer). The failure flow, if any, is appended to fails.
func (cp *compilation) ensureInt(f *flow, reg ir.Reg, fails *[]*flow) *flow {
	pass, fail := cp.emitTypeTest(f, reg, cp.intMap())
	if fail != nil {
		*fails = append(*fails, fail)
	}
	return pass
}

// rangeFor returns the range the analysis may use for an
// already-int-ensured register: the true range under range analysis,
// the full class range otherwise.
func (cp *compilation) rangeFor(f *flow, reg ir.Reg) types.Range {
	if cp.cfg.RangeAnalysis {
		if r, ok := types.RangeOf(f.env.get(reg)); ok {
			return r
		}
	}
	return types.FullRange()
}

// intArith inlines an integer arithmetic primitive: receiver and
// argument type tests, the raw instruction, and an overflow (or
// divide-by-zero) check — each dropped when provably unnecessary.
func (cp *compilation) intArith(f *flow, op ir.ArithKind, rr ir.Reg, args []ir.Reg, failReg ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	if len(args) != 1 {
		cp.errorf("integer primitive expects 1 argument")
		return []*flow{f}, ir.NoReg
	}
	ar := args[0]
	dst := cp.g.NewReg()
	var fails []*flow
	var out []*flow

	ok := cp.ensureInt(f, rr, &fails)
	if ok != nil {
		ok = cp.ensureInt(ok, ar, &fails)
	}
	if ok != nil {
		out = cp.arithCore(ok, op, dst, rr, ar, &fails)
	}
	// Compile the failure paths and unify.
	for _, ff := range fails {
		fs, res := cp.primFailure(ff, op.String(), failReg, sc)
		out = append(out, cp.moveInto(fs, dst, res)...)
	}
	return out, dst
}

// arithCore emits (or folds) the raw operation with its checks.
func (cp *compilation) arithCore(f *flow, op ir.ArithKind, dst, rr, ar ir.Reg, fails *[]*flow) []*flow {
	// Constant folding (§3.2.3) — available to every compiler
	// generation, independent of range analysis.
	if ca, okA := types.Constant(f.env.get(rr)); okA {
		if cb, okB := types.Constant(f.env.get(ar)); okB {
			if v, ok := op.Eval(ca.I(), cb.I()); ok && v >= obj.MinSmallInt && v <= obj.MaxSmallInt {
				n := cp.g.NewNode(ir.Const)
				n.Dst = dst
				n.Val = obj.Int(v)
				cp.emit(f, n)
				f.env.set(dst, types.NewVal(obj.Int(v), cp.intMap()))
				cp.stats.FoldedPrims++
				return []*flow{f}
			}
		}
	}
	ra := cp.rangeFor(f, rr)
	rb := cp.rangeFor(f, ar)
	var z types.Range
	var mayFail bool
	switch op {
	case ir.Add:
		z, mayFail = types.AddRanges(ra, rb)
	case ir.Sub:
		z, mayFail = types.SubRanges(ra, rb)
	case ir.Mul:
		z, mayFail = types.MulRanges(ra, rb)
	case ir.Div:
		z, mayFail = types.DivRanges(ra, rb)
	case ir.Mod:
		z, mayFail = types.ModRanges(ra, rb)
	case ir.BAnd, ir.BOr, ir.BXor:
		z, mayFail = types.BitRanges(ra, rb)
	}
	if !cp.cfg.RangeAnalysis && !cp.cfg.StaticIdeal {
		z = types.FullRange()
		mayFail = true
	}
	if cp.cfg.StaticIdeal && mayFail {
		mayFail = false
		cp.stats.RemovedOvfl++
	}

	n := cp.g.NewNode(ir.Arith)
	n.Dst = dst
	n.A = rr
	n.B = ar
	n.AOp = op
	n.Checked = mayFail
	cp.emit(f, n)
	if !mayFail && cp.cfg.RangeAnalysis && !cp.cfg.StaticIdeal {
		cp.stats.RemovedOvfl++
		n.Note = "overflow check removed by range analysis"
	}
	okFlow := f
	if mayFail {
		okFlow = &flow{from: n, slot: 0, env: f.env, uncommon: f.uncommon, copied: f.copied}
		okFlow.copyFacts(f) // the op writes only its fresh destination
		failFlow := &flow{from: n, slot: 1, env: f.env.clone(), uncommon: true, copied: f.copied}
		failFlow.env.set(dst, types.Unknown{})
		*fails = append(*fails, failFlow)
	}
	okFlow.env.set(dst, z)
	return []*flow{okFlow}
}

// intCmp inlines an integer comparison primitive: folded outright when
// the subranges do not overlap, otherwise a compare-and-branch whose
// branches refine the argument ranges (§3.2.1).
func (cp *compilation) intCmp(f *flow, op ir.CmpKind, rr ir.Reg, args []ir.Reg, failReg ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	if len(args) != 1 {
		cp.errorf("integer comparison expects 1 argument")
		return []*flow{f}, ir.NoReg
	}
	ar := args[0]
	dst := cp.g.NewReg()
	var fails []*flow
	var out []*flow

	ok := cp.ensureInt(f, rr, &fails)
	if ok != nil {
		ok = cp.ensureInt(ok, ar, &fails)
	}
	if ok != nil {
		out = cp.cmpCore(ok, op, dst, rr, ar)
	}
	for _, ff := range fails {
		fs, res := cp.primFailure(ff, op.String(), failReg, sc)
		out = append(out, cp.moveInto(fs, dst, res)...)
	}
	return out, dst
}

func (cp *compilation) cmpCore(f *flow, op ir.CmpKind, dst, rr, ar ir.Reg) []*flow {
	ra := cp.rangeFor(f, rr)
	rb := cp.rangeFor(f, ar)
	// Folding on value types is available to every compiler; folding on
	// overlapping-free subranges needs range analysis (§3.2.3).
	bothConst := false
	if _, ok := types.Constant(f.env.get(rr)); ok {
		_, bothConst = types.Constant(f.env.get(ar))
	}
	if cp.cfg.RangeAnalysis || bothConst {
		if bothConst && !cp.cfg.RangeAnalysis {
			ca, _ := types.Constant(f.env.get(rr))
			cb, _ := types.Constant(f.env.get(ar))
			ra = types.Range{Lo: ca.I(), Hi: ca.I()}
			rb = types.Range{Lo: cb.I(), Hi: cb.I()}
		}
		if tri := foldCmp(op, ra, rb); tri != types.MaybeTrue {
			v := cp.w.Bool(tri == types.AlwaysTrue)
			n := cp.g.NewNode(ir.Const)
			n.Dst = dst
			n.Val = v
			cp.emit(f, n)
			f.env.set(dst, types.NewVal(v, cp.w.MapOf(v)))
			cp.stats.FoldedPrims++
			return []*flow{f}
		}
	}
	n := cp.g.NewNode(ir.CmpBr)
	n.A = rr
	n.B = ar
	n.COp = op
	cp.emit(f, n)

	tf := &flow{from: n, slot: 0, env: f.env.clone(), uncommon: f.uncommon, copied: f.copied}
	ff := &flow{from: n, slot: 1, env: f.env, uncommon: f.uncommon, copied: f.copied}
	tf.copyFacts(f)
	ff.copyFacts(f)
	if cp.cfg.ComparisonFacts {
		// §7 extension: remember what each branch proved.
		switch op {
		case ir.LT:
			tf.addFact(rr, ar)
		case ir.GT:
			tf.addFact(ar, rr)
		case ir.LE:
			ff.addFact(ar, rr)
		case ir.GE:
			ff.addFact(rr, ar)
		}
	}
	cst := func(fl *flow, b bool) {
		c := cp.g.NewNode(ir.Const)
		c.Dst = dst
		c.Val = cp.w.Bool(b)
		cp.emit(fl, c)
		fl.env.set(dst, types.NewVal(cp.w.Bool(b), cp.w.MapOf(cp.w.Bool(b))))
	}
	cst(tf, true)
	cst(ff, false)
	if cp.cfg.RangeAnalysis {
		tx, ty, fx, fy := refineCmp(op, ra, rb)
		setIfInt := func(fl *flow, reg ir.Reg, r types.Range) {
			if !r.Empty() {
				fl.env.set(reg, r)
			}
		}
		setIfInt(tf, rr, tx)
		setIfInt(tf, ar, ty)
		setIfInt(ff, rr, fx)
		setIfInt(ff, ar, fy)
	}
	return []*flow{tf, ff}
}

func foldCmp(op ir.CmpKind, a, b types.Range) types.Tri {
	switch op {
	case ir.LT:
		return types.CmpLT(a, b)
	case ir.LE:
		return types.CmpLE(a, b)
	case ir.GT:
		return types.CmpLT(b, a)
	case ir.GE:
		return types.CmpLE(b, a)
	case ir.EQ:
		return types.CmpEQ(a, b)
	case ir.NE:
		switch types.CmpEQ(a, b) {
		case types.AlwaysTrue:
			return types.AlwaysFalse
		case types.AlwaysFalse:
			return types.AlwaysTrue
		}
	}
	return types.MaybeTrue
}

func refineCmp(op ir.CmpKind, a, b types.Range) (tx, ty, fx, fy types.Range) {
	switch op {
	case ir.LT:
		return types.RefineLT(a, b)
	case ir.LE:
		return types.RefineLE(a, b)
	case ir.GT:
		ty, tx, fy, fx = types.RefineLT(b, a)
		return
	case ir.GE:
		ty, tx, fy, fx = types.RefineLE(b, a)
		return
	case ir.EQ:
		tx, ty = types.RefineEQ(a, b)
		fx, fy = a, b
		return
	case ir.NE:
		fx, fy = types.RefineEQ(a, b)
		tx, ty = a, b
		return
	}
	return a, b, a, b
}

// identityEq inlines the identity primitive: folds on constants or
// provably disjoint types, otherwise compares values directly.
func (cp *compilation) identityEq(f *flow, rr ir.Reg, args []ir.Reg) ([]*flow, ir.Reg) {
	if len(args) != 1 {
		cp.errorf("_Eq: expects 1 argument")
		return []*flow{f}, ir.NoReg
	}
	ar := args[0]
	dst := cp.g.NewReg()
	ta, tb := f.env.get(rr), f.env.get(ar)
	emitBool := func(b bool) ([]*flow, ir.Reg) {
		v := cp.w.Bool(b)
		n := cp.g.NewNode(ir.Const)
		n.Dst = dst
		n.Val = v
		cp.emit(f, n)
		f.env.set(dst, types.NewVal(v, cp.w.MapOf(v)))
		cp.stats.FoldedPrims++
		return []*flow{f}, dst
	}
	if va, ok := types.Constant(ta); ok {
		if vb, ok2 := types.Constant(tb); ok2 {
			return emitBool(va.Eq(vb))
		}
	}
	if types.Disjoint(ta, tb, cp.intMap()) {
		return emitBool(false)
	}
	cp.materialize(f, rr)
	cp.materialize(f, ar)
	n := cp.g.NewNode(ir.CmpBr)
	n.A = rr
	n.B = ar
	n.COp = ir.EQ
	n.Note = "identity"
	cp.emit(f, n)
	tf := &flow{from: n, slot: 0, env: f.env.clone(), uncommon: f.uncommon, copied: f.copied}
	ff := &flow{from: n, slot: 1, env: f.env, uncommon: f.uncommon, copied: f.copied}
	tf.copyFacts(f)
	ff.copyFacts(f)
	for _, p := range []struct {
		fl *flow
		b  bool
	}{{tf, true}, {ff, false}} {
		c := cp.g.NewNode(ir.Const)
		c.Dst = dst
		c.Val = cp.w.Bool(p.b)
		cp.emit(p.fl, c)
		p.fl.env.set(dst, types.NewVal(cp.w.Bool(p.b), cp.w.MapOf(cp.w.Bool(p.b))))
	}
	// The true branch learns the operands are identical: propagate a
	// constant when one side is known.
	if va, ok := types.Constant(ta); ok {
		tf.env.set(ar, types.NewVal(va, cp.w.MapOf(va)))
	} else if vb, ok := types.Constant(tb); ok {
		tf.env.set(rr, types.NewVal(vb, cp.w.MapOf(vb)))
	}
	return []*flow{tf, ff}, dst
}

// ensureVec guarantees reg holds a vector.
func (cp *compilation) ensureVec(f *flow, reg ir.Reg, fails *[]*flow) *flow {
	pass, fail := cp.emitTypeTest(f, reg, cp.w.VecMap)
	if fail != nil {
		*fails = append(*fails, fail)
	}
	return pass
}

// boundsCheck emits "0 <= idx < len" unless the analysis discharges
// it. The paper's range analysis can remove the lower bound when the
// index range is provably non-negative, but (as §7 concedes) usually
// not the upper bound, whose limit is a run-time vector length.
func (cp *compilation) boundsCheck(f *flow, vec, idx ir.Reg, fails *[]*flow) *flow {
	if cp.cfg.StaticIdeal {
		return f
	}
	ri := cp.rangeFor(f, idx)
	if !(cp.cfg.RangeAnalysis && ri.Lo >= 0) {
		zero := cp.g.NewReg()
		zn := cp.g.NewNode(ir.Const)
		zn.Dst = zero
		zn.Val = obj.Int(0)
		cp.emit(f, zn)
		n := cp.g.NewNode(ir.CmpBr)
		n.A = idx
		n.B = zero
		n.COp = ir.GE
		n.Bounds, n.Note = true, "bounds(lower)"
		cp.emit(f, n)
		pass := &flow{from: n, slot: 0, env: f.env.clone(), uncommon: f.uncommon, copied: f.copied}
		pass.copyFacts(f)
		fail := &flow{from: n, slot: 1, env: f.env, uncommon: true, copied: f.copied}
		*fails = append(*fails, fail)
		f = pass
		if cp.cfg.RangeAnalysis {
			f.env.set(idx, types.Range{Lo: max(ri.Lo, 0), Hi: ri.Hi})
		}
	} else if cp.cfg.RangeAnalysis {
		cp.stats.RemovedTests++
	}
	// §7 extension: reuse a length already loaded for this vector, and
	// skip the upper check when this very comparison already succeeded
	// on this path.
	var ln ir.Reg
	haveLen := false
	if cp.cfg.ComparisonFacts {
		if cached, ok := f.lens[f.canon(vec)]; ok {
			ln = cached
			haveLen = true
		}
	}
	if debugBounds != nil {
		debugBounds(f, vec, idx, haveLen, ln, haveLen && f.hasFact(idx, ln))
	}
	if !haveLen {
		ln = cp.g.NewReg()
		vl := cp.g.NewNode(ir.VecLen)
		vl.Dst = ln
		vl.A = vec
		cp.emit(f, vl)
		f.env.set(ln, types.Range{Lo: 0, Hi: obj.MaxSmallInt})
		if cp.cfg.ComparisonFacts {
			if f.lens == nil {
				f.lens = map[ir.Reg]ir.Reg{}
			}
			f.lens[f.canon(vec)] = ln
		}
	}
	if cp.cfg.ComparisonFacts && f.hasFact(idx, ln) {
		cp.stats.RemovedTests++
		return f
	}
	n := cp.g.NewNode(ir.CmpBr)
	n.A = idx
	n.B = ln
	n.COp = ir.LT
	n.Bounds, n.Note = true, "bounds(upper)"
	cp.emit(f, n)
	pass := &flow{from: n, slot: 0, env: f.env.clone(), uncommon: f.uncommon, copied: f.copied}
	pass.copyFacts(f)
	if cp.cfg.ComparisonFacts {
		pass.addFact(idx, ln)
	}
	fail := &flow{from: n, slot: 1, env: f.env, uncommon: true, copied: f.copied}
	*fails = append(*fails, fail)
	return pass
}

func (cp *compilation) vecAt(f *flow, rr ir.Reg, args []ir.Reg, failReg ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	if len(args) != 1 {
		cp.errorf("_At: expects 1 argument")
		return []*flow{f}, ir.NoReg
	}
	idx := args[0]
	dst := cp.g.NewReg()
	var fails []*flow
	var out []*flow
	ok := cp.ensureVec(f, rr, &fails)
	if ok != nil {
		ok = cp.ensureInt(ok, idx, &fails)
	}
	if ok != nil {
		ok = cp.boundsCheck(ok, rr, idx, &fails)
	}
	if ok != nil {
		n := cp.g.NewNode(ir.LoadE)
		n.Dst = dst
		n.A = rr
		n.B = idx
		cp.emit(ok, n)
		ok.env.set(dst, types.Unknown{})
		out = append(out, ok)
	}
	for _, ff := range fails {
		fs, res := cp.primFailure(ff, "_At:", failReg, sc)
		out = append(out, cp.moveInto(fs, dst, res)...)
	}
	return out, dst
}

func (cp *compilation) vecAtPut(f *flow, rr ir.Reg, args []ir.Reg, failReg ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	if len(args) != 2 {
		cp.errorf("_At:Put: expects 2 arguments")
		return []*flow{f}, ir.NoReg
	}
	idx, val := args[0], args[1]
	var fails []*flow
	var out []*flow
	ok := cp.ensureVec(f, rr, &fails)
	if ok != nil {
		ok = cp.ensureInt(ok, idx, &fails)
	}
	if ok != nil {
		ok = cp.boundsCheck(ok, rr, idx, &fails)
	}
	if ok != nil {
		cp.materialize(ok, val)
		n := cp.g.NewNode(ir.StoreE)
		n.A = rr
		n.B = idx
		n.C = val
		cp.emit(ok, n)
		out = append(out, ok)
	}
	dst := val
	for _, ff := range fails {
		fs, res := cp.primFailure(ff, "_At:Put:", failReg, sc)
		// Unify into the value register's role: allocate a fresh dst
		// only when failure paths exist.
		if dst == val && res != val {
			nd := cp.g.NewReg()
			out = cp.moveInto(out, nd, val)
			dst = nd
		}
		out = append(out, cp.moveInto(fs, dst, res)...)
	}
	return out, dst
}

func (cp *compilation) vecSize(f *flow, rr ir.Reg, failReg ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	dst := cp.g.NewReg()
	var fails []*flow
	var out []*flow
	ok := cp.ensureVec(f, rr, &fails)
	if ok != nil {
		n := cp.g.NewNode(ir.VecLen)
		n.Dst = dst
		n.A = rr
		cp.emit(ok, n)
		ok.env.set(dst, types.Range{Lo: 0, Hi: obj.MaxSmallInt})
		if cp.cfg.ComparisonFacts {
			// The §7 extension remembers this register holds rr's
			// length, so a later bounds check can match comparisons
			// against it (e.g. the loop condition "i < v size").
			if ok.lens == nil {
				ok.lens = map[ir.Reg]ir.Reg{}
			}
			ok.lens[ok.canon(rr)] = dst
		}
		out = append(out, ok)
	}
	for _, ff := range fails {
		fs, res := cp.primFailure(ff, "_Size", failReg, sc)
		out = append(out, cp.moveInto(fs, dst, res)...)
	}
	return out, dst
}

func (cp *compilation) newVec(f *flow, rr ir.Reg, args []ir.Reg, failReg ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	size := args[0]
	fill := ir.NoReg
	if len(args) > 1 {
		fill = args[1]
	}
	dst := cp.g.NewReg()
	var fails []*flow
	var out []*flow
	ok := cp.ensureInt(f, size, &fails)
	if ok != nil && !cp.cfg.StaticIdeal {
		rs := cp.rangeFor(ok, size)
		if !(cp.cfg.RangeAnalysis && rs.Lo >= 0) {
			zero := cp.g.NewReg()
			zn := cp.g.NewNode(ir.Const)
			zn.Dst = zero
			zn.Val = obj.Int(0)
			cp.emit(ok, zn)
			n := cp.g.NewNode(ir.CmpBr)
			n.A = size
			n.B = zero
			n.COp = ir.GE
			n.Bounds, n.Note = true, "bounds(size)"
			cp.emit(ok, n)
			pass := &flow{from: n, slot: 0, env: ok.env.clone(), uncommon: ok.uncommon}
			pass.copyFacts(ok)
			fail := &flow{from: n, slot: 1, env: ok.env, uncommon: true}
			fails = append(fails, fail)
			ok = pass
		}
	}
	if ok != nil {
		if fill != ir.NoReg {
			cp.materialize(ok, fill)
		}
		n := cp.g.NewNode(ir.NewVec)
		n.Dst = dst
		n.A = size
		n.B = fill
		cp.emit(ok, n)
		ok.env.set(dst, types.NewClass(cp.w.VecMap, cp.intMap()))
		out = append(out, ok)
	}
	for _, ff := range fails {
		fs, res := cp.primFailure(ff, "_NewVec:", failReg, sc)
		out = append(out, cp.moveInto(fs, dst, res)...)
	}
	return out, dst
}

func (cp *compilation) cloneObj(f *flow, rr ir.Reg) ([]*flow, ir.Reg) {
	dst := cp.g.NewReg()
	if m := types.MapOf(f.env.get(rr), cp.intMap()); m != nil {
		n := cp.g.NewNode(ir.CloneOp)
		n.Dst = dst
		n.A = rr
		cp.emit(f, n)
		f.env.set(dst, types.NewClass(m, cp.intMap()))
		return []*flow{f}, dst
	}
	return cp.emitPrimOp(f, "_Clone", rr, nil, ir.NoReg)
}

// primFailure compiles the failure path of a robust primitive: the
// user's IfFail: block when supplied (inlined), else the default
// failure — a send to the standard error routine whose result, as in
// the paper's analysis, is of unknown type.
func (cp *compilation) primFailure(f *flow, what string, failReg ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	f.uncommon = true
	if failReg != ir.NoReg {
		if bt, ok := f.env.get(failReg).(types.Blk); ok {
			return cp.inlineBlock(f, bt, nil, "value")
		}
		// A runtime closure: invoke it dynamically.
		return cp.emitDynSend(f, failReg, "value", nil, false)
	}
	flows, str := cp.compileConst([]*flow{f}, obj.Str(what))
	return cp.emitDynSend(flows[0], sc.selfScope().selfReg, "primitiveFailed:", []ir.Reg{str}, false)
}
