package core

import (
	"slices"
	"sort"
	"strings"

	"selfgo/internal/ast"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/types"
)

// compileSend compiles a message send along every flow, applying
// message inlining (§3.2.2), type prediction, and splitting. The result
// register is the same on every returned flow.
func (cp *compilation) compileSend(flows []*flow, rr ir.Reg, sel string, args []ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	if cp.err != nil || len(flows) == 0 {
		return flows, cp.g.NewReg()
	}
	// Splitting is bounded even inside one statement: past the flow
	// budget the merge policy folds paths together (forming merge
	// types), exactly as at statement boundaries.
	if len(flows) > cp.cfg.MaxFlows+2 {
		flows = cp.mergePolicy(flows, rr)
	}
	if (sel == "whileTrue:" || sel == "whileFalse:") && len(flows) > 1 {
		// A loop head is itself a merge point: merge before looping so
		// one loop is compiled (its versions come from §5.2 splitting,
		// not from upstream path splits).
		flows = []*flow{cp.mergeFlows(flows, rr)}
	}
	if len(flows) == 1 {
		return cp.sendOne(flows[0], rr, sel, args, sc)
	}
	// Each flow is compiled separately — this is splitting: the send
	// is duplicated along paths carrying different type information.
	dst := cp.g.NewReg()
	var out []*flow
	for _, f := range flows {
		fs, res := cp.sendOne(f, rr, sel, args, sc)
		out = append(out, cp.moveInto(fs, dst, res)...)
	}
	return out, dst
}

// moveInto routes a result register into dst on every flow (no move
// when they already coincide).
func (cp *compilation) moveInto(fs []*flow, dst, res ir.Reg) []*flow {
	for _, f := range fs {
		if res == dst {
			continue
		}
		mv := cp.g.NewNode(ir.Move)
		mv.Dst = dst
		mv.A = res
		cp.emit(f, mv)
		f.env.set(dst, f.env.get(res))
		if cp.cfg.ComparisonFacts {
			f.invalidateReg(dst)
			f.aliasReg(dst, res)
		}
	}
	return fs
}

// sendOne compiles one send along one flow.
func (cp *compilation) sendOne(f *flow, rr ir.Reg, sel string, args []ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	if cp.err != nil {
		return []*flow{f}, cp.g.NewReg()
	}
	rt := f.env.get(rr)

	// Block-literal receivers: inline block invocation and recognize
	// the looping protocol.
	if bt, ok := rt.(types.Blk); ok {
		switch {
		case isValueSel(sel, len(args)):
			return cp.inlineBlock(f, bt, args, sel)
		case sel == "whileTrue:" && len(args) == 1:
			if at, ok := f.env.get(args[0]).(types.Blk); ok {
				return cp.compileLoop(f, bt, at, false, sc)
			}
		case sel == "whileFalse:" && len(args) == 1:
			if at, ok := f.env.get(args[0]).(types.Blk); ok {
				return cp.compileLoop(f, bt, at, true, sc)
			}
		}
		// Fall through to a dynamic send on a materialized closure.
	}

	if m := types.MapOf(rt, cp.intMap()); m != nil {
		if m == cp.w.BlockMap && isValueSel(sel, len(args)) {
			// The value protocol of materialized closures is handled
			// by the runtime, not by slot lookup.
			return cp.emitDynSend(f, rr, sel, args, cp.cfg.StaticIdeal)
		}
		return cp.sendStatic(f, m, rr, sel, args, sc)
	}
	return cp.sendUnknown(f, rr, sel, args, sc)
}

// sendStatic compiles a send whose receiver map is statically known:
// the lookup happens at compile time and the slot is inlined (§3.2.2).
func (cp *compilation) sendStatic(f *flow, m *obj.Map, rr ir.Reg, sel string, args []ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	res, ok := obj.Lookup(m, sel)
	if !ok {
		// Message not understood: compile the error out of line.
		n := cp.g.NewNode(ir.Fail)
		n.Sel = "doesNotUnderstand: " + sel
		n.Uncommon = true
		cp.emit(f, n)
		return nil, ir.NoReg
	}
	switch res.Slot.Kind {
	case obj.ConstSlot, obj.ParentSlot:
		dst := cp.g.NewReg()
		n := cp.g.NewNode(ir.Const)
		n.Dst = dst
		n.Val = res.Slot.Value
		cp.emit(f, n)
		f.env.set(dst, types.NewVal(res.Slot.Value, cp.w.MapOf(res.Slot.Value)))
		return []*flow{f}, dst

	case obj.DataSlot:
		dst := cp.g.NewReg()
		base := cp.holderReg(f, rr, res)
		n := cp.g.NewNode(ir.LoadF)
		n.Dst = dst
		n.A = base
		n.Index = res.Slot.Index
		cp.emit(f, n)
		// §3.2.1: a memory load binds its result to the unknown type.
		f.env.set(dst, types.Unknown{})
		return []*flow{f}, dst

	case obj.AssignSlot:
		if len(args) != 1 {
			cp.errorf("assignment %q expects 1 argument", sel)
			return []*flow{f}, ir.NoReg
		}
		cp.materialize(f, args[0])
		base := cp.holderReg(f, rr, res)
		n := cp.g.NewNode(ir.StoreF)
		n.A = base
		n.Index = res.Slot.Index
		n.B = args[0]
		cp.emit(f, n)
		return []*flow{f}, args[0]

	case obj.MethodSlot:
		meth := res.Slot.Meth
		if cp.canInline(meth, m) {
			return cp.inlineMethod(f, meth, rr, args, sc)
		}
		cp.materialize(f, rr)
		for _, a := range args {
			cp.materialize(f, a)
		}
		dst := cp.g.NewReg()
		n := cp.g.NewNode(ir.Call)
		n.Dst = dst
		n.Callee = &ir.Callee{Sel: sel, RMap: m, Meth: meth}
		n.Args = append([]ir.Reg{rr}, args...)
		cp.emit(f, n)
		cp.clobberVolatile(f)
		f.env.set(dst, types.Unknown{})
		return []*flow{f}, dst
	}
	cp.errorf("unexpected slot kind for %q", sel)
	return []*flow{f}, ir.NoReg
}

// holderReg returns the register holding the object whose fields an
// accessed data slot lives in: the receiver itself, or — for a slot
// inherited from a constant parent — that parent object, loaded as a
// constant.
func (cp *compilation) holderReg(f *flow, rr ir.Reg, res obj.LookupResult) ir.Reg {
	if res.Holder == nil {
		return rr
	}
	hr := cp.g.NewReg()
	n := cp.g.NewNode(ir.Const)
	n.Dst = hr
	n.Val = obj.Obj(res.Holder)
	cp.emit(f, n)
	f.env.set(hr, types.NewVal(n.Val, res.Holder.Map))
	return hr
}

// sendUnknown compiles a send whose receiver type spans several maps:
// type prediction (§3.2.2) inserts a run-time test and splits the send;
// otherwise a dynamically-dispatched send node is emitted.
func (cp *compilation) sendUnknown(f *flow, rr ir.Reg, sel string, args []ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	rt := f.env.get(rr)

	if cp.cfg.StaticIdeal {
		// "Optimized C" mode: assume the prediction holds without a
		// test; a static compiler would know the type. Boolean control
		// selectors still compile to branches.
		if isBoolControlSel(sel) && !types.Disjoint(rt, boolEither(cp.w), cp.intMap()) {
			return cp.predictBool(f, rr, sel, args, sc)
		}
		if p := cp.predictedType(sel); p != nil {
			if refined := types.Intersect(rt, p, cp.intMap()); refined != nil {
				f.env.set(rr, refined)
				if types.MapOf(refined, cp.intMap()) != nil {
					return cp.sendOne(f, rr, sel, args, sc)
				}
			}
		}
		return cp.emitDynSend(f, rr, sel, args, true)
	}

	if cp.cfg.TypePrediction {
		if p := cp.predictedType(sel); p != nil && !types.Disjoint(rt, p, cp.intMap()) {
			if _, isInt := p.(types.Range); isInt {
				return cp.predictSplit(f, rr, cp.intMap(), sel, args, sc)
			}
		}
		if isBoolControlSel(sel) && !types.Disjoint(rt, boolEither(cp.w), cp.intMap()) {
			return cp.predictBool(f, rr, sel, args, sc)
		}
	}
	if maps := cp.fb.Maps(sel); len(maps) > 0 {
		return cp.feedbackSplit(f, rr, maps, sel, args, sc)
	}
	return cp.emitDynSend(f, rr, sel, args, false)
}

// feedbackSplit compiles a send on a statically-unknown receiver using
// harvested type feedback: the receiver is tested against each observed
// map in turn and the send is compiled statically (usually inlined)
// along every passing branch, with a dynamically-dispatched send left
// on the final fall-through — structurally identical to predictSplit,
// but driven by what a lower tier's inline caches actually saw rather
// than by the selector's statistical prior. Always sound: a receiver
// matching none of the observed maps takes the dynamic send.
func (cp *compilation) feedbackSplit(f *flow, rr ir.Reg, maps []*obj.Map, sel string, args []ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	dst := cp.g.NewReg()
	var out []*flow
	rest := f
	for _, m := range maps {
		if rest == nil {
			break
		}
		if types.Disjoint(rest.env.get(rr), types.NewClass(m, cp.intMap()), cp.intMap()) {
			continue
		}
		pass, fail := cp.emitTypeTest(rest, rr, m)
		cp.stats.FeedbackTests++
		if pass != nil {
			// Every observed map is a common case: do not let the
			// previous test's fall-through mark this branch uncommon.
			pass.uncommon = f.uncommon
			fs, res := cp.sendOne(pass, rr, sel, args, sc)
			out = append(out, cp.moveInto(fs, dst, res)...)
		}
		rest = fail
	}
	if rest != nil {
		fs, res := cp.emitDynSend(rest, rr, sel, args, false)
		out = append(out, cp.moveInto(fs, dst, res)...)
	}
	if len(out) == 0 {
		// Defensive: every branch proved impossible (cannot normally
		// happen — the dynamic fall-through only folds away when a test
		// always passes, which produces a pass branch).
		return cp.emitDynSend(f, rr, sel, args, false)
	}
	return out, dst
}

// predictSplit tests the receiver against a predicted map and compiles
// the send separately along each branch (local message splitting of the
// predicted message, §3.2.2).
func (cp *compilation) predictSplit(f *flow, rr ir.Reg, pm *obj.Map, sel string, args []ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	pass, fail := cp.emitTypeTest(f, rr, pm)
	dst := cp.g.NewReg()
	var out []*flow
	if pass != nil {
		fs, res := cp.sendOne(pass, rr, sel, args, sc)
		out = append(out, cp.moveInto(fs, dst, res)...)
	}
	if fail != nil {
		fs, res := cp.emitDynSend(fail, rr, sel, args, false)
		out = append(out, cp.moveInto(fs, dst, res)...)
	}
	return out, dst
}

// predictBool handles ifTrue:/ifFalse:-family sends on unknown
// receivers: test for true, then false, then fall back to a real send.
func (cp *compilation) predictBool(f *flow, rr ir.Reg, sel string, args []ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	dst := cp.g.NewReg()
	var out []*flow
	passT, rest := cp.emitTypeTest(f, rr, cp.w.TrueObj.Map)
	if passT != nil {
		fs, res := cp.sendOne(passT, rr, sel, args, sc)
		out = append(out, cp.moveInto(fs, dst, res)...)
	}
	if rest != nil {
		passF, fail := cp.emitTypeTest(rest, rr, cp.w.FalseObj.Map)
		if passF != nil {
			// The second test's success branch is still the common
			// case — a boolean that wasn't true is false.
			passF.uncommon = f.uncommon
			fs, res := cp.sendOne(passF, rr, sel, args, sc)
			out = append(out, cp.moveInto(fs, dst, res)...)
		}
		if fail != nil {
			fs, res := cp.emitDynSend(fail, rr, sel, args, false)
			out = append(out, cp.moveInto(fs, dst, res)...)
		}
	}
	return out, dst
}

// emitTypeTest inserts a run-time type test of reg against map pm,
// folding it away when the static type already decides it (§3.2.1).
// Either returned flow may be nil (impossible branch).
func (cp *compilation) emitTypeTest(f *flow, reg ir.Reg, pm *obj.Map) (pass, fail *flow) {
	rt := f.env.get(reg)
	tt := types.NewClass(pm, cp.intMap())
	passT := types.Intersect(rt, tt, cp.intMap())
	failT := types.Subtract(rt, tt, cp.intMap())
	// The static-ideal mode drops type tests — but not tests against
	// true/false, which implement genuine control flow (a C compiler
	// still branches on a boolean).
	boolTest := pm == cp.w.TrueObj.Map || pm == cp.w.FalseObj.Map
	if cp.cfg.StaticIdeal && passT != nil && !boolTest {
		cp.stats.RemovedTests++
		f.env.set(reg, passT)
		return f, nil
	}
	if failT == nil {
		// The test always succeeds: no code.
		cp.stats.RemovedTests++
		f.env.set(reg, passT)
		return f, nil
	}
	if passT == nil {
		// The test always fails: no code, failure path only.
		cp.stats.RemovedTests++
		f.env.set(reg, failT)
		f.uncommon = true
		return nil, f
	}
	n := cp.g.NewNode(ir.TypeTest)
	n.A = reg
	n.TestMap = pm
	cp.emit(f, n)
	pass = &flow{from: n, slot: 0, env: f.env.clone(), uncommon: f.uncommon, copied: f.copied}
	pass.copyFacts(f) // type tests write no registers; facts survive
	pass.env.set(reg, passT)
	fail = &flow{from: n, slot: 1, env: f.env, uncommon: true, copied: f.copied}
	fail.copyFacts(f)
	fail.env.set(reg, failT)
	return pass, fail
}

// emitDynSend emits a dynamically-dispatched send node. direct marks
// static-ideal dispatch (charged as a plain procedure call).
func (cp *compilation) emitDynSend(f *flow, rr ir.Reg, sel string, args []ir.Reg, direct bool) ([]*flow, ir.Reg) {
	cp.materialize(f, rr)
	for _, a := range args {
		cp.materialize(f, a)
	}
	dst := cp.g.NewReg()
	n := cp.g.NewNode(ir.Send)
	n.Dst = dst
	n.Sel = sel
	n.Args = append([]ir.Reg{rr}, args...)
	n.Direct = direct
	cp.emit(f, n)
	cp.clobberVolatile(f)
	f.env.set(dst, types.Unknown{})
	return []*flow{f}, dst
}

// canInline decides whether to inline a looked-up method (§3.2.2).
// Trivial primitive wrappers (the bodies of +, <, at:, …) are
// inlinable even when general method inlining is off — they model
// Smalltalk-80's special-selector fast paths. Boolean control methods
// (ifTrue:False: and friends on true/false) are likewise always
// worth inlining once the receiver is known.
func (cp *compilation) canInline(m *obj.Method, rmap *obj.Map) bool {
	// Recursion check: a method already being inlined (or the method
	// being compiled, which CompileMethod pushes) compiles as a real
	// call. Since self-recursion is cut at the method's own frame,
	// shared control methods like ifTrue: and upTo:Do: never repeat on
	// the stack for non-recursive reasons.
	for _, a := range cp.inlineStack {
		if a == m.Ast {
			return false
		}
	}
	if len(cp.inlineStack) >= cp.cfg.InlineDepth+4 {
		return false
	}
	if cp.cfg.InlineMethods && len(cp.inlineStack) < cp.cfg.InlineDepth && astSize(m.Ast) <= cp.cfg.InlineBudget {
		return true
	}
	if cp.cfg.InlinePrimitives && isTrivialPrimMethod(m.Ast) {
		return true
	}
	if cp.cfg.TypePrediction && (rmap == cp.w.TrueObj.Map || rmap == cp.w.FalseObj.Map) {
		return true
	}
	return false
}

// inlineMethod splices a method body into the current graph with the
// receiver and arguments bound, creating a fresh scope (the paper's
// message inlining: "new variables for its formals and locals are
// created and added to the type mapping").
func (cp *compilation) inlineMethod(f *flow, meth *obj.Method, rr ir.Reg, args []ir.Reg, sc *scope) ([]*flow, ir.Reg) {
	a := meth.Ast
	if len(args) != len(a.Params) {
		cp.errorf("%s: selector %q: %d args for %d params", a.P, a.Sel, len(args), len(a.Params))
		return []*flow{f}, ir.NoReg
	}
	cp.inlineStack = append(cp.inlineStack, a)
	defer func() { cp.inlineStack = cp.inlineStack[:len(cp.inlineStack)-1] }()
	cp.stats.InlinedMethods++

	sc2 := &scope{kind: methodScope, vars: make([]scopeVar, 0, len(a.Params)+len(a.Locals)), simDepth: cp.simDepth}
	sc2.stackDepth = len(cp.inlineStack)
	sc2.selfReg = rr
	cp.track(rr)
	for i, p := range a.Params {
		// Alias each formal to the caller's argument register:
		// parameters are immutable, so this costs nothing and lets
		// type tests inside the callee refine the caller's variable —
		// the effect that hoists the n-is-integer test in §5.3.
		sc2.declare(p, args[i], true)
		cp.track(args[i])
	}
	sc2.ret = &retCollector{resultReg: cp.newVarReg()}
	mark := cp.trackMark()

	flows := cp.declareLocals([]*flow{f}, sc2, a.Locals)
	flows, res := cp.compileBody(flows, a.Body, sc2)
	if res == ir.NoReg {
		res = rr // empty body returns self
	}
	out := cp.moveInto(flows, sc2.ret.resultReg, res)
	out = append(out, sc2.ret.flows...)
	cp.trackRelease(mark)
	out = cp.mergePolicy(out, sc2.ret.resultReg)
	return out, sc2.ret.resultReg
}

// inlineBlock splices a block body in, binding parameters; the block's
// lexical scope chain is reconstructed from its Blk type so free
// variables resolve to the defining activation's registers.
func (cp *compilation) inlineBlock(f *flow, bt types.Blk, args []ir.Reg, sel string) ([]*flow, ir.Reg) {
	blk := bt.B
	if len(args) != len(blk.Params) {
		cp.errorf("%s: block takes %d args, %q supplies %d", blk.P, len(blk.Params), sel, len(args))
		return []*flow{f}, ir.NoReg
	}
	parent, _ := bt.Scope.(*scope)
	sc2 := &scope{kind: blockScope, parent: parent, vars: make([]scopeVar, 0, len(blk.Params)+len(blk.Locals)), simDepth: cp.simDepth}
	sc2.selfReg = ir.NoReg // blocks share self with their home scope
	for i, p := range blk.Params {
		sc2.declare(p, args[i], true)
		cp.track(args[i])
	}
	// The block's code is lexically the defining method's, not the
	// inlined callee's: mask the inline stack back to the defining
	// depth so the intervening methods can be inlined again inside it.
	saved := cp.inlineStack
	if parent != nil && parent.stackDepth < len(saved) {
		cp.inlineStack = append([]*ast.Method(nil), saved[:parent.stackDepth]...)
	}
	sc2.stackDepth = len(cp.inlineStack)
	mark := cp.trackMark()
	flows := cp.declareLocals([]*flow{f}, sc2, blk.Locals)
	flows, res := cp.compileBody(flows, blk.Body, sc2)
	cp.inlineStack = saved
	cp.trackRelease(mark)
	if res == ir.NoReg {
		// An empty block evaluates to nil.
		return cp.compileConst(flows, obj.Nil())
	}
	return flows, res
}

// materialize turns a deferred block literal into a real closure just
// before its value escapes the compiler's sight (into a send, a store,
// a call or a return). Variables the escaping block assigns become
// volatile: from here on the compiler knows nothing about them — the
// paper's "up-level assignments" source of the unknown type.
func (cp *compilation) materialize(f *flow, reg ir.Reg) {
	bt, ok := f.env.get(reg).(types.Blk)
	if !ok {
		return
	}
	n := cp.g.NewNode(ir.MkBlk)
	n.Dst = reg
	n.Blk = bt.B
	n.Caps = cp.scanCaptures(bt)
	// Blocks performing ^ need a home for the non-local return. When
	// the home method was inlined, a landing node marks where execution
	// resumes (the inlined epilogue) with the returned value.
	if bsc, ok := bt.Scope.(*scope); ok && blockHasReturn(bt.B) {
		if home := bsc.homeMethod(); home != nil && home != cp.topScope {
			if home.nlrLanding == nil {
				// Kept: a landing made while a loop body is simulated
				// for a home outside it is where the real compile
				// lands too.
				cp.mergeSeq++
				home.nlrLanding = cp.g.NewKeptNode(ir.Merge)
				home.nlrLanding.Index = cp.mergeSeq
				home.ret.flows = append(home.ret.flows, &flow{
					from:     home.nlrLanding,
					env:      &env{ar: &cp.chunks},
					uncommon: true,
				})
			}
			n.Landing = home.nlrLanding
			n.A = home.ret.resultReg
		}
	}
	cp.emit(f, n)
	f.env.set(reg, types.NewClass(cp.w.BlockMap, cp.intMap()))
	if sc, ok := bt.Scope.(*scope); ok {
		for _, name := range assignedUpNames(bt.B) {
			if r, cell, found := sc.lookupVar(name); found && cell < 0 && !slices.Contains(cp.volatile, r) {
				cp.volatile = append(cp.volatile, r)
			}
		}
	}
	cp.clobberVolatile(f)
}

// clobberVolatile forgets everything about registers an escaped
// closure may assign; called after every instruction that could run
// arbitrary code.
func (cp *compilation) clobberVolatile(f *flow) {
	for _, r := range cp.volatile {
		f.env.set(r, types.Unknown{})
		f.invalidateReg(r)
	}
}

// assignedUpNames lists the names a block (or its nested blocks)
// assigns.
func assignedUpNames(blk *ast.Block) []string {
	var out []string
	seen := map[string]bool{}
	var visit func(e ast.Expr, bound map[string]bool)
	visitBlock := func(b *ast.Block, bound map[string]bool) {
		inner := map[string]bool{}
		for k := range bound {
			inner[k] = true
		}
		for _, p := range b.Params {
			inner[p] = true
		}
		for _, l := range b.Locals {
			inner[l.Name] = true
		}
		for _, s := range b.Body {
			visit(s, inner)
		}
	}
	visit = func(e ast.Expr, bound map[string]bool) {
		switch n := e.(type) {
		case *ast.KeywordMsg:
			if n.Recv == nil && len(ast.SplitSelector(n.Sel)) == 1 {
				name := n.Sel[:len(n.Sel)-1]
				if !bound[name] && !seen[name] {
					seen[name] = true
					out = append(out, name)
				}
			}
			if n.Recv != nil {
				visit(n.Recv, bound)
			}
			for _, a := range n.Args {
				visit(a, bound)
			}
		case *ast.UnaryMsg:
			visit(n.Recv, bound)
		case *ast.BinMsg:
			visit(n.Recv, bound)
			visit(n.Arg, bound)
		case *ast.PrimCall:
			visit(n.Recv, bound)
			for _, a := range n.Args {
				visit(a, bound)
			}
		case *ast.Return:
			visit(n.E, bound)
		case *ast.Block:
			visitBlock(n, bound)
		}
	}
	visitBlock(blk, map[string]bool{})
	return out
}

// scanCaptures computes the closure's captured variables: every free
// name of the block that resolves in its lexical scope, plus self. Their
// order — names sorted, self included — is the closure's cell layout:
// the block compile indexes the cells by it.
func (cp *compilation) scanCaptures(bt types.Blk) []ir.Capture {
	sc, _ := bt.Scope.(*scope)
	if sc == nil {
		return nil
	}
	names := append(freeNames(bt.B), "self")
	sort.Strings(names)
	var caps []ir.Capture
	for _, name := range names {
		r, cell, ok := sc.lookupVar(name)
		switch {
		case cell >= 0:
			caps = append(caps, ir.Capture{Name: name, Src: ir.Reg(cell), FromUp: true})
		case name == "self":
			caps = append(caps, ir.Capture{Name: name, Src: sc.selfScope().selfReg})
		case ok:
			caps = append(caps, ir.Capture{Name: name, Src: r, ByValue: sc.isParam(name)})
		}
	}
	return caps
}

// blockHasReturn reports whether the block (or any nested block)
// contains a ^ expression.
func blockHasReturn(blk *ast.Block) bool {
	found := false
	for _, s := range blk.Body {
		ast.Walk(s, func(e ast.Expr) {
			if _, ok := e.(*ast.Return); ok {
				found = true
			}
		})
	}
	return found
}

// freeNames lists names referenced by the block (reads and assignment
// targets) that are not bound by the block itself or a nested block.
func freeNames(blk *ast.Block) []string {
	seen := map[string]bool{}
	var out []string
	var visit func(e ast.Expr, bound map[string]bool)
	addName := func(name string, bound map[string]bool) {
		if name == "self" || bound[name] || seen[name] {
			return
		}
		seen[name] = true
		out = append(out, name)
	}
	visitBlock := func(b *ast.Block, bound map[string]bool) {
		inner := map[string]bool{}
		for k := range bound {
			inner[k] = true
		}
		for _, p := range b.Params {
			inner[p] = true
		}
		for _, l := range b.Locals {
			inner[l.Name] = true
		}
		for _, s := range b.Body {
			visit(s, inner)
		}
	}
	visit = func(e ast.Expr, bound map[string]bool) {
		switch n := e.(type) {
		case *ast.Ident:
			addName(n.Name, bound)
		case *ast.UnaryMsg:
			visit(n.Recv, bound)
		case *ast.BinMsg:
			visit(n.Recv, bound)
			visit(n.Arg, bound)
		case *ast.KeywordMsg:
			if n.Recv == nil {
				parts := ast.SplitSelector(n.Sel)
				if len(parts) == 1 {
					addName(n.Sel[:len(n.Sel)-1], bound)
				}
			} else {
				visit(n.Recv, bound)
			}
			for _, a := range n.Args {
				visit(a, bound)
			}
		case *ast.PrimCall:
			visit(n.Recv, bound)
			for _, a := range n.Args {
				visit(a, bound)
			}
		case *ast.Return:
			visit(n.E, bound)
		case *ast.Block:
			visitBlock(n, bound)
		}
	}
	visitBlock(blk, map[string]bool{})
	return out
}

// astSize counts AST nodes, the inlining budget metric.
func astSize(m *ast.Method) int {
	n := 0
	for _, e := range m.Body {
		ast.Walk(e, func(ast.Expr) { n++ })
	}
	return n
}

// isTrivialPrimMethod recognizes one-statement primitive wrappers like
// "+ n = ( _IntAdd: n )" — the special selectors every generation of
// compiler (and ST-80) expands inline.
func isTrivialPrimMethod(m *ast.Method) bool {
	if len(m.Body) != 1 || len(m.Locals) != 0 {
		return false
	}
	pc, ok := m.Body[0].(*ast.PrimCall)
	if !ok {
		return false
	}
	simple := func(e ast.Expr) bool {
		switch e.(type) {
		case *ast.Ident, *ast.IntLit, *ast.StrLit, *ast.Block:
			return true
		}
		return false
	}
	if !simple(pc.Recv) {
		return false
	}
	for _, a := range pc.Args {
		if !simple(a) {
			return false
		}
	}
	return true
}

// isValueSel recognizes block invocation selectors.
func isValueSel(sel string, nargs int) bool {
	switch {
	case sel == "value" && nargs == 0:
		return true
	case sel == "value:" && nargs == 1:
		return true
	case strings.HasPrefix(sel, "value:") && strings.Count(sel, ":") == nargs:
		return sel == "value:"+strings.Repeat("Value:", nargs-1)
	}
	return false
}

// isBoolControlSel lists the selectors predicted to have boolean
// receivers.
func isBoolControlSel(sel string) bool {
	switch sel {
	case "ifTrue:", "ifFalse:", "ifTrue:False:", "ifFalse:True:",
		"and:", "or:", "not":
		return true
	}
	return false
}

// predictedType returns the type the selector's receiver is predicted
// to have (§2: "the receiver of a + message is nine times more likely
// to be a small integer than any other type").
func (cp *compilation) predictedType(sel string) types.Type {
	switch sel {
	case "+", "-", "*", "/", "%", "<", "<=", ">", ">=", "=", "!=",
		"min:", "max:", "succ", "pred", "abs", "negate",
		"to:Do:", "upTo:Do:", "downTo:Do:", "timesRepeat:", "rem:", "quo:":
		return types.FullRange()
	}
	if isBoolControlSel(sel) {
		return boolEither(cp.w)
	}
	return nil
}

// boolEither is the union {true, false}.
func boolEither(w *obj.World) types.Type {
	return types.Union{Elems: []types.Type{
		types.NewVal(w.Bool(true), w.TrueObj.Map),
		types.NewVal(w.Bool(false), w.FalseObj.Map),
	}}
}
