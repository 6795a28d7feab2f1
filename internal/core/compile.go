package core

import (
	"fmt"
	"math/bits"
	"time"

	"selfgo/internal/ast"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/types"
)

// Compiler compiles methods of a world under one configuration.
//
// A Compiler holds no per-compilation state — each CompileMethod call
// builds its own context — so one Compiler may serve concurrent
// compilations, as the shared code cache's single-flight path does,
// provided the world is not mutated while compilations run.
type Compiler struct {
	World *obj.World
	Cfg   Config
}

// New returns a compiler for the world under cfg.
func New(world *obj.World, cfg Config) *Compiler {
	return &Compiler{World: world, Cfg: cfg}
}

// CompileMethod compiles meth customized for receiver map rmap. With
// customization disabled (or rmap nil) the receiver is unknown, as in
// Smalltalk-80. Returns the optimized control flow graph.
func (c *Compiler) CompileMethod(meth *obj.Method, rmap *obj.Map) (*ir.Graph, *Stats, error) {
	return c.compileMethodFB(meth, rmap, nil)
}

// compileMethodFB is CompileMethod seeded with receiver-map type
// feedback harvested from a lower tier's inline caches (nil feedback
// compiles bit-identically to CompileMethod); the Pipeline's hot
// recompiles use it.
func (c *Compiler) compileMethodFB(meth *obj.Method, rmap *obj.Map, fb *types.Feedback) (*ir.Graph, *Stats, error) {
	cp := newCompilation(c)
	cp.fb = fb
	name := meth.String()
	if c.Cfg.Customization && rmap != nil {
		name = fmt.Sprintf("%s>>%s", rmap.Name, meth.Sel)
	}
	g := ir.NewGraph(name)
	g.NumParams = len(meth.Ast.Params)
	cp.g = g

	sc := &scope{kind: methodScope}
	sc.selfReg = cp.newVarReg()
	sc.ret = &retCollector{resultReg: cp.newVarReg()}
	cp.topScope = sc
	// The method being compiled never inlines itself: recursion becomes
	// a (customized) call, as in the SELF compiler.
	cp.inlineStack = append(cp.inlineStack, meth.Ast)
	sc.stackDepth = len(cp.inlineStack)

	f0 := &flow{from: g.Entry, slot: 0, env: &env{ar: &cp.chunks}}
	if c.Cfg.Customization && rmap != nil {
		f0.env.set(sc.selfReg, types.NewClass(rmap, c.World.IntMap))
	} else {
		f0.env.set(sc.selfReg, types.Unknown{})
	}

	for _, p := range meth.Ast.Params {
		r := cp.newVarReg()
		sc.declare(p, r, true)
		f0.env.set(r, types.Unknown{})
	}

	flows := []*flow{f0}
	flows = cp.declareLocals(flows, sc, meth.Ast.Locals)
	flows, res := cp.compileBody(flows, meth.Ast.Body, sc)
	if res == ir.NoReg {
		res = sc.selfReg // empty body: a method returns self
	}
	cp.finishMethod(flows, res, sc)
	cp.stats.Duration = time.Since(cp.start)
	cp.stats.Nodes = len(g.Reachable())
	cp.stats.BuiltNodes = g.Built()
	return g, cp.stats, cp.err
}

// CompileBlock compiles a block as out-of-line closure code: the
// captures become up-level accesses, ^ becomes a non-local return.
// cells must name the closure's cells in order (the capture names of
// the MkBlk that makes the closure), so the code indexes the cells the
// closure has.
func (c *Compiler) CompileBlock(blk *ast.Block, cells []string) (*ir.Graph, *Stats, error) {
	return c.compileBlockFB(blk, cells, nil)
}

// compileBlockFB is CompileBlock with optional type feedback (see
// compileMethodFB).
func (c *Compiler) compileBlockFB(blk *ast.Block, cells []string, fb *types.Feedback) (*ir.Graph, *Stats, error) {
	cp := newCompilation(c)
	cp.fb = fb
	g := ir.NewGraph(fmt.Sprintf("block@%s", blk.P))
	g.NumParams = len(blk.Params)
	cp.g = g

	sc := &scope{kind: blockScope, compiledBlock: true, cells: cells}
	sc.selfReg = cp.newVarReg()
	sc.ret = &retCollector{resultReg: cp.newVarReg()}
	cp.topScope = sc

	f0 := &flow{from: g.Entry, slot: 0, env: &env{ar: &cp.chunks}}
	selfLoad := g.NewNode(ir.LoadUp)
	selfLoad.Dst = sc.selfReg
	selfLoad.Sel = "self"
	_, selfLoad.Index, _ = sc.lookupVar("self")
	cp.emit(f0, selfLoad)
	f0.env.set(sc.selfReg, types.Unknown{})

	for _, p := range blk.Params {
		r := cp.newVarReg()
		sc.declare(p, r, true)
		f0.env.set(r, types.Unknown{})
	}

	flows := []*flow{f0}
	flows = cp.declareLocals(flows, sc, blk.Locals)
	flows, res := cp.compileBody(flows, blk.Body, sc)
	if res == ir.NoReg {
		res = sc.selfReg
	}
	cp.finishMethod(flows, res, sc)
	cp.stats.Duration = time.Since(cp.start)
	cp.stats.Nodes = len(g.Reachable())
	cp.stats.BuiltNodes = g.Built()
	return g, cp.stats, cp.err
}

// compilation is the state of one CompileMethod/CompileBlock run.
type compilation struct {
	c     *Compiler
	w     *obj.World
	cfg   Config
	g     *ir.Graph
	stats *Stats
	start time.Time

	inlineStack []*ast.Method
	writeLogs   []map[ir.Reg]bool // active loop-invariance write logs
	tracked     []ir.Reg          // registers whose types survive merges, in tracking order
	trackedMask regMask           // the same set; track and trackRelease are its only writers
	volatile    []ir.Reg          // assigned by escaped closures: always unknown
	topScope    *scope            // the outermost (non-inlined) scope
	mergeSeq    int
	simDepth    int // loop-body simulations under way (simulateLoopBody)
	err         error

	// chunks is where this compilation's env chunks come from; a loop
	// simulation releases the ones it made when it returns.
	chunks chunkArena

	// fb is receiver-map type feedback from a lower tier's inline
	// caches (nil outside feedback-seeded recompiles); sendUnknown
	// consults it when neither static types nor prediction decide a
	// receiver.
	fb *types.Feedback

	protoCache map[*ast.ObjectLit]obj.Value
}

func newCompilation(c *Compiler) *compilation {
	return &compilation{
		c:          c,
		w:          c.World,
		cfg:        c.Cfg,
		stats:      &Stats{},
		start:      time.Now(),
		protoCache: map[*ast.ObjectLit]obj.Value{},
	}
}

func (cp *compilation) intMap() *obj.Map { return cp.w.IntMap }

func (cp *compilation) errorf(format string, args ...any) {
	if cp.err == nil {
		cp.err = fmt.Errorf(format, args...)
	}
}

// newVarReg allocates a register tracked across merges (scope
// variables, loop-carried values).
func (cp *compilation) newVarReg() ir.Reg {
	r := cp.g.NewReg()
	cp.track(r)
	return r
}

// track marks an existing register as type-tracked across merges (used
// when an inlined callee aliases a caller register).
func (cp *compilation) track(r ir.Reg) {
	if r == ir.NoReg || cp.trackedMask.has(r) {
		return
	}
	cp.trackedMask.add(r)
	cp.tracked = append(cp.tracked, r)
}

// trackMark/trackRelease bracket an inlined scope: its registers stop
// being tracked once the inline completes, keeping environments (and
// every merge and loop fix-point over them) small. Dropping a type is
// always sound — the register reads as unknown afterwards.
func (cp *compilation) trackMark() int { return len(cp.tracked) }

func (cp *compilation) trackRelease(mark int) {
	for _, r := range cp.tracked[mark:] {
		cp.trackedMask.remove(r)
	}
	cp.tracked = cp.tracked[:mark]
}

// emit appends n to flow f's open edge.
func (cp *compilation) emit(f *flow, n *ir.Node) {
	setSucc(f.from, f.slot, n)
	n.Uncommon = n.Uncommon || f.uncommon
	f.from = n
	f.slot = 0
	f.copied++
	if n.Dst != ir.NoReg {
		for _, log := range cp.writeLogs {
			log[n.Dst] = true
		}
	}
	if cp.cfg.AnnotateTypes {
		cp.annotate(f, n)
	}
}

// annotate attaches incoming operand types to nodes whose dumps the
// paper's figures label (sends, tests, compares, arithmetic).
func (cp *compilation) annotate(f *flow, n *ir.Node) {
	show := func(r ir.Reg) string {
		return fmt.Sprintf("r%d:%s", r, f.env.get(r))
	}
	var note string
	switch n.Op {
	case ir.Send, ir.Call, ir.PrimOp:
		if len(n.Args) > 0 {
			note = "recv " + show(n.Args[0])
		}
	case ir.TypeTest:
		note = "on " + show(n.A)
	case ir.CmpBr, ir.Arith:
		note = show(n.A) + " , " + show(n.B)
	default:
		return
	}
	if n.Note != "" {
		note = n.Note + "; " + note
	}
	n.Note = note
}

// declareLocals emits constant initializers for locals (§3.2.1: "local
// variables in SELF are always initialized to compile-time constants").
func (cp *compilation) declareLocals(flows []*flow, sc *scope, locals []*ast.Local) []*flow {
	for _, l := range locals {
		r := cp.newVarReg()
		sc.declare(l.Name, r, false)
		v, ty := cp.localInit(l.Init)
		for _, f := range flows {
			n := cp.g.NewNode(ir.Const)
			n.Dst = r
			n.Val = v
			cp.emit(f, n)
			f.env.set(r, ty)
		}
	}
	return flows
}

func (cp *compilation) localInit(e ast.Expr) (obj.Value, types.Type) {
	switch n := e.(type) {
	case nil:
		return obj.Nil(), types.NewVal(obj.Nil(), cp.w.NilMap)
	case *ast.IntLit:
		return obj.Int(n.Value), types.NewVal(obj.Int(n.Value), cp.intMap())
	case *ast.StrLit:
		return obj.Str(n.Value), types.NewVal(obj.Str(n.Value), cp.w.StrMap)
	case *ast.Ident:
		if v, ok := cp.w.GlobalValue(n.Name); ok {
			return v, types.NewVal(v, cp.w.MapOf(v))
		}
	}
	cp.errorf("%s: local initializer must be a compile-time constant", e.Pos())
	return obj.Nil(), types.NewVal(obj.Nil(), cp.w.NilMap)
}

// finishMethod emits returns for the fall-through flows and for every
// flow collected by ^ expressions.
func (cp *compilation) finishMethod(flows []*flow, res ir.Reg, sc *scope) {
	for _, f := range flows {
		cp.materialize(f, res) // returned blocks escape to the caller
		n := cp.g.NewNode(ir.Return)
		n.A = res
		cp.emit(f, n)
	}
	for _, f := range sc.ret.flows {
		cp.materialize(f, sc.ret.resultReg)
		n := cp.g.NewNode(ir.Return)
		n.A = sc.ret.resultReg
		cp.emit(f, n)
	}
}

// compileBody compiles a statement list, applying the merge policy
// between statements. Returns the flows and the register holding the
// last statement's value.
func (cp *compilation) compileBody(flows []*flow, body []ast.Expr, sc *scope) ([]*flow, ir.Reg) {
	res := ir.NoReg
	for _, stmt := range body {
		if len(flows) == 0 || cp.err != nil {
			return flows, res
		}
		flows, res = cp.compileExpr(flows, stmt, sc)
		flows = cp.mergePolicy(flows, res)
	}
	return flows, res
}

// mergePolicy decides, at a potential merge point, whether to keep
// flows split (extended splitting) or merge them (forming merge types).
// Uncommon flows are never kept split from each other, and splitting
// stops once the copied-node budget is exceeded (§4).
func (cp *compilation) mergePolicy(flows []*flow, keep ir.Reg) []*flow {
	if len(flows) <= 1 {
		if len(flows) == 1 {
			flows[0].copied = 0
		}
		return flows
	}
	var common, uncommon []*flow
	for _, f := range flows {
		if f.uncommon {
			uncommon = append(uncommon, f)
		} else {
			common = append(common, f)
		}
	}
	// Merge flows whose environments agree on the tracked registers —
	// there is nothing to split for.
	common = cp.mergeEqual(common, keep)
	uncommon = cp.mergeEqual(uncommon, keep)

	keepSplit := cp.cfg.ExtendedSplitting && len(common) <= cp.cfg.MaxFlows
	if keepSplit {
		for _, f := range common {
			if f.copied > cp.cfg.SplitNodeThreshold {
				keepSplit = false
				cp.stats.ForcedMerges++
				break
			}
		}
	}
	if !keepSplit && len(common) > 1 {
		common = []*flow{cp.mergeFlows(common, keep)}
	} else if len(common) > 1 {
		cp.stats.Splits++
	}
	if len(uncommon) > 1 {
		uncommon = []*flow{cp.mergeFlows(uncommon, keep)}
	}
	if len(common) == 1 {
		common[0].copied = 0
	}
	return append(common, uncommon...)
}

// mergeEqual merges flows with identical tracked environments.
func (cp *compilation) mergeEqual(flows []*flow, keep ir.Reg) []*flow {
	if len(flows) <= 1 {
		return flows
	}
	regs := cp.trackedMask.with(keep)
	var out []*flow
	for _, f := range flows {
		merged := false
		for _, o := range out {
			if f.env.equalOn(o.env, regs) {
				cp.attachToMerge(o, f)
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, f)
		}
	}
	return out
}

// attachToMerge routes flow f into the merge point flow o already
// heads. If o's current node is not a merge node, one is created.
// Path knowledge is per-path: the merged flow keeps none.
func (cp *compilation) attachToMerge(o, f *flow) {
	if o.from.Op != ir.Merge || o.slot != 0 {
		m := cp.newMergeNode()
		cp.emit(o, m)
	}
	setSucc(f.from, f.slot, o.from)
	o.uncommon = o.uncommon && f.uncommon
	o.dropFacts()
}

func (cp *compilation) newMergeNode() *ir.Node {
	cp.mergeSeq++
	n := cp.g.NewNode(ir.Merge)
	n.Index = cp.mergeSeq
	return n
}

// mergeFlows merges all flows into one at a fresh merge node, merging
// the type environments pointwise (creating merge types where they
// differ, §4). A register holding an unmaterialized block literal on
// some flows but not others must be materialized first: after the
// merge dilutes its type, uses compile to dynamic value: sends, which
// need a real closure in the register.
func (cp *compilation) mergeFlows(flows []*flow, res ir.Reg) *flow {
	if len(flows) == 1 {
		return flows[0]
	}
	// Registers holding block literals must never lose that knowledge
	// silently: if all flows agree the entry survives the merge, else
	// the closures are materialized first (the dilution makes later
	// uses dynamic, which needs real closures in the register). Walking
	// in register order keeps the MkBlk nodes' order reproducible.
	nchunks := 0
	for _, f := range flows {
		nchunks = max(nchunks, len(f.env.chunks))
	}
	// keep is what the merged env holds: the tracked registers, the
	// statement result and the block literals every flow agrees on.
	keep := make(regMask, nchunks)
	copy(keep, cp.trackedMask)
	if res != ir.NoReg && int(res)/chunkRegs < nchunks { // past every flow's table it is unknown on all
		keep.add(res)
	}
	for i := range keep {
		if c0, shared := sharedChunk(flows, i); shared {
			keep[i] |= c0.blk
			continue
		}
		var blk uint32
		for _, f := range flows {
			blk |= f.env.chunk(i).blk
		}
		for ; blk != 0; blk &= blk - 1 {
			k := bits.TrailingZeros32(blk)
			first := flows[0].env.chunk(i).at(k)
			same := true
			for _, f := range flows[1:] {
				if !types.Equal(f.env.chunk(i).at(k), first) {
					same = false
					break
				}
			}
			if same {
				keep[i] |= 1 << k
				continue
			}
			for _, f := range flows {
				cp.materialize(f, ir.Reg(i*chunkRegs+k))
			}
		}
	}

	m := cp.newMergeNode()
	allUncommon := true
	for _, f := range flows {
		setSucc(f.from, f.slot, m)
		allUncommon = allUncommon && f.uncommon
	}
	merged := &env{chunks: make([]*envChunk, nchunks), ar: &cp.chunks}
	for i, allow := range keep {
		// A chunk no flow wrote since they forked merges to itself (and,
		// being shared, has no owner left to write it under the merge).
		if c0, shared := sharedChunk(flows, i); shared {
			merged.chunks[i] = c0.restrict(allow, merged.ar)
			continue
		}
		var bound uint32
		for _, f := range flows {
			bound |= f.env.chunk(i).present
		}
		for b := allow & bound; b != 0; b &= b - 1 {
			k := bits.TrailingZeros32(b)
			t := flows[0].env.chunk(i).at(k)
			for _, f := range flows[1:] {
				t = types.MergeOf(t, f.env.chunk(i).at(k), m.Index, cp.intMap())
			}
			merged.writable(i).put(k, t)
		}
	}
	return &flow{from: m, slot: 0, env: merged, uncommon: allUncommon}
}

// sharedChunk reports whether every flow holds the same i'th chunk —
// none of them wrote it since they forked — and returns it.
func sharedChunk(flows []*flow, i int) (*envChunk, bool) {
	c0 := flows[0].env.chunk(i)
	for _, f := range flows[1:] {
		if f.env.chunk(i) != c0 {
			return nil, false
		}
	}
	return c0, true
}

// --- Expression compilation ---

// compileExpr compiles e along every flow. The result register is the
// same on every returned flow.
func (cp *compilation) compileExpr(flows []*flow, e ast.Expr, sc *scope) ([]*flow, ir.Reg) {
	if cp.err != nil || len(flows) == 0 {
		return flows, cp.g.NewReg()
	}
	switch n := e.(type) {
	case *ast.IntLit:
		return cp.compileConst(flows, obj.Int(n.Value))
	case *ast.StrLit:
		return cp.compileConst(flows, obj.Str(n.Value))
	case *ast.Block:
		dst := cp.newVarReg()
		for _, f := range flows {
			f.env.set(dst, types.Blk{B: n, Scope: sc, M: cp.w.BlockMap})
		}
		return flows, dst
	case *ast.Ident:
		return cp.compileIdent(flows, n, sc)
	case *ast.UnaryMsg:
		flows, rr := cp.compileExpr(flows, n.Recv, sc)
		return cp.compileSend(flows, rr, n.Sel, nil, sc)
	case *ast.BinMsg:
		flows, rr := cp.compileExpr(flows, n.Recv, sc)
		flows, ar := cp.compileExpr(flows, n.Arg, sc)
		return cp.compileSend(flows, rr, n.Op, []ir.Reg{ar}, sc)
	case *ast.KeywordMsg:
		return cp.compileKeyword(flows, n, sc)
	case *ast.PrimCall:
		return cp.compilePrimCall(flows, n, sc)
	case *ast.Return:
		return cp.compileReturn(flows, n, sc)
	case *ast.ObjectLit:
		return cp.compileObjectLit(flows, n)
	}
	cp.errorf("%s: cannot compile %T", e.Pos(), e)
	return flows, cp.g.NewReg()
}

func (cp *compilation) compileConst(flows []*flow, v obj.Value) ([]*flow, ir.Reg) {
	dst := cp.g.NewReg()
	t := types.NewVal(v, cp.w.MapOf(v))
	for _, f := range flows {
		n := cp.g.NewNode(ir.Const)
		n.Dst = dst
		n.Val = v
		cp.emit(f, n)
		f.env.set(dst, t)
	}
	return flows, dst
}

func (cp *compilation) compileIdent(flows []*flow, n *ast.Ident, sc *scope) ([]*flow, ir.Reg) {
	if n.Name == "self" {
		return flows, sc.selfScope().selfReg
	}
	if r, cell, ok := sc.lookupVar(n.Name); ok {
		if cell < 0 {
			return flows, r
		}
		// Up-level variable of an out-of-line block.
		dst := cp.g.NewReg()
		for _, f := range flows {
			ld := cp.g.NewNode(ir.LoadUp)
			ld.Dst = dst
			ld.Sel = n.Name
			ld.Index = cell
			cp.emit(f, ld)
			f.env.set(dst, types.Unknown{})
		}
		return flows, dst
	}
	// Unary message to the implicit receiver.
	return cp.compileSend(flows, sc.selfScope().selfReg, n.Name, nil, sc)
}

func (cp *compilation) compileKeyword(flows []*flow, n *ast.KeywordMsg, sc *scope) ([]*flow, ir.Reg) {
	if n.Recv == nil {
		// Implicit receiver: assignment to a lexical variable, or a
		// send to self.
		parts := ast.SplitSelector(n.Sel)
		if len(parts) == 1 && len(n.Args) == 1 {
			name := n.Sel[:len(n.Sel)-1]
			if r, cell, ok := sc.lookupVar(name); ok {
				if sc.isParam(name) {
					cp.errorf("%s: cannot assign to parameter %q", n.P, name)
					return flows, r
				}
				return cp.compileAssign(flows, r, cell, name, n.Args[0], sc)
			}
		}
		recv := sc.selfScope().selfReg
		var args []ir.Reg
		for _, a := range n.Args {
			var ar ir.Reg
			flows, ar = cp.compileExpr(flows, a, sc)
			args = append(args, ar)
		}
		return cp.compileSend(flows, recv, n.Sel, args, sc)
	}
	flows, rr := cp.compileExpr(flows, n.Recv, sc)
	var args []ir.Reg
	for _, a := range n.Args {
		var ar ir.Reg
		flows, ar = cp.compileExpr(flows, a, sc)
		args = append(args, ar)
	}
	return cp.compileSend(flows, rr, n.Sel, args, sc)
}

func (cp *compilation) compileAssign(flows []*flow, r ir.Reg, cell int, name string, arg ast.Expr, sc *scope) ([]*flow, ir.Reg) {
	flows, ar := cp.compileExpr(flows, arg, sc)
	for _, f := range flows {
		if cell >= 0 {
			// Up-level storage is runtime state: block values must be
			// real closures there.
			cp.materialize(f, ar)
			st := cp.g.NewNode(ir.StoreUp)
			st.Sel = name
			st.Index = cell
			st.A = ar
			cp.emit(f, st)
			continue
		}
		if !cp.cfg.TypeAnalysis {
			// The assignment erases the type (see below), so a block
			// literal must become a real closure now.
			cp.materialize(f, ar)
		}
		mv := cp.g.NewNode(ir.Move)
		mv.Dst = r
		mv.A = ar
		cp.emit(f, mv)
		f.invalidateReg(r)
		if cp.cfg.ComparisonFacts {
			f.aliasReg(r, ar)
		}
		if cp.cfg.TypeAnalysis {
			f.env.set(r, f.env.get(ar))
		} else {
			// The original SELF compiler performed no type analysis:
			// assigned locals are always of unknown type (§5).
			f.env.set(r, types.Unknown{})
		}
	}
	return flows, ar
}

func (cp *compilation) compileReturn(flows []*flow, n *ast.Return, sc *scope) ([]*flow, ir.Reg) {
	flows, res := cp.compileExpr(flows, n.E, sc)
	home := sc.homeMethod()
	for _, f := range flows {
		if home == nil {
			// Out-of-line block: non-local return through the closure.
			cp.materialize(f, res)
			nl := cp.g.NewNode(ir.NLReturn)
			nl.A = res
			cp.emit(f, nl)
			continue
		}
		mv := cp.g.NewNode(ir.Move)
		mv.Dst = home.ret.resultReg
		mv.A = res
		cp.emit(f, mv)
		f.env.set(home.ret.resultReg, f.env.get(res))
		if home.simDepth < cp.simDepth {
			// A simulated loop body's ^ to a home outside the
			// simulation: the flow runs through nodes the simulation
			// discards, so it ends here.
			continue
		}
		home.ret.flows = append(home.ret.flows, f)
	}
	// All flows ended; callers see an empty flow set.
	return nil, res
}

func (cp *compilation) compileObjectLit(flows []*flow, n *ast.ObjectLit) ([]*flow, ir.Reg) {
	proto, ok := cp.protoCache[n]
	if !ok {
		v, err := cp.w.BuildObject(n)
		if err != nil {
			cp.errorf("%s: %v", n.P, err)
			return flows, cp.g.NewReg()
		}
		proto = v
		cp.protoCache[n] = proto
	}
	// Each evaluation yields a fresh clone of the literal prototype.
	tmp := cp.g.NewReg()
	dst := cp.g.NewReg()
	t := types.NewClass(proto.Obj().Map, cp.intMap())
	for _, f := range flows {
		cn := cp.g.NewNode(ir.Const)
		cn.Dst = tmp
		cn.Val = proto
		cp.emit(f, cn)
		cl := cp.g.NewNode(ir.CloneOp)
		cl.Dst = dst
		cl.A = tmp
		cp.emit(f, cl)
		f.env.set(dst, t)
	}
	return flows, dst
}
