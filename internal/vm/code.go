package vm

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"selfgo/internal/ast"
	"selfgo/internal/bbv"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
)

// Instr is one entry of the stream the VM dispatches: a 32-byte record
// with no Go pointers. Its op's roles (opRoles) say what each of Dst,
// A, B, T, F and Aux holds — a register, a pc (-1: none), an immediate,
// or an index into one of the Code's cold tables. Branch instructions
// hold the pcs of both targets; straight-line instructions fall through
// (the assembler inserts explicit jumps where layout requires).
type Instr struct {
	Op ir.Op

	// Mode holds an Arith's ArithKind or a CmpBr's CmpKind in its low
	// bits, and the Checked, Direct and Bounds flags above them.
	Mode uint8

	// N is the number of modelled instructions this entry represents
	// (Instrs accounting): 1 as assembled; after Fuse, its constituents
	// and the self-moves they absorbed (Fuse bounds those).
	N uint16

	Dst, A, B ir.Reg
	T, F, Aux int32

	// Cost is the static part of the modelled cycle cost (staticCost),
	// so the hot loop charges one add per dispatch; for a fused entry,
	// the exact sum over everything the entry stands for.
	Cost int32
}

const modeKind, modeChecked, modeDirect, modeBounds, modeImm = 0x0f, 1 << 4, 1 << 5, 1 << 6, 1 << 7

// AOp is an Arith's operation, COp a CmpBr's comparison. Checked marks
// an Arith whose overflow branches to F, Direct a statically-bound Send
// (see ir.Node.Direct), and Bounds a CmpBr that implements an array
// bounds check (for the run-time statistics).
func (in *Instr) AOp() ir.ArithKind { return ir.ArithKind(in.Mode & modeKind) }
func (in *Instr) COp() ir.CmpKind   { return ir.CmpKind(in.Mode & modeKind) }
func (in *Instr) Checked() bool     { return in.Mode&modeChecked != 0 }
func (in *Instr) Direct() bool      { return in.Mode&modeDirect != 0 }
func (in *Instr) Bounds() bool      { return in.Mode&modeBounds != 0 }

// role is what one slot of an Instr holds.
type role uint8

const (
	rNone    role = iota
	rUse          // a register the instruction reads, or whose address it takes
	rDef          // the register it writes (NoReg: none)
	rEdge         // a pc control may branch to (-1: none): in T the taken edge, in F the other
	rLanding      // the pc a non-local return resumes at (-1: none)
	rTail         // a fused head's first tail: an index into Code.tails
	rImm          // an immediate: a field or closure-cell number
	rConst        // an index into Code.consts
	rSite         // an index into Code.sites, which is the site's inline-cache number
	rMap          // an index into Code.maps
	rBlock        // an index into Code.blocks
	rCallee       // an index into Code.callees
	rName         // an index into Code.names
)

// roles is what each slot of one op's Instr holds, whether the op stops
// control (never falls through to the next pc), and its modelled cycle
// cost and byte size (see staticCost and instrSize).
type roles struct {
	Dst, A, B, T, F, Aux role
	stop                 bool
	cost                 int64
	size                 int
}

// opRoles is the one description of every op's operand slots, read by
// the assembler, register allocation and its oracle, fusion, BBV and
// Disasm. A fused op has its head's roles, with T naming the tails.
var opRoles = func() (t [256]roles) {
	t[opJmp] = roles{T: rEdge, stop: true, cost: CostJump, size: SizeSimple}
	t[ir.Const] = roles{Dst: rDef, F: rImm, Aux: rConst, cost: CostConst, size: SizeConst}
	t[ir.Move] = roles{Dst: rDef, A: rUse, cost: CostMove, size: SizeSimple}
	t[ir.LoadF] = roles{Dst: rDef, A: rUse, Aux: rImm, cost: CostLoadStore, size: SizeLoadF}
	t[ir.StoreF] = roles{A: rUse, B: rUse, Aux: rImm, cost: CostLoadStore, size: SizeLoadF}
	t[ir.LoadE] = roles{Dst: rDef, A: rUse, B: rUse, cost: CostLoadStore, size: SizeLoadF}
	t[ir.StoreE] = roles{Dst: rUse, A: rUse, B: rUse, cost: CostLoadStore, size: SizeLoadF} // Dst holds the value stored
	t[ir.VecLen] = roles{Dst: rDef, A: rUse, cost: CostVecLen, size: SizeLoadF}
	t[ir.NewVec] = roles{Dst: rDef, A: rUse, B: rUse, cost: CostNewVecBase, size: SizeNewVec}
	t[ir.CloneOp] = roles{Dst: rDef, A: rUse, cost: CostCloneBase, size: SizeClone}
	t[ir.Arith] = roles{Dst: rDef, A: rUse, B: rUse, F: rEdge, cost: CostArith, size: SizeSimple}
	t[ir.CmpBr] = roles{A: rUse, B: rUse, T: rEdge, F: rEdge, stop: true, cost: CostCmpBranch, size: SizeBranch}
	t[ir.TypeTest] = roles{A: rUse, T: rEdge, F: rEdge, Aux: rMap, stop: true, cost: CostTypeTest, size: SizeTypeTest}
	t[ir.Send] = roles{Dst: rDef, Aux: rSite, size: SizeSend}
	t[ir.Call] = roles{Dst: rDef, T: rCallee, Aux: rSite, cost: CostCall, size: SizeCall}
	t[ir.PrimOp] = roles{Dst: rDef, A: rUse, Aux: rSite, size: SizePrimOp} // A holds the failure block
	t[ir.MkBlk] = roles{Dst: rDef, A: rUse, T: rLanding, Aux: rBlock, cost: CostMkBlkBase}
	t[ir.Fail] = roles{A: rUse, Aux: rName, stop: true, cost: CostFail, size: SizeFail}
	t[ir.Return] = roles{A: rUse, stop: true, cost: CostReturn, size: SizeReturn}
	t[ir.NLReturn] = roles{A: rUse, stop: true, cost: CostNLReturn, size: SizeNLReturn}
	t[ir.LoadUp] = roles{Dst: rDef, T: rName, Aux: rImm, cost: CostLoadUp, size: SizeUpAccess}
	t[ir.StoreUp] = roles{A: rUse, T: rName, Aux: rImm, cost: CostLoadUp, size: SizeUpAccess}
	for f, parts := range fusions {
		t[opMoveMove+ir.Op(f)] = t[parts[0]]
		t[opMoveMove+ir.Op(f)].T = rTail
	}
	return t
}()

// site is a send, call or primitive site: its selector and, in
// Code.args, its argument registers, the receiver first. blockSite is a
// MkBlk's block and, in Code.caps, its capture list, which names the
// closure's cells.
type site struct {
	Sel  string
	args span
}
type blockSite struct {
	Blk  *ast.Block
	caps span
}

// span is a run of Code.args or Code.caps.
type span struct{ off, n int32 }

func (c *Code) argRegs(s *site) []ir.Reg           { return c.args[s.args.off:][:s.args.n:s.args.n] }
func (c *Code) captures(b *blockSite) []ir.Capture { return c.caps[b.caps.off:][:b.caps.n:b.caps.n] }

// opJmp is an assembler-introduced unconditional jump. It reuses an Op
// value far outside the ir range.
const opJmp ir.Op = 250

// inlineCache is the per-call-site monomorphic cache of Deutsch &
// Schiffman, rewritten on each miss. With PICs enabled it extends into
// a small polymorphic cache checked after the monomorphic entry.
type inlineCache struct {
	m      *obj.Map
	slot   *obj.Slot
	holder *obj.Object // inherited data slots live in the holder object
	code   *linked     // what a method slot compiles to for m; nil until first invoked

	pic []picEntry
}

type picEntry struct {
	m      *obj.Map
	slot   *obj.Slot
	holder *obj.Object
	code   *linked
}

// picEntries bounds the polymorphic cache, as in the SELF PIC work.
const picEntries = 6

// picLookup consults the polymorphic extension (nil when disabled,
// direct, or absent).
func (ic *inlineCache) picLookup(vm *VM, m *obj.Map, direct bool) *picEntry {
	if !vm.PICs || direct {
		return nil
	}
	for i := range ic.pic {
		if ic.pic[i].m == m {
			return &ic.pic[i]
		}
	}
	return nil
}

// picStore remembers a resolved receiver map.
func (ic *inlineCache) picStore(vm *VM, m *obj.Map, slot *obj.Slot, holder *obj.Object) {
	if !vm.PICs || len(ic.pic) >= picEntries {
		return
	}
	ic.pic = append(ic.pic, picEntry{m: m, slot: slot, holder: holder})
}

// Origin identifies what a Code object was compiled from: the method
// and the receiver map it was customized for (RMap nil when
// customization is off). The zero Origin marks code that cannot be
// tier-promoted (blocks, scratch methods).
type Origin struct {
	Meth *obj.Method
	RMap *obj.Map
}

// HotCounts is a Code's execution-frequency state for tier promotion:
// invocations and loop backedges, each one atomic add on the fast path
// (shared Code is executed by many VMs at once). Promotion fires once
// per Code — the requested flag is a CAS so exactly one VM's OnHot
// hook runs even when several cross the threshold together.
type HotCounts struct {
	invocations atomic.Int64
	backedges   atomic.Int64
	requested   atomic.Bool
}

// Invocations returns how many times the code was entered.
func (h *HotCounts) Invocations() int64 { return h.invocations.Load() }

// Backedges returns how many backward jumps the code executed.
func (h *HotCounts) Backedges() int64 { return h.backedges.Load() }

// Requested reports whether promotion was already requested.
func (h *HotCounts) Requested() bool { return h.requested.Load() }

// Seed restores persisted hotness state onto freshly compiled code: a
// process booting from a world image replays the counters its
// predecessor recorded, so adaptive promotion resumes where it left
// off instead of re-learning from zero. Requested is seeded too —
// manifest preload compiles directly at the recorded tier, so a
// counter that already fired must not fire again.
func (h *HotCounts) Seed(invocations, backedges int64, requested bool) {
	h.invocations.Store(invocations)
	h.backedges.Store(backedges)
	h.requested.Store(requested)
}

// Code is one compiled method or block.
type Code struct {
	Name    string
	Instrs  []Instr
	NumRegs int // frame slots an activation needs (after register allocation)
	Bytes   int // modelled code size

	// The cold tables instructions reach through their slots (opRoles).
	// Each Send, Call or PrimOp site has an inline cache of the same
	// index (a PrimOp's goes unused), per VM (see linked): a Code is
	// immutable once assembled, but for its synchronized Hot counters
	// and bbv store.
	consts  []obj.Value
	sites   []site
	maps    []*obj.Map
	blocks  []blockSite
	callees []*ir.Callee
	names   []string
	args    []ir.Reg
	caps    []ir.Capture

	// tails, on fused code, holds the constituents of superinstructions
	// after their heads, a head's T naming its first (see Fuse).
	tails []Instr

	// pcs, on fused code, maps a pc to the pc the entry's own instruction
	// (its head, past whatever the entry absorbed) had in the stream
	// Assemble produced; nil on unfused code. Backtraces go through it
	// (sourcePC), so a fault reads the same with fusion on and off.
	pcs []int32

	// NumParams is how many arguments an activation takes; invoke stores
	// them in registers RegParamBase onwards.
	NumParams int

	// VirtRegs is how many virtual registers the compiler minted for
	// this code, before allocRegs renamed them; diagnostics only.
	VirtRegs int

	// IsBlock marks out-of-line block code (self arrives via the
	// closure, parameters start at register 2).
	IsBlock bool

	// TierLabel names the compilation tier that produced this code
	// ("baseline", "optimizing", "degraded"); empty when the builder
	// does not tier. Informational — it never affects execution.
	TierLabel string

	// Origin is the (method, receiver map) this code was compiled
	// from, set by tiering builders so a hot Code can be recompiled
	// under the same cache key. Zero for blocks.
	Origin Origin

	// Hot counts executions for hotness-driven tier promotion. The
	// counters are charged only while the owning VM has an OnHot hook
	// installed; they have no modelled-cost impact.
	Hot HotCounts

	// hasLandings records whether any MkBlk carries a non-local-return
	// landing (T >= 0). When false, exec can skip the
	// recover-and-resume wrapper entirely.
	hasLandings bool

	// bbv, when non-nil, is the lazy basic-block-versioning store for
	// this code (see internal/bbv and vm/bbv.go): the run loop anchors
	// a version at entry, advances it across branches, and elides type
	// tests the current version proves. Written once by EnableBBV
	// before the Code is published; the store itself is internally
	// synchronized and shared by every VM running the code.
	bbv *bbv.State
}

// sourcePC returns the pc, in the stream Assemble produced, of the
// modelled instruction `within` places past the head of the entry at
// pc: 0 for the head itself, a tail constituent's distance for a fault
// inside a superinstruction, negative into what the head absorbed.
// Everything an entry stands for was contiguous in that stream.
func (c *Code) sourcePC(pc, within int) int {
	if c.pcs != nil && pc >= 0 && pc < len(c.pcs) {
		pc = int(c.pcs[pc])
	}
	return pc + within
}

// Assemble linearizes a control flow graph (see linearize) and renames
// its virtual registers onto a dense slot file (see allocRegs), so
// every consumer — the pipeline, tools, the benchmark's probes — gets
// allocated code from the one assembler.
func Assemble(g *ir.Graph) *Code {
	c, _ := linearize(g)
	allocRegs(c)
	if TestHookAssemble != nil {
		raw, _ := linearize(g)
		return TestHookAssemble(raw, c)
	}
	return c
}

// TestHookAssemble, when non-nil, sees every assembled Code next to its
// un-allocated linearization and chooses which Assemble returns. The
// allocation oracles live in other packages' tests, hence the exported
// name; set only by tests, and only while no compilation is running.
var TestHookAssemble func(raw, c *Code) *Code

// linearize lays a control flow graph out as an instruction stream over
// the graph's virtual registers: dead pure instructions are dropped,
// common paths are laid out first, and uncommon (failure) paths are
// moved out of line after the main body — the layout the paper's
// compiler used for failure blocks. It also returns the node each
// instruction was encoded from (nil for the jumps layout inserts).
func linearize(g *ir.Graph) (*Code, []*ir.Node) {
	c := &Code{Name: g.Name, NumRegs: g.NumRegs, VirtRegs: g.NumRegs, NumParams: g.NumParams, Bytes: SizePrologue}
	dead := deadNodes(g)
	pc := map[*ir.Node]int{}
	var src []*ir.Node

	var common, deferred []*ir.Node
	scheduled := map[*ir.Node]bool{}
	schedule := func(n *ir.Node, uncommon bool) {
		if n == nil || scheduled[n] {
			return
		}
		scheduled[n] = true
		if uncommon {
			deferred = append(deferred, n)
		} else {
			common = append(common, n)
		}
	}
	schedule(g.Entry, false)

	emit := func(n *ir.Node) {
		c.add(c.encode(n))
		src = append(src, n)
	}
	jump := func(p int) {
		c.add(Instr{Op: opJmp, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, T: int32(p), F: -1})
		src = append(src, nil)
	}

	// emitNode lays out n and what follows it, until control reaches a
	// placed node (an explicit jump goes there) or leaves.
	emitNode := func(n *ir.Node) {
		for ; n != nil; n = succ(n, 0) {
			if p, done := pc[n]; done {
				jump(p)
				return
			}
			pc[n] = len(c.Instrs)
			if n.Op == ir.Start || n.Op == ir.Merge || n.Op == ir.LoopHead || dead[n] {
				continue // labels and dead pure instructions emit no code
			}
			emit(n)
			// The first successor is laid out next; the second (a
			// branch's not-taken side, an overflow path) and a landing
			// are targets, deferred out of line when uncommon. An op
			// that stops control never falls through: nothing is laid
			// out after it but a first successor not placed yet.
			if s := succ(n, 1); s != nil {
				schedule(s, s.Uncommon)
			}
			schedule(n.Landing, true)
			if _, done := pc[succ(n, 0)]; opRoles[n.Op].stop && (done || succ(n, 0) == nil) {
				return
			}
		}
	}

	for len(common) > 0 || len(deferred) > 0 {
		var n *ir.Node
		if len(common) > 0 {
			n, common = common[0], common[1:]
		} else {
			n, deferred = deferred[0], deferred[1:]
		}
		if _, done := pc[n]; !done {
			emitNode(n)
		}
	}

	// Every node is placed: resolve the pc slots of what was encoded.
	pc[nil] = -1 // no successor, no target
	for i, n := range src {
		if n == nil {
			continue // a jump, emitted resolved
		}
		in, ro := &c.Instrs[i], &opRoles[n.Op]
		switch ro.T {
		case rEdge:
			in.T = int32(pc[succ(n, 0)])
		case rLanding:
			in.T = int32(pc[n.Landing])
		}
		if ro.F == rEdge {
			in.F = int32(pc[succ(n, 1)])
		}
	}
	return c, src
}

func succ(n *ir.Node, i int) *ir.Node {
	if i < len(n.Succ) {
		return n.Succ[i]
	}
	return nil
}

// encode packs node n into an instruction, putting what its roles reach
// through Aux and T into the cold tables; its pcs are left -1.
func (c *Code) encode(n *ir.Node) Instr {
	ro := &opRoles[n.Op]
	in := Instr{Op: n.Op, Dst: n.Dst, A: n.A, B: n.B, T: -1, F: -1,
		Mode: flag(n.Checked, modeChecked) | flag(n.Direct, modeDirect) | flag(n.Bounds, modeBounds)}
	switch n.Op {
	case ir.StoreE:
		in.Dst = n.C
	case ir.PrimOp:
		in.A = n.FailBlk
	case ir.Arith:
		in.Mode |= uint8(n.AOp)
	case ir.CmpBr:
		in.Mode |= uint8(n.COp)
	case ir.Const:
		if v := n.Val.I(); n.Val.K() == obj.KInt && v == int64(int32(v)) {
			in.Mode, in.F = modeImm, int32(v) // run without a load from consts
		}
	}
	switch ro.Aux {
	case rImm:
		in.Aux = int32(n.Index)
	case rConst:
		in.Aux = push(&c.consts, n.Val)
	case rSite:
		in.Aux = push(&c.sites, site{n.Sel, span{int32(len(c.args)), int32(len(n.Args))}})
		c.args = append(c.args, n.Args...)
	case rMap:
		in.Aux = push(&c.maps, n.TestMap)
	case rBlock:
		in.Aux = push(&c.blocks, blockSite{n.Blk, span{int32(len(c.caps)), int32(len(n.Caps))}})
		c.caps = append(c.caps, n.Caps...)
		c.hasLandings = c.hasLandings || n.Landing != nil
	case rName:
		in.Aux = push(&c.names, n.Sel)
	}
	switch ro.T {
	case rName:
		in.T = push(&c.names, n.Sel)
	case rCallee:
		in.T = push(&c.callees, n.Callee)
	}
	return in
}

// push appends v to a cold table and returns its index.
func push[T any](table *[]T, v T) int32 {
	*table = append(*table, v)
	return int32(len(*table) - 1)
}

// constOf is the value a Const loads.
func (c *Code) constOf(in *Instr) obj.Value {
	if in.Mode&modeImm != 0 {
		return obj.Int(int64(in.F))
	}
	return c.consts[in.Aux]
}

// flag is bit when on.
func flag(on bool, bit uint8) uint8 {
	if on {
		return bit
	}
	return 0
}

// add appends an encoded instruction, charging its cost and bytes. No
// pc or cost, Fuse's sums included (maxAbsorbed), outgrows 32 bits.
func (c *Code) add(in Instr) {
	cost := c.staticCost(&in)
	if cost > math.MaxInt32/2 || len(c.Instrs) == math.MaxInt32 {
		panic(fmt.Sprintf("vm: %s is too large to encode", c.Name))
	}
	in.Cost, in.N = int32(cost), 1
	c.Instrs = append(c.Instrs, in)
	c.Bytes += c.instrSize(&in)
}

// regs calls f on each of in's register operands: those it reads or
// takes the address of (slots A, B and Dst as its op's roles say, then
// its site's arguments or its closure site's captures), and last the one
// it writes (def). Absent ones (NoReg) are visited too, so two renamings
// of one instruction line up operand by operand.
func (c *Code) regs(in *Instr, f func(r *ir.Reg, def bool)) {
	ro, slots := &opRoles[in.Op], [...]*ir.Reg{&in.A, &in.B, &in.Dst}
	for i, r := range [...]role{ro.A, ro.B, ro.Dst} {
		if r == rUse {
			f(slots[i], false)
		}
	}
	var args []ir.Reg
	switch ro.Aux {
	case rSite:
		args = c.argRegs(&c.sites[in.Aux])
	case rBlock:
		caps := c.captures(&c.blocks[in.Aux])
		for i := range caps {
			if !caps[i].FromUp {
				f(&caps[i].Src, false)
			}
		}
	}
	for i := range args {
		f(&args[i], false)
	}
	if ro.Dst == rDef {
		f(&in.Dst, true)
	}
}

// operands appends the registers in reads to dst (see regs) and returns
// them with the register it writes (NoReg: none).
func (c *Code) operands(dst []ir.Reg, in *Instr) ([]ir.Reg, ir.Reg) {
	def := ir.NoReg
	c.regs(in, func(r *ir.Reg, isDef bool) {
		if isDef {
			def = *r
		} else {
			dst = append(dst, *r)
		}
	})
	return dst, def
}

// succs returns the pcs control may reach from in at pc — the next one
// unless its op stops control, then its edges — as s0 and s1 (-1: none),
// and whether in ends its basic block.
func (in *Instr) succs(pc int) (s0, s1 int, ends bool) {
	ro, s := &opRoles[in.Op], make([]int, 0, 4)
	if !ro.stop {
		s = append(s, pc+1)
	}
	if ro.T == rEdge && in.T >= 0 {
		s = append(s, int(in.T))
	}
	if ro.F == rEdge && in.F >= 0 {
		s = append(s, int(in.F))
	}
	s = append(s, -1, -1)
	return s[0], s[1], ro.stop || s[1] >= 0
}

// targets calls f on each of in's pc slots that holds a pc.
func (in *Instr) targets(f func(pc *int32)) {
	ro := &opRoles[in.Op]
	if (ro.T == rEdge || ro.T == rLanding) && in.T >= 0 {
		f(&in.T)
	}
	if ro.F == rEdge && in.F >= 0 {
		f(&in.F)
	}
}

// renameRegs sends every register operand through m (NoReg stays).
func (c *Code) renameRegs(m func(ir.Reg) ir.Reg) {
	for i := range c.Instrs {
		c.regs(&c.Instrs[i], func(r *ir.Reg, _ bool) {
			if *r != ir.NoReg {
				*r = m(*r)
			}
		})
	}
}

// clone returns a copy of c whose instructions and cold tables can be
// rewritten without touching c's.
func (c *Code) clone() *Code {
	return &Code{
		Name: c.Name, Instrs: slices.Clone(c.Instrs), NumRegs: c.NumRegs, Bytes: c.Bytes,
		NumParams: c.NumParams, VirtRegs: c.VirtRegs, IsBlock: c.IsBlock, hasLandings: c.hasLandings,
		consts: c.consts, sites: c.sites, maps: c.maps, blocks: c.blocks,
		callees: c.callees, names: c.names, args: slices.Clone(c.args), caps: slices.Clone(c.caps),
		tails: slices.Clone(c.tails), pcs: c.pcs,
	}
}

// BlockCaptures calls f with the block and capture list of every MkBlk
// in the code, in stream order.
func (c *Code) BlockCaptures(f func(blk *ast.Block, caps []ir.Capture)) {
	for i := range c.blocks {
		f(c.blocks[i].Blk, c.captures(&c.blocks[i]))
	}
}

// deadNodes finds pure instructions whose destination is never read —
// chiefly the boolean constants materialized for branches whose
// consumers were inlined away, and moves made redundant by inlining.
func deadNodes(g *ir.Graph) map[*ir.Node]bool {
	reach := g.Reachable()
	dead := map[*ir.Node]bool{}
	for pass := 0; pass < 10; pass++ {
		reads := map[ir.Reg]bool{}
		for _, n := range reach {
			if dead[n] {
				continue
			}
			for _, r := range []ir.Reg{n.A, n.B, n.C, n.FailBlk} {
				if r != ir.NoReg {
					reads[r] = true
				}
			}
			for _, r := range n.Args {
				reads[r] = true
			}
			for _, cap := range n.Caps {
				if !cap.FromUp {
					reads[cap.Src] = true
				}
			}
		}
		changed := false
		for _, n := range reach {
			if dead[n] || n.Dst == ir.NoReg || reads[n.Dst] {
				continue
			}
			switch n.Op {
			case ir.Const, ir.Move, ir.LoadF, ir.LoadE, ir.VecLen, ir.CloneOp, ir.MkBlk, ir.LoadUp:
				dead[n] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dead
}

// Disasm renders the code for tests and cmd/selfc. An entry of fused
// code that stands for more than one modelled instruction — its
// constituents and the self-moves they absorbed — says for how many.
func (c *Code) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "code %s: %d instrs, %d regs (of %d virtual), %d bytes\n", c.Name, len(c.Instrs), c.NumRegs, c.VirtRegs, c.Bytes)
	for i := range c.Instrs {
		in := &c.Instrs[i]
		fmt.Fprintf(&b, "  %3d: %s", i, c.render(in))
		if in.N > 1 {
			fmt.Fprintf(&b, " ×%d", in.N)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// render is one instruction's Disasm text. A fused head renders its
// constituents, the head under its own op and the tails its T names.
func (c *Code) render(in *Instr) string {
	if base, tails := fusedHeadOp(in.Op); tails > 0 {
		head := *in
		head.Op = base
		parts := []string{c.render(&head)}
		for j := range tails {
			parts = append(parts, c.render(&c.tails[int(in.T)+j]))
		}
		return "fused{" + strings.Join(parts, "; ") + "}"
	}
	ro := &opRoles[in.Op]
	var s *site
	if ro.Aux == rSite {
		s = &c.sites[in.Aux]
	}
	switch in.Op {
	case opJmp:
		return fmt.Sprintf("jmp %d", in.T)
	case ir.Const:
		return fmt.Sprintf("r%d <- const %s", in.Dst, c.consts[in.Aux])
	case ir.Move:
		return fmt.Sprintf("r%d <- r%d", in.Dst, in.A)
	case ir.LoadF:
		return fmt.Sprintf("r%d <- r%d.f[%d]", in.Dst, in.A, in.Aux)
	case ir.StoreF:
		return fmt.Sprintf("r%d.f[%d] <- r%d", in.A, in.Aux, in.B)
	case ir.LoadE:
		return fmt.Sprintf("r%d <- r%d[r%d]", in.Dst, in.A, in.B)
	case ir.StoreE:
		return fmt.Sprintf("r%d[r%d] <- r%d", in.A, in.B, in.Dst)
	case ir.VecLen:
		return fmt.Sprintf("r%d <- len r%d", in.Dst, in.A)
	case ir.NewVec:
		return fmt.Sprintf("r%d <- newVec r%d fill r%d", in.Dst, in.A, in.B)
	case ir.CloneOp:
		return fmt.Sprintf("r%d <- clone r%d", in.Dst, in.A)
	case ir.Arith:
		if in.Checked() {
			return fmt.Sprintf("r%d <- r%d %s r%d ovfl->%d", in.Dst, in.A, in.AOp(), in.B, in.F)
		}
		return fmt.Sprintf("r%d <- r%d %s r%d", in.Dst, in.A, in.AOp(), in.B)
	case ir.CmpBr:
		return fmt.Sprintf("if r%d %s r%d ->%d else ->%d", in.A, in.COp(), in.B, in.T, in.F)
	case ir.TypeTest:
		return fmt.Sprintf("if r%d is %s ->%d else ->%d", in.A, c.maps[in.Aux].Name, in.T, in.F)
	case ir.Send:
		kind := "send"
		if in.Direct() {
			kind = "send(static)"
		}
		return fmt.Sprintf("r%d <- %s %q %v", in.Dst, kind, s.Sel, c.argRegs(s))
	case ir.Call:
		return fmt.Sprintf("r%d <- call %s %v", in.Dst, c.callees[in.T], c.argRegs(s))
	case ir.PrimOp:
		return fmt.Sprintf("r%d <- prim %q %v", in.Dst, s.Sel, c.argRegs(s))
	case ir.MkBlk:
		return fmt.Sprintf("r%d <- mkblk (%d caps)", in.Dst, c.blocks[in.Aux].caps.n)
	case ir.Fail:
		return fmt.Sprintf("fail %q", c.names[in.Aux])
	case ir.Return:
		return fmt.Sprintf("ret r%d", in.A)
	case ir.NLReturn:
		return fmt.Sprintf("nlret r%d", in.A)
	case ir.LoadUp:
		return fmt.Sprintf("r%d <- up %q", in.Dst, c.names[in.T])
	case ir.StoreUp:
		return fmt.Sprintf("up %q <- r%d", c.names[in.T], in.A)
	}
	return in.Op.String()
}
