package vm

// Lazy basic-block versioning (internal/bbv) — the VM half: the
// abstract walk that materializes a version by interpreting one
// region's instructions over type contexts instead of values, and the
// run-loop helpers that anchor, advance and account the version state.
//
// The region model matches what the interpreter executes: a version
// covers the linear instruction range from its entry pc to the first
// control transfer (jump, compare-branch, type test, or a
// return/fault terminator). Checked arithmetic's overflow branch is
// deliberately NOT a region terminator — the walk assumes the
// fallthrough (the result is a small integer), and a run-time overflow
// transfer leaves the version state desynchronized, which the
// `ver.BranchPC == pc` check at the next branch detects and repairs by
// re-anchoring with the empty context. The assembler lays failure
// paths out of line after the main body, so control can never travel
// from an overflow target back to a region's terminating branch
// without crossing another branch first.

import (
	"selfgo/internal/bbv"
	"selfgo/internal/ir"
)

// bbvVersion and bbvElideNone let vm.go hold version state without
// importing the bbv package in the interpreter file.
type bbvVersion = bbv.Version

const bbvElideNone = bbv.ElideNone

// EnableBBV attaches a lazy-versioning store to freshly assembled
// code. Must be called before the Code is published to other VMs; the
// pipeline does it for any strategy other than split, after Fuse:
// versions anchor on the entry pcs of the stream the code runs, fused
// or not.
func EnableBBV(c *Code, maxVers int) {
	c.bbv = bbv.NewState(maxVers)
}

// BBVState exposes the code's version store (nil under the split
// strategy); tests assert cap behavior through it.
func (c *Code) BBVState() *bbv.State { return c.bbv }

// bbvAnchor resolves the version for a method entry (pc 0). Customized
// code is only ever invoked on receivers of its origin map, so the
// entry context carries that fact for free — the BBV analogue of the
// paper's customization. The resolution is memoized on the store;
// steady-state invocation is one atomic load plus a generation check.
func (vm *VM) bbvAnchor(code *Code) *bbv.Version {
	st := code.bbv
	gen := vm.World.ShapeGen.Load()
	if v := st.Entry(); v != nil && v.Fresh(gen) {
		return v
	}
	ctx := bbv.EmptyContext()
	if rm := code.Origin.RMap; rm != nil {
		ctx = ctx.With(int32(RegSelf), rm, false, bbv.NoShapeGen)
	}
	v := vm.bbvResolve(code, 0, ctx, gen)
	st.SetEntry(v)
	return v
}

// bbvResolve enters (pc, ctx) through the code's version store,
// folding materialization and cap accounting into this VM's RunStats.
func (vm *VM) bbvResolve(code *Code, pc int, ctx bbv.Context, gen uint64) *bbv.Version {
	v, materialized, capped := code.bbv.Enter(pc, ctx, gen, func(nv *bbv.Version) {
		vm.bbvMaterialize(code, nv)
	})
	if materialized {
		vm.Stats.BBVVersions++
		vm.Stats.BBVVersionBytes += v.Bytes
	}
	if capped {
		vm.Stats.BBVCapHits++
	}
	return v
}

// bbvEdge advances the version state across the branch at pc: taken
// says which edge, target where it leads. The steady state is one
// memoized-successor load; the first traversal of an edge resolves
// (and possibly materializes) the successor under the branch's
// outgoing context — laziness exactly at edge granularity.
func (vm *VM) bbvEdge(code *Code, ver *bbv.Version, pc int, taken bool, target int) *bbv.Version {
	gen := vm.World.ShapeGen.Load()
	if ver == nil || ver.BranchPC != pc {
		// Control arrived off the versioned walk (an overflow branch,
		// a non-local-return landing): re-anchor with no facts.
		return vm.bbvResolve(code, target, bbv.EmptyContext(), gen)
	}
	if s := ver.Succ(taken); s != nil && s.Fresh(gen) {
		return s
	}
	s := vm.bbvResolve(code, target, ver.Out(taken), gen)
	ver.SetSucc(taken, s)
	return s
}

// bbvMaterialize is the abstract transfer function: walk the region
// from v.Entry over v.Ctx, deriving each instruction's effect on the
// register→map facts, the modelled bytes a lazy code generator would
// emit for exactly this region, and — when the region ends in a type
// test an accumulated fact already proves — the elision.
//
// The walk visits a fused entry's constituents in order (fusion never
// puts a branch target inside a group, so versions key on entry pcs),
// and a fused branch ends the region at its entry's pc. The self-moves
// an entry absorbed transfer no fact, but their bytes are counted, so a
// version's Bytes are the unfused stream's.
func (vm *VM) bbvMaterialize(code *Code, v *bbv.Version) {
	w := vm.World
	ctx := v.Ctx
	var bytes int64
	if v.Entry == 0 {
		bytes = SizePrologue
	}

	finish := func(branchPC int, elide bbv.Elide, outT, outF bbv.Context) {
		v.BranchPC = branchPC
		v.Elide = elide
		v.OutT, v.OutF = outT, outF
		v.Bytes = bytes
		// The version depends on shape facts exactly as far as its
		// outgoing contexts (which include any elision-feeding fact)
		// do; min over both edges keeps the guard at least as strict
		// as any fact it may consume.
		v.ShapeGen = outT.Generation()
		if g := outF.Generation(); g < v.ShapeGen {
			v.ShapeGen = g
		}
	}

	for pc := v.Entry; pc >= 0 && pc < len(code.Instrs); pc++ {
		// in is each constituent in turn, the head with its own Op and its
		// own share of N, then the tails; N-1 is what the constituent
		// absorbed.
		head := code.Instrs[pc]
		head.N -= uint16(code.tailN(&head))
		base, tails := fusedHeadOp(head.Op)
		head.Op = base
		for j := 0; j <= tails; j++ {
			in := &head
			if j > 0 {
				in = &code.tails[int(head.T)+j-1]
			}
			bytes += int64(in.N-1) * SizeSimple
			switch in.Op {
			case opJmp:
				bytes += SizeSimple
				finish(pc, bbv.ElideNone, ctx, bbv.Context{})
				return
			case ir.CmpBr:
				bytes += SizeBranch
				finish(pc, bbv.ElideNone, ctx, ctx)
				return
			case ir.TypeTest:
				elide := bbv.ElideNone
				f, m := ctx.Get(int32(in.A)), code.maps[in.Aux]
				switch {
				case f == nil:
					bytes += SizeTypeTest
				case f.Map == m && f.Shape:
					elide = bbv.ElideTrueShape
				case f.Map == m:
					elide = bbv.ElideTrue
				case f.Shape:
					elide = bbv.ElideFalseShape
				default:
					elide = bbv.ElideFalse
				}
				// The taken edge proves the fact; keep an existing fact's
				// provenance (a shape-proven fact stays guarded), otherwise
				// record it as run-time verified — when an elision's stale
				// guard forces the real test, this is the edge it verified.
				outT := ctx
				if f == nil || f.Map != m {
					outT = ctx.With(int32(in.A), m, false, bbv.NoShapeGen)
				}
				finish(pc, elide, outT, ctx)
				return
			case ir.Return, ir.NLReturn, ir.Fail:
				bytes += int64(code.instrSize(in))
				finish(-1, bbv.ElideNone, bbv.Context{}, bbv.Context{})
				return
			case ir.Const:
				ctx = ctx.With(int32(in.Dst), w.MapOf(code.consts[in.Aux]), false, bbv.NoShapeGen)
			case ir.Move:
				ctx = bbvCopyFact(ctx, in.Dst, in.A)
			case ir.CloneOp:
				// A clone keeps its source's map (immediates clone to
				// themselves), so the fact transfers.
				ctx = bbvCopyFact(ctx, in.Dst, in.A)
			case ir.Arith:
				// Fallthrough assumed: the result is a small integer. A
				// run-time overflow transfer desynchronizes and re-anchors
				// at the next branch (see the file comment).
				ctx = ctx.With(int32(in.Dst), w.IntMap, false, bbv.NoShapeGen)
			case ir.VecLen:
				ctx = ctx.With(int32(in.Dst), w.IntMap, false, bbv.NoShapeGen)
			case ir.NewVec:
				ctx = ctx.With(int32(in.Dst), w.VecMap, false, bbv.NoShapeGen)
			case ir.MkBlk:
				ctx = ctx.With(int32(in.Dst), w.BlockMap, false, bbv.NoShapeGen)
			case ir.LoadF:
				// The typed-shape payoff: a load from a receiver whose map
				// the context knows contributes the slot's tag as a fact
				// without any test. Generation read BEFORE the tag — see
				// World.NoteFieldStore for why this order can never stamp
				// a current generation on a stale tag.
				set := false
				if f := ctx.Get(int32(in.A)); f != nil {
					rg := w.ShapeGen.Load()
					if tag := w.SlotTypeTag(f.Map, int(in.Aux)); tag != nil {
						ctx = ctx.With(int32(in.Dst), tag, true, rg)
						set = true
					}
				}
				if !set {
					ctx = ctx.Without(int32(in.Dst))
				}
			default: // what else writes a register leaves it unknown
				if opRoles[in.Op].Dst == rDef && in.Dst != ir.NoReg {
					ctx = ctx.Without(int32(in.Dst))
				}
			}
			bytes += int64(code.instrSize(in))
		}
	}
	finish(-1, bbv.ElideNone, bbv.Context{}, bbv.Context{})
}

// bbvCopyFact transfers src's fact (with its provenance) to dst.
func bbvCopyFact(ctx bbv.Context, dst, src ir.Reg) bbv.Context {
	if f := ctx.Get(int32(src)); f != nil {
		return ctx.With(int32(dst), f.Map, f.Shape, ctx.Generation())
	}
	return ctx.Without(int32(dst))
}

// bbvElide executes an elided type test: back out the test's own
// precharged cost (exactly like uncharge — splitting would never have
// emitted the test; self-moves the entry absorbed did run, and keep
// their charge), account the elision by provenance, and report
// which edge the proof takes. Shape-kind elisions are guarded by the
// current generation at every execution; a stale guard returns false
// and the caller performs the real test.
func (vm *VM) bbvElide(st *RunStats, ver *bbv.Version) (taken, ok bool) {
	shape := ver.Elide == bbv.ElideTrueShape || ver.Elide == bbv.ElideFalseShape
	if shape && vm.World.ShapeGen.Load() != ver.ShapeGen {
		return false, false
	}
	st.Instrs--
	st.Cycles -= CostTypeTest + vm.InstrExtra
	if shape {
		st.BBVElidedShape++
	} else {
		st.BBVElidedCtx++
	}
	return ver.Elide == bbv.ElideTrue || ver.Elide == bbv.ElideTrueShape, true
}
