package core

import (
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/types"
)

// compileLoop compiles "[cond] whileTrue: [body]" (the sole looping
// protocol; upTo:Do: and friends inline down to it) using iterative
// type analysis (§5.1): the body is repeatedly recompiled until the
// loop-tail type bindings reach a fix-point with the loop head, with
// the loop-head generalization rule to converge quickly. With
// multi-version loops enabled, a merge-typed fix-point is projected
// onto a common-case version (no type tests) and a general version,
// and every back edge is wired to a compatible head (§5.2).
func (cp *compilation) compileLoop(f *flow, condT, bodyT types.Blk, negate bool, sc *scope) ([]*flow, ir.Reg) {
	origin := cp.nextMergeID()

	// Only registers live at loop entry participate in the head/tail
	// type comparisons: temporaries created inside the body are dead
	// across the back edge.
	loopRegs := append([]ir.Reg(nil), cp.tracked...)

	// For the §7 comparison-facts extension, log which registers the
	// loop body writes: facts and length mappings between unwritten
	// (loop-invariant) registers survive into the loop versions.
	var writes map[ir.Reg]bool
	if cp.cfg.ComparisonFacts {
		writes = map[ir.Reg]bool{}
		cp.writeLogs = append(cp.writeLogs, writes)
		defer func() { cp.writeLogs = cp.writeLogs[:len(cp.writeLogs)-1] }()
	}

	// Phase 1: find the loop-head type bindings.
	headEnv := f.env.clone()
	if cp.cfg.IterativeLoops {
		converged := false
		for it := 0; it < cp.cfg.MaxLoopIterations; it++ {
			cp.stats.LoopIterations++
			tails := cp.simulateLoopBody(headEnv, condT, bodyT, negate)
			newHead := headEnv.clone()
			changed := false
			for _, te := range tails {
				for _, r := range loopRegs {
					g := types.LoopGeneralize(newHead.get(r), te.get(r), origin, cp.intMap())
					if !types.Equal(g, newHead.get(r)) {
						newHead.set(r, g)
						changed = true
					}
				}
			}
			if !changed {
				converged = true
				break
			}
			headEnv = newHead
		}
		if !converged {
			headEnv = cp.pessimize(f.env, condT, bodyT, negate, loopRegs)
		}
	} else {
		// Pessimistic type analysis (§5): every local assigned within
		// the loop is of unknown type — the original SELF compiler.
		headEnv = cp.pessimize(f.env, condT, bodyT, negate, loopRegs)
	}

	// Phase 2: choose the loop versions.
	versions := []*env{headEnv}
	if cp.cfg.MultiVersionLoops && !cp.cfg.StaticIdeal {
		if common, ok := cp.projectCommon(headEnv, loopRegs); ok {
			// Fold the common version's tail types into the general
			// head so every back edge of either version finds a
			// containing head.
			cp.stats.LoopIterations++
			for _, te := range cp.simulateLoopBody(common, condT, bodyT, negate) {
				for _, r := range loopRegs {
					headEnv.set(r, types.LoopGeneralize(headEnv.get(r), te.get(r), origin, cp.intMap()))
				}
			}
			versions = []*env{common, headEnv}
		}
	}

	// Phase 3: build the loop(s) for real.
	heads := make([]*ir.Node, len(versions))
	for i := range versions {
		heads[i] = cp.g.NewNode(ir.LoopHead)
		heads[i].Version = i + 1
		if len(versions) > 1 && i == 0 {
			heads[i].Note = "common-case version"
		}
	}
	cp.stats.LoopVersions += len(versions)

	// Route the entry edge to the first version that contains the
	// incoming types (the general version always does).
	entryIdx := len(versions) - 1
	for i, venv := range versions {
		if cp.envContains(venv, f.env, loopRegs) {
			entryIdx = i
			break
		}
	}
	cp.conformBlocks(f, versions[entryIdx], loopRegs)
	setSucc(f.from, f.slot, heads[entryIdx])

	var exits []*flow
	for i, venv := range versions {
		hf := &flow{from: heads[i], slot: 0, env: venv.clone(), uncommon: f.uncommon}
		cp.seedInvariantFacts(hf, f, writes)
		tails, vexits := cp.buildLoopBody(hf, condT, bodyT, negate)
		exits = append(exits, vexits...)
		for _, tf := range tails {
			tgt := -1
			for j, henv := range versions {
				if cp.envCompatible(henv, tf.env, loopRegs) {
					tgt = j
					break
				}
			}
			if tgt == -1 {
				// The fix-point should make the general version
				// compatible; fall back to it regardless (its types
				// contain the tail's by construction of phase 1).
				tgt = len(versions) - 1
			}
			cp.conformBlocks(tf, versions[tgt], loopRegs)
			setSucc(tf.from, tf.slot, heads[tgt])
		}
	}

	// A loop evaluates to nil.
	if len(exits) == 0 {
		// The loop provably never exits; downstream code is dead.
		return nil, cp.g.NewReg()
	}
	exits = cp.mergePolicy(exits, ir.NoReg)
	return cp.compileConst(exits, obj.Nil())
}

// seedInvariantFacts carries entry-path knowledge whose registers the
// loop body provably never writes into a loop version's head flow.
func (cp *compilation) seedInvariantFacts(hf, entry *flow, writes map[ir.Reg]bool) {
	if writes == nil {
		return
	}
	for vec, ln := range entry.lens {
		if !writes[vec] && !writes[ln] {
			if hf.lens == nil {
				hf.lens = map[ir.Reg]ir.Reg{}
			}
			hf.lens[vec] = ln
		}
	}
	for k := range entry.facts {
		if !writes[k.a] && !writes[k.b] {
			hf.addFact(k.a, k.b)
		}
	}
	for dst, src := range entry.copies {
		if !writes[dst] && !writes[src] {
			hf.noteCopy(dst, src)
		}
	}
}

// conformBlocks materializes any block literal whose type the target
// environment dilutes (the head will treat the register dynamically).
func (cp *compilation) conformBlocks(f *flow, target *env, regs []ir.Reg) {
	for _, r := range regs {
		t := f.env.get(r)
		if _, ok := t.(types.Blk); !ok {
			continue
		}
		if !types.Equal(target.get(r), t) {
			cp.materialize(f, r)
		}
	}
}

func (cp *compilation) nextMergeID() int {
	cp.mergeSeq++
	return cp.mergeSeq
}

// simulateLoopBody compiles the loop once from headEnv into a detached
// subgraph — the recompilation step of iterative type analysis — and
// returns the type environments at the loop tail. The nodes built here
// stay unreachable; only the type information survives (and the
// compile-time cost, which the paper pays too).
func (cp *compilation) simulateLoopBody(headEnv *env, condT, bodyT types.Blk, negate bool) []*env {
	savedRegs := cp.g.NumRegs
	savedTracked := len(cp.tracked)

	fake := cp.g.NewNode(ir.Merge)
	hf := &flow{from: fake, slot: 0, env: headEnv.clone()}
	tails, _ := cp.buildLoopBody(hf, condT, bodyT, negate)

	// Cap the environments to the registers tracked before the
	// simulation, so scratch registers don't leak.
	cp.g.NumRegs = savedRegs
	cp.trackRelease(savedTracked)
	out := make([]*env, len(tails))
	for i, tf := range tails {
		out[i] = tf.env.restrict(cp.trackedMask)
	}
	return out
}

// buildLoopBody compiles cond and body once from hf. Returned tails are
// the back-edge flows (their successor slot is still open); exits are
// the flows leaving the loop.
func (cp *compilation) buildLoopBody(hf *flow, condT, bodyT types.Blk, negate bool) (tails, exits []*flow) {
	condFlows, condReg := cp.inlineBlock(hf, condT, nil, "value")
	var bodyEntries []*flow
	for _, cf := range condFlows {
		enter, leave := cp.branchOnBool(cf, condReg)
		if negate {
			enter, leave = leave, enter
		}
		bodyEntries = append(bodyEntries, enter...)
		exits = append(exits, leave...)
	}
	bodyEntries = cp.mergePolicy(bodyEntries, ir.NoReg)
	for _, bf := range bodyEntries {
		outs, _ := cp.inlineBlock(bf, bodyT, nil, "value")
		tails = append(tails, outs...)
	}
	tails = cp.mergePolicy(tails, ir.NoReg)
	return tails, exits
}

// branchOnBool routes a flow by the boolean in reg: constant booleans
// cost nothing, otherwise run-time tests are emitted (true, then
// false, with a failure for non-booleans).
func (cp *compilation) branchOnBool(f *flow, reg ir.Reg) (whenTrue, whenFalse []*flow) {
	t := f.env.get(reg)
	if v, ok := types.Constant(t); ok {
		if v.K() == obj.KObj && v.Obj() == cp.w.TrueObj {
			return []*flow{f}, nil
		}
		if v.K() == obj.KObj && v.Obj() == cp.w.FalseObj {
			return nil, []*flow{f}
		}
	}
	passT, rest := cp.emitTypeTest(f, reg, cp.w.TrueObj.Map)
	if passT != nil {
		whenTrue = append(whenTrue, passT)
	}
	if rest != nil {
		wasUncommon := rest.uncommon
		passF, fail := cp.emitTypeTest(rest, reg, cp.w.FalseObj.Map)
		if passF != nil {
			passF.uncommon = wasUncommon && passF.uncommon
			whenFalse = append(whenFalse, passF)
		}
		if fail != nil {
			n := cp.g.NewNode(ir.Fail)
			n.Sel = "loop condition must be a boolean"
			n.Uncommon = true
			cp.emit(fail, n)
		}
	}
	return whenTrue, whenFalse
}

// pessimize rebinds every local whose value can change within the loop
// to the unknown type (§5's "pessimistic type analysis"). The assigned
// set is discovered semantically: compile the body once (discarded)
// and widen every register whose tail type escapes its entry type,
// iterating because widening one variable can expose assignments to
// another.
func (cp *compilation) pessimize(e *env, condT, bodyT types.Blk, negate bool, loopRegs []ir.Reg) *env {
	out := e.clone()
	// Without type analysis every assignment already binds unknown, so
	// one discovery pass is complete; with it, widening one variable
	// can expose assignments hidden behind folding, so iterate.
	maxPasses := 5
	if !cp.cfg.TypeAnalysis {
		maxPasses = 1
	}
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		tails := cp.simulateLoopBody(out, condT, bodyT, negate)
		for _, r := range loopRegs {
			if _, isUnknown := out.get(r).(types.Unknown); isUnknown {
				continue
			}
			for _, te := range tails {
				if !types.Contains(out.get(r), te.get(r), cp.intMap()) {
					out.set(r, types.Unknown{})
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	return out
}

// projectCommon builds the common-case projection of a merge-typed
// loop-head environment: each merge type is replaced by its
// best class-typed constituent. Reports false when the head has no
// merge types (a single version suffices).
func (cp *compilation) projectCommon(headEnv *env, loopRegs []ir.Reg) (*env, bool) {
	out := headEnv.clone()
	found := false
	for _, r := range loopRegs {
		m, ok := headEnv.get(r).(types.Merge)
		if !ok {
			continue
		}
		var best types.Type
		for _, e := range m.Elems {
			if types.MapOf(e, cp.intMap()) != nil {
				best = e
				break
			}
		}
		if best != nil {
			out.set(r, best)
			found = true
		}
	}
	return out, found
}

// envContains reports whether head's types contain e's on every
// tracked register.
func (cp *compilation) envContains(head, e *env, loopRegs []ir.Reg) bool {
	for _, r := range loopRegs {
		if !types.Contains(head.get(r), e.get(r), cp.intMap()) {
			return false
		}
	}
	return true
}

// envCompatible applies the §5.2 head/tail compatibility rule
// pointwise.
func (cp *compilation) envCompatible(head, tail *env, loopRegs []ir.Reg) bool {
	for _, r := range loopRegs {
		if !types.Compatible(head.get(r), tail.get(r), cp.intMap()) {
			return false
		}
	}
	return true
}
