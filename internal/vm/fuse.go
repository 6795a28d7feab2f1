package vm

import "selfgo/internal/ir"

// Superinstruction fusion: a peephole pass over the linearized stream
// that takes self-moves out of it and rewrites the hottest adjacent
// pairs/triples of what is left into single fused dispatches, in the
// spirit of the instruction-stream specialization of the
// basic-block-versioning line of work. Fusion changes HOST speed only:
// every modelled quantity is preserved exactly, because an entry
// charges the precomputed sum of the static cycle costs of everything
// it stands for, counts all of it in Instrs (Instr.N), and — when an
// early constituent faults or takes its overflow branch — uncharges the
// unexecuted tail (VM.uncharge). The unfused interpreter therefore
// remains a bit-exact differential oracle, selected with
// core.Config.NoSuperinstructions.
//
// Fused Op values live far outside the ir.Op range, adjacent to opJmp.
const (
	opMoveMove        ir.Op = 240 // Move; Move
	opConstArith      ir.Op = 241 // Const; Arith
	opLoadFArith      ir.Op = 242 // LoadF; Arith
	opLoadEArith      ir.Op = 243 // LoadE; Arith
	opArithCmpBr      ir.Op = 244 // Arith; CmpBr (compare-and-branch on a fresh result)
	opArithJmp        ir.Op = 245 // Arith; Jmp (increment-and-jump loop tail)
	opConstArithCmpBr ir.Op = 246 // Const; Arith; CmpBr
	opVecLenCmpBr     ir.Op = 247 // VecLen; CmpBr (the bounds check of an element access)
)

// fusedHeadOp maps a fused opcode to the Op of its head constituent
// (ok=false for ordinary opcodes). The head instruction keeps that
// constituent's operand fields.
func fusedHeadOp(op ir.Op) (ir.Op, bool) {
	switch op {
	case opMoveMove:
		return ir.Move, true
	case opConstArith, opConstArithCmpBr:
		return ir.Const, true
	case opVecLenCmpBr:
		return ir.VecLen, true
	case opLoadFArith:
		return ir.LoadF, true
	case opLoadEArith:
		return ir.LoadE, true
	case opArithCmpBr, opArithJmp:
		return ir.Arith, true
	}
	return 0, false
}

// Fuse rewrites code in place, in two steps over one compaction.
//
// Absorption: register allocation coalesces copies, so much of what the
// compiler's inlined and split bodies move around arrives as self-moves
// (`r3 <- r3`). A self-move leaves the fused stream, and its N and Cost
// are added to the next instruction — a prefix charge, paid exactly
// when the move would have run, since the two are in one basic block:
// the next instruction must not be a branch target (a self-move that
// falls into one stays, as does the last instruction of the stream). A
// self-move that is itself a branch target hands that on: jumping to it
// meant running it and then its successor, which is what the successor
// with the prefix charge now does.
//
// Grouping then combines adjacent survivors into superinstructions. A
// constituent other than the head must not be a branch target: jumping
// into the middle of a fused group would skip its earlier constituents.
// (Jumping AT the head is fine — the group executes exactly the
// instructions the target pc denoted.) Branch targets are remapped from
// old to new pcs afterwards, including targets held by interior
// constituents (a fused checked Arith keeps its overflow target), and
// c.pcs records where each entry's own instruction sat before, so a
// backtrace reads the same with fusion on and off.
//
// Modelled code Bytes are untouched: fusion is an interpreter-dispatch
// artifact, not a change to the modelled machine code.
func Fuse(c *Code) {
	ins := c.Instrs
	n := len(ins)
	if n < 2 || c.pcs != nil {
		return
	}

	// Collect branch-target pcs; an instruction that is a target can
	// only head a group, never sit inside one.
	target := make([]bool, n)
	mark := func(pc int) {
		if pc >= 0 && pc < n {
			target[pc] = true
		}
	}
	for i := range ins {
		in := &ins[i]
		switch in.Op {
		case opJmp:
			mark(in.T)
		case ir.CmpBr, ir.TypeTest:
			mark(in.T)
			mark(in.F)
		case ir.Arith:
			if in.Checked {
				mark(in.F)
			}
		case ir.MkBlk:
			if in.Resume >= 0 {
				mark(in.Resume)
			}
		}
	}

	// Survivors: keep[k] is the pc of the k-th instruction that stays.
	// Everything between two survivors is a self-move the later one
	// absorbs, target-ness included.
	keep := make([]int32, 0, n)
	for i := range ins {
		if in := &ins[i]; in.Op == ir.Move && in.Dst == in.A && i+1 < n && !target[i+1] {
			target[i+1] = target[i]
			continue
		}
		keep = append(keep, int32(i))
	}

	entries := 0
	for k := 0; k < len(keep); entries++ {
		_, g := fuseAt(ins, keep, target, k)
		k += g
	}
	newPC := make([]int32, n)
	out := make([]Instr, 0, entries)
	pcs := make([]int32, 0, entries)
	// take returns survivor k with what it absorbed charged to it, and
	// points the pcs it covers at the entry being built.
	prev := -1 // the last pc already covered
	take := func(k int) Instr {
		in := ins[keep[k]]
		for prev++; prev < int(keep[k]); prev++ {
			in.N += ins[prev].N
			in.Cost += ins[prev].Cost
			newPC[prev] = int32(len(out))
		}
		newPC[prev] = int32(len(out))
		return in
	}
	for k := 0; k < len(keep); {
		op, g := fuseAt(ins, keep, target, k)
		pcs = append(pcs, keep[k])
		head := take(k)
		if g > 1 {
			head.Op = op
			subs := make([]Instr, g-1)
			for j := range subs {
				subs[j] = take(k + 1 + j)
				head.N += subs[j].N
				head.Cost += subs[j].Cost
				if j > 0 {
					subs[j-1].Fused = &subs[j]
				}
			}
			head.Fused = &subs[0]
		}
		out = append(out, head)
		k += g
	}

	for i := range out {
		for in := &out[i]; in != nil; in = in.Fused {
			switch in.Op {
			case opJmp:
				in.T = int(newPC[in.T])
			case ir.CmpBr, ir.TypeTest:
				in.T = int(newPC[in.T])
				in.F = int(newPC[in.F])
			case ir.Arith, opArithCmpBr, opArithJmp:
				// Head Arith of a fused group keeps its own overflow
				// target, like a plain Arith.
				if in.Checked {
					in.F = int(newPC[in.F])
				}
			case ir.MkBlk:
				if in.Resume >= 0 {
					in.Resume = int(newPC[in.Resume])
				}
			}
		}
	}
	c.Instrs, c.pcs = out, pcs
}

// fuseAt reports the fused opcode and group length starting at survivor
// k (length 1: no fusion). Triples are preferred over pairs.
func fuseAt(ins []Instr, keep []int32, target []bool, k int) (ir.Op, int) {
	if k+1 >= len(keep) || target[keep[k+1]] {
		return 0, 1
	}
	a, b := ins[keep[k]].Op, ins[keep[k+1]].Op
	if a == ir.Const && b == ir.Arith &&
		k+2 < len(keep) && !target[keep[k+2]] && ins[keep[k+2]].Op == ir.CmpBr {
		return opConstArithCmpBr, 3
	}
	switch {
	case a == ir.Move && b == ir.Move:
		return opMoveMove, 2
	case a == ir.Const && b == ir.Arith:
		return opConstArith, 2
	case a == ir.LoadF && b == ir.Arith:
		return opLoadFArith, 2
	case a == ir.LoadE && b == ir.Arith:
		return opLoadEArith, 2
	case a == ir.Arith && b == ir.CmpBr:
		return opArithCmpBr, 2
	case a == ir.Arith && b == opJmp:
		return opArithJmp, 2
	case a == ir.VecLen && b == ir.CmpBr:
		return opVecLenCmpBr, 2
	}
	return 0, 1
}
