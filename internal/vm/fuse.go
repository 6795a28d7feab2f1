package vm

import (
	"math"

	"selfgo/internal/ir"
)

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

// fusions lists the ops of every superinstruction's constituents, by
// fused opcode.
var fusions = [...][]ir.Op{
	opMoveMove - opMoveMove:        {ir.Move, ir.Move},
	opConstArith - opMoveMove:      {ir.Const, ir.Arith},
	opLoadFArith - opMoveMove:      {ir.LoadF, ir.Arith},
	opLoadEArith - opMoveMove:      {ir.LoadE, ir.Arith},
	opArithCmpBr - opMoveMove:      {ir.Arith, ir.CmpBr},
	opArithJmp - opMoveMove:        {ir.Arith, opJmp},
	opConstArithCmpBr - opMoveMove: {ir.Const, ir.Arith, ir.CmpBr},
	opVecLenCmpBr - opMoveMove:     {ir.VecLen, ir.CmpBr},
}

// fusedHeadOp maps a fused opcode to the Op of its head constituent and
// the number of tails that follow it in Code.tails (0 for ordinary
// opcodes, which map to themselves). The head instruction keeps that
// constituent's operand fields.
func fusedHeadOp(op ir.Op) (base ir.Op, tails int) {
	if i := int(op) - int(opMoveMove); i >= 0 && i < len(fusions) {
		return fusions[i][0], len(fusions[i]) - 1
	}
	return op, 0
}

// maxAbsorbed bounds the self-moves one instruction absorbs, so that a
// fused group of three still counts into Instr.N. A self-move past the
// bound stays in the stream, absorbing the run before it.
const maxAbsorbed = math.MaxUint16/3 - 1

// Fuse rewrites code in place, in two steps over one compaction.
//
// Absorption: register allocation coalesces copies, so much of what the
// compiler's inlined and split bodies move around arrives as self-moves
// (`r3 <- r3`). A self-move leaves the fused stream, and its N and Cost
// are added to the next instruction — a prefix charge, paid exactly
// when the move would have run, since the two are in one basic block:
// the next instruction must not be a branch target (a self-move that
// falls into one stays, as do the last instruction of the stream and
// one past maxAbsorbed in a row). A self-move that is a branch target
// hands that on: jumping to it meant running it and then its successor,
// which is what the successor with the prefix charge now does.
//
// Grouping then combines adjacent survivors into superinstructions: the
// head stays in the stream under a fused Op, and the constituents after
// it go, in order, to Code.tails, the head's T naming the first. A
// constituent other than the head must not be a branch target: jumping
// into the middle of a fused group would skip its earlier constituents.
// (Jumping AT the head is fine — the group executes exactly the
// instructions the target pc denoted.) Every pc slot (opRoles) is
// remapped from old to new pcs afterwards, tails' included (a fused
// checked Arith keeps its overflow target), and c.pcs records where
// each entry's own instruction sat before, so a backtrace reads the
// same with fusion on and off.
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
	for i := range ins {
		ins[i].targets(func(pc *int32) { target[*pc] = true })
	}

	// Survivors: keep[k] is the pc of the k-th instruction that stays.
	// Everything between two survivors is a self-move the later one
	// absorbs, target-ness included.
	keep := make([]int32, 0, n)
	run := 0
	for i := range ins {
		if in := &ins[i]; in.Op == ir.Move && in.Dst == in.A && i+1 < n && !target[i+1] && run < maxAbsorbed {
			target[i+1] = target[i]
			run++
			continue
		}
		keep = append(keep, int32(i))
		run = 0
	}

	newPC := make([]int32, n)
	out, pcs := make([]Instr, 0, len(keep)), make([]int32, 0, len(keep))
	var tails []Instr
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
			head.Op, head.T = op, int32(len(tails))
			for j := 1; j < g; j++ {
				t := take(k + j)
				head.N += t.N
				head.Cost += t.Cost
				tails = append(tails, t)
			}
		}
		out = append(out, head)
		k += g
	}

	for _, s := range [][]Instr{out, tails} {
		for i := range s {
			s[i].targets(func(pc *int32) { *pc = newPC[*pc] })
		}
	}
	c.Instrs, c.tails, c.pcs = out, tails, pcs
}

// tailN is how many modelled instructions in's tails stand for: its
// head's own instruction sits that far before the entry's last.
func (c *Code) tailN(in *Instr) int {
	_, tails := fusedHeadOp(in.Op)
	n := 0
	for j := range tails {
		n += int(c.tails[int(in.T)+j].N)
	}
	return n
}

// fuseAt reports the fused opcode and group length starting at survivor
// k (length 1: no fusion): the longest of fusions whose constituents'
// ops match, none but the first a branch target.
func fuseAt(ins []Instr, keep []int32, target []bool, k int) (op ir.Op, n int) {
	n = 1
	for f, parts := range fusions {
		match := len(parts) > n && k+len(parts) <= len(keep)
		for j := 0; match && j < len(parts); j++ {
			i := keep[k+j]
			match = ins[i].Op == parts[j] && (j == 0 || !target[i])
		}
		if match {
			op, n = opMoveMove+ir.Op(f), len(parts)
		}
	}
	return op, n
}
