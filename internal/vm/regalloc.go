package vm

import (
	"math/bits"
	"slices"

	"selfgo/internal/ir"
)

// Register allocation: the compiler mints one virtual register per
// temporary of every inlined and split method body, so a big method
// names a thousand registers of which a handful are live at a time.
// allocRegs renames them onto a dense slot file, so an activation costs
// its live values. It is a pure renaming of the unfused stream — nothing
// is added, removed or reordered — so pcs, Instrs, Cycles, Bytes and
// backtraces cannot move. (DESIGN.md §6k has the full argument.)
//
// Block-level liveness feeds an interference relation: a written
// register conflicts with everything live after its instruction and —
// so that no handler clobbers an operand it has yet to read — with the
// instruction's operands, two cases apart. An Arith reads both operands
// before it writes, so its Dst may take over the slot of one that dies
// there (`s <- s + i`); and a Move's Dst does not conflict with its
// source, which holds the value the slot is about to receive. Failure
// paths sit out of line at the end of the stream, so a live range is a
// set of pcs with holes — hence interference rows, not interval hulls.
//
// Copies are then coalesced, Chaitin's way: the two registers of a Move
// become one class with one slot unless some member of one conflicts
// with some member of the other, so the copy chains that inlining and
// splitting leave behind turn into self-moves, which Fuse takes out of
// the dispatched stream. Sharing needs no rule beyond the relation
// itself: whichever of the two is written next by anything but a copy
// of the other conflicts with the other if that is still live. There
// is no spilling to be driven into — slots are not scarce, a class only
// ever costs a frame a slot more — and classes are coloured greedily,
// lowest free slot, in order of first appearance.
// Three kinds of register may not move freely:
//
//   - self and the parameters keep the indices invoke stores them at;
//     anything else live-in at pc 0 was read before written and must
//     see a zeroed slot, so it gets one of its own past the parameters;
//   - a register captured by reference: the closure holds the slot's
//     address for as long as it lives, so the slot is never shared;
//   - an NLR landing's result register and everything live-in at a
//     landing pc: a non-local return reaches the landing from any call
//     in the frame, an edge liveness does not see; never shared either.
//
// The last two kinds and the zero-reads are never coalesced.
func allocRegs(c *Code) {
	ins := c.Instrs
	if c.NumRegs == 0 || len(ins) == 0 {
		c.NumRegs = min(c.NumRegs, RegSelf+1)
		return
	}

	// Dense ids over the referenced registers, in order of appearance.
	// Self always has one: falling off the end of the stream returns it.
	id := make([]int32, c.NumRegs)
	for i := range id {
		id[i] = -1
	}
	id[RegSelf] = 0
	regs, ops := []ir.Reg{RegSelf}, []ir.Reg(nil) // regs: id -> virtual register
	defs := make([]ir.Reg, len(ins))              // the register each instruction writes
	for i := range ins {
		ops, defs[i] = c.operands(ops[:0], &ins[i])
		for _, r := range append(ops, defs[i]) {
			if r != ir.NoReg && id[r] < 0 {
				id[r] = int32(len(regs))
				regs = append(regs, r)
			}
		}
	}
	// uses returns the registers instruction i reads.
	uses := func(i int) []ir.Reg {
		ops, _ = c.operands(ops[:0], &ins[i])
		return slices.DeleteFunc(ops, func(r ir.Reg) bool { return r == ir.NoReg })
	}
	nr := len(regs)
	words := (nr + 63) / 64

	// Basic blocks: block b is pcs [starts[b], starts[b+1]). An
	// instruction that both falls through and branches (a checked Arith)
	// ends its block: it writes on the fall-through edge only, so that
	// kill belongs to the edge.
	ovf := func(i int) bool {
		s0, s1, _ := ins[i].succs(i)
		return s0 == i+1 && s1 >= 0 && defs[i] != ir.NoReg
	}
	leader := make([]bool, len(ins)+1)
	leader[0] = true
	for i := range ins {
		ins[i].targets(func(pc *int32) { leader[*pc] = true }) // a landing starts a block too
		if _, _, ends := ins[i].succs(i); ends {
			leader[i+1] = true
		}
	}
	var starts []int
	blockAt := make([]int, len(ins))
	for i := range ins {
		if leader[i] {
			starts = append(starts, i)
		}
		blockAt[i] = len(starts) - 1
	}
	nb := len(starts)
	starts = append(starts, len(ins))

	// Per-block upward-exposed uses and definitions, then live-in sets to
	// a fixed point, visiting blocks last to first.
	sets := make(regSet, 3*nb*words)
	useOf := func(b int) regSet { return sets[b*words:][:words] }
	defOf := func(b int) regSet { return sets[(nb+b)*words:][:words] }
	liveIn := func(b int) regSet { return sets[(2*nb+b)*words:][:words] }
	for b := 0; b < nb; b++ {
		use, def := useOf(b), defOf(b)
		for i := starts[b]; i < starts[b+1]; i++ {
			for _, r := range uses(i) {
				if !def.has(id[r]) {
					use.add(id[r])
				}
			}
			if d := defs[i]; d != ir.NoReg && !ovf(i) {
				def.add(id[d])
			}
		}
	}
	live := make(regSet, words)
	liveOut := func(b int) { // live <- live-out of block b
		clear(live)
		last := starts[b+1] - 1
		s0, s1, _ := ins[last].succs(last)
		switch {
		case s0 == len(ins):
			live.add(id[RegSelf]) // falling off the end returns self
		case s0 >= 0:
			copy(live, liveIn(blockAt[s0]))
			if ovf(last) {
				live.del(id[defs[last]])
			}
		}
		if s1 >= 0 {
			live.or(liveIn(blockAt[s1]))
		}
	}
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			liveOut(b)
			use, def, in := useOf(b), defOf(b), liveIn(b)
			for w := range in {
				if x := use[w] | live[w]&^def[w]; x != in[w] {
					in[w], changed = x, true
				}
			}
		}
	}

	// Interference: walk each block backwards from its live-out set. A
	// row of adj lists the registers its register may not share with.
	adj := make(regSet, nr*words)
	for b := 0; b < nb; b++ {
		liveOut(b)
		for i := starts[b+1] - 1; i >= starts[b]; i-- {
			in := &ins[i]
			var row regSet
			src, srcConflicts := int32(-1), false // a copy's source, and whether it conflicted already
			if d := defs[i]; d != ir.NoReg {
				row = adj[int(id[d])*words:][:words]
				if in.Op == ir.Move && in.A != d {
					src, srcConflicts = id[in.A], row.has(id[in.A])
				}
				switch {
				case !ovf(i):
					row.or(live)
					live.del(id[d])
				case i+1 < len(ins):
					// Dst is written on the fall-through edge only: what is
					// live there conflicts, what only the overflow path
					// reads — the operands, typically — does not.
					row.or(liveIn(blockAt[i+1]))
				default:
					row.add(id[RegSelf]) // falling off the end returns self
				}
			}
			for _, r := range uses(i) {
				live.add(id[r])
			}
			// An Arith handler has read both operands by the time it
			// writes, so its Dst may take the slot of one that dies here
			// (`s <- s + i`); every other Dst stays off its operands.
			if row != nil && in.Op != ir.Arith {
				row.or(live)
				if src >= 0 && !srcConflicts {
					row.del(src)
				}
			}
		}
	}
	for k := 0; k < nr; k++ { // make the relation symmetric
		adj[k*words:][:words].each(func(u int) { adj[u*words:][:words].add(int32(k)) })
	}

	// Placement. slot[k] is the slot of register id k; taken[s] marks
	// slots no other register may ever use, and alone the registers that
	// are never coalesced: the pinned ones, and the zero-reads (each stays
	// the only register that needs its slot to start out zeroed).
	params := ir.Reg(RegParamBase + c.NumParams)
	nslots := nr + int(params)
	slot := make([]int32, nr)
	for k := range slot {
		slot[k] = -1
	}
	taken := make([]bool, nslots)
	pinned, alone := make(regSet, words), make(regSet, words)
	for _, cp := range c.caps { // every MkBlk's captures
		if !cp.ByValue && !cp.FromUp && cp.Src != ir.NoReg {
			pinned.add(id[cp.Src])
		}
	}
	for i := range ins {
		if opRoles[ins[i].Op].T == rLanding && ins[i].T >= 0 {
			if a := ins[i].A; a != ir.NoReg { // receives the returned value
				pinned.add(id[a])
			}
			pinned.or(liveIn(blockAt[ins[i].T]))
		}
	}
	// Placed up front: self and the parameters where invoke stores them;
	// pinned registers and zero-reads on slots of their own past the
	// parameter area (a zero-read must not see an argument).
	next := int32(params)
	copy(alone, pinned)
	for k, r := range regs {
		switch {
		case r == RegSelf || r >= RegParamBase && r < params:
			slot[k] = int32(r)
		case pinned.has(int32(k)) || liveIn(0).has(int32(k)):
			slot[k] = next
			next++
			alone.add(int32(k))
		default:
			continue
		}
		taken[slot[k]] = pinned.has(int32(k))
	}

	// Coalescing: the two registers of a Move become one class, to be
	// given one slot, unless a member of one conflicts with a member of
	// the other. class[k] leads to a class's representative, whose row of
	// adj is the union of its members' rows and whose slot, if any member
	// was placed up front, is that one; member links a class's registers
	// in a ring (two rings join by swapping one link each) and
	// size[representative] counts them. Moves are taken in stream order,
	// which is common paths first.
	class, member, size := make([]int32, nr), make([]int32, nr), make([]int32, nr)
	for k := range class {
		class[k], member[k], size[k] = int32(k), int32(k), 1
	}
	find := func(k int32) int32 {
		for class[k] != k {
			class[k] = class[class[k]]
			k = class[k]
		}
		return k
	}
	for i := range ins {
		if ins[i].Op != ir.Move || ins[i].A == ins[i].Dst {
			continue
		}
		x, y := find(id[ins[i].Dst]), find(id[ins[i].A])
		if x == y || alone.has(x) || alone.has(y) || slot[x] >= 0 && slot[y] >= 0 {
			continue
		}
		if slot[y] >= 0 {
			x, y = y, x
		}
		// The relation is symmetric, so either class's members can be
		// looked up in the other's row: walk the shorter chain.
		few, many := x, y
		if size[few] > size[many] {
			few, many = many, few
		}
		row, conflict := adj[int(many)*words:][:words], false
		for m := few; !conflict; {
			conflict = row.has(m)
			if m = member[m]; m == few {
				break
			}
		}
		if conflict {
			continue
		}
		adj[int(x)*words:][:words].or(adj[int(y)*words:][:words])
		class[y], size[x] = x, size[x]+size[y]
		member[x], member[y] = member[y], member[x]
	}
	// Colouring, class by class in order of first appearance: the lowest
	// slot no neighbour's class holds.
	mark := make([]int, nslots) // mark[s] == k+1: a neighbour of k holds s
	for k := 0; k < nr; k++ {
		x := find(int32(k))
		if slot[x] < 0 {
			adj[int(x)*words:][:words].each(func(u int) {
				if s := slot[find(int32(u))]; s >= 0 {
					mark[s] = k + 1
				}
			})
			s := int32(0)
			for taken[s] || mark[s] == k+1 {
				s++
			}
			slot[x] = s
		}
		slot[k] = slot[x]
	}

	c.NumRegs = RegSelf + 1
	c.renameRegs(func(r ir.Reg) ir.Reg {
		c.NumRegs = max(c.NumRegs, int(slot[id[r]])+1)
		return ir.Reg(slot[id[r]])
	})
}

// regSet is a bit set over register ids.
type regSet []uint64

func (s regSet) add(k int32)      { s[k>>6] |= 1 << (k & 63) }
func (s regSet) del(k int32)      { s[k>>6] &^= 1 << (k & 63) }
func (s regSet) has(k int32) bool { return s[k>>6]&(1<<(k&63)) != 0 }
func (s regSet) or(t regSet) {
	for w, x := range t {
		s[w] |= x
	}
}
func (s regSet) each(f func(k int)) {
	for w, x := range s {
		for ; x != 0; x &= x - 1 {
			f(w<<6 + bits.TrailingZeros64(x))
		}
	}
}
