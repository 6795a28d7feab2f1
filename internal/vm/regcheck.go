package vm

import (
	"fmt"
	"reflect"

	"selfgo/internal/ir"
)

// CheckAllocation is the register allocator's independent oracle: given
// a graph's un-allocated linearization and the Code Assemble produced
// for it, it recomputes liveness its own way — per instruction, over
// sets of registers, sharing nothing with allocRegs — and reports the
// first violation of the contract: the result is a pure renaming by one
// register→slot function; two registers live together share a slot only
// while they are copies of one another, and a Dst shares with an operand
// of its instruction only when the instruction is that copy or an Arith
// (whose operand must then die there, by the first rule); self and the
// parameters keep their indices and no zero-read (live-in at pc 0)
// sits in an argument slot; a by-reference capture, an NLR landing's
// result register and everything live-in at a landing pc share with
// nothing.
//
// "Copies of one another" is a forward must-analysis of its own: the
// set of register pairs that hold the same value on every path to a
// point. `d <- a` puts d in a's class; any other write to a register
// takes it out of its class; paths meet by intersection; pc 0 and the
// landings (which control reaches by edges the stream does not show)
// start from nothing.
func CheckAllocation(raw, alloc *Code) error {
	bad := func(pc int, format string, args ...any) error {
		return fmt.Errorf("%s@%d: "+format, append([]any{raw.Name, pc}, args...)...)
	}
	n := len(raw.Instrs)
	if n != len(alloc.Instrs) || alloc.VirtRegs != raw.NumRegs || alloc.NumParams != raw.NumParams {
		return bad(0, "%d instrs, %d regs, %d params became %d, (of) %d, %d",
			n, raw.NumRegs, raw.NumParams, len(alloc.Instrs), alloc.VirtRegs, alloc.NumParams)
	}

	// The renaming, read off operand by operand; with the registers
	// masked out the two streams must be equal.
	slot := map[ir.Reg]ir.Reg{RegSelf: RegSelf}
	uses := make([][]ir.Reg, n) // registers read (or address-taken) at pc
	pinned := map[ir.Reg]bool{}
	var landings []int
	for pc := range raw.Instrs {
		r, a := raw.Instrs[pc], alloc.Instrs[pc]
		if len(r.Args) != len(a.Args) || len(r.Caps) != len(a.Caps) {
			return bad(pc, "operand count changed")
		}
		rv := append([]ir.Reg{r.Dst, r.A, r.B, r.C, r.FailBlk}, r.Args...)
		av := append([]ir.Reg{a.Dst, a.A, a.B, a.C, a.FailBlk}, a.Args...)
		for i, cp := range r.Caps {
			if !cp.FromUp {
				rv, av = append(rv, cp.Src), append(av, a.Caps[i].Src)
				pinned[cp.Src] = pinned[cp.Src] || !cp.ByValue
			}
		}
		if r.Op == ir.MkBlk && r.Resume >= 0 {
			landings = append(landings, r.Resume)
			pinned[r.A] = true
		}
		for i, v := range rv {
			s := av[i]
			if old, seen := slot[v]; (v == ir.NoReg) != (s == ir.NoReg) || s >= ir.Reg(alloc.NumRegs) || seen && old != s {
				return bad(pc, "r%d renamed to r%d (of %d; elsewhere r%d)", v, s, alloc.NumRegs, old)
			}
			if slot[v] = s; i > 0 && v != ir.NoReg {
				uses[pc] = append(uses[pc], v)
			}
		}
		a.Dst, a.A, a.B, a.C, a.FailBlk, a.Args = r.Dst, r.A, r.B, r.C, r.FailBlk, r.Args
		a.Caps = append([]ir.Capture(nil), a.Caps...)
		for i := range a.Caps {
			a.Caps[i].Src = r.Caps[i].Src
		}
		if !reflect.DeepEqual(r, a) {
			return bad(pc, "not a renaming: %s became %s", r, alloc.Instrs[pc])
		}
	}
	delete(pinned, ir.NoReg)

	// Liveness, one set per pc (falling off the end, pc n, returns self).
	// The register a checked Arith writes dies on its fall-through edge
	// only.
	succs := func(pc int) []int {
		switch in := &raw.Instrs[pc]; {
		case in.Op == opJmp:
			return []int{in.T}
		case in.Op == ir.CmpBr || in.Op == ir.TypeTest:
			return []int{in.T, in.F}
		case in.Op == ir.Return || in.Op == ir.NLReturn || in.Op == ir.Fail:
			return nil
		case in.Op == ir.Arith && in.Checked:
			return []int{pc + 1, in.F}
		}
		return []int{pc + 1}
	}
	liveIn := make([]map[ir.Reg]bool, n+1)
	for pc := range liveIn {
		liveIn[pc] = map[ir.Reg]bool{}
	}
	liveIn[n][RegSelf] = true
	for changed := true; changed; {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			before := len(liveIn[pc])
			for i, s := range succs(pc) {
				for v := range liveIn[s] {
					if v != raw.Instrs[pc].Dst || i > 0 {
						liveIn[pc][v] = true
					}
				}
			}
			for _, v := range uses[pc] {
				liveIn[pc][v] = true
			}
			changed = changed || len(liveIn[pc]) != before
		}
	}

	// Copy classes: same[pc] is the set of pairs equal on entry to pc (nil
	// until some path reaches pc), after(pc, i) the set on the edge to
	// pc's i-th successor. The overflow edge of a checked Arith (i == 1)
	// writes nothing.
	type pair [2]ir.Reg // ordered: pair{x, y} with x < y
	mk := func(x, y ir.Reg) pair { return pair{min(x, y), max(x, y)} }
	same := make([]map[pair]bool, n+1)
	after := func(pc, i int) map[pair]bool {
		in := &raw.Instrs[pc]
		out := map[pair]bool{}
		written := in.Dst != ir.NoReg && i == 0 && !(in.Op == ir.Move && in.A == in.Dst)
		for p := range same[pc] {
			if !written || p[0] != in.Dst && p[1] != in.Dst {
				out[p] = true
			}
		}
		if written && in.Op == ir.Move {
			out[mk(in.Dst, in.A)] = true
			for p := range same[pc] { // and whatever A was a copy of
				switch in.A {
				case p[0]:
					out[mk(in.Dst, p[1])] = true
				case p[1]:
					out[mk(in.Dst, p[0])] = true
				}
			}
			delete(out, pair{in.Dst, in.Dst})
		}
		return out
	}
	same[0] = map[pair]bool{}
	for _, pc := range landings {
		same[pc] = map[pair]bool{}
	}
	for changed := true; changed; {
		changed = false
		for pc := 0; pc < n; pc++ {
			if same[pc] == nil {
				continue
			}
			for i, s := range succs(pc) {
				out := after(pc, i)
				if same[s] == nil {
					same[s], changed = out, true
					continue
				}
				for p := range same[s] {
					if !out[p] {
						delete(same[s], p)
						changed = true
					}
				}
			}
		}
	}

	// distinct: no two registers of the sets share a slot, unless eq says
	// they are copies of one another.
	distinct := func(pc int, eq map[pair]bool, sets ...map[ir.Reg]bool) error {
		holders := map[ir.Reg][]ir.Reg{}
		for _, set := range sets {
			for v := range set {
				for _, w := range holders[slot[v]] {
					if w != v && !eq[mk(v, w)] {
						return bad(pc, "r%d and r%d are live together, are not copies and share slot r%d", v, w, slot[v])
					}
				}
				holders[slot[v]] = append(holders[slot[v]], v)
			}
		}
		return nil
	}
	for pc := 0; pc < n; pc++ {
		in := &raw.Instrs[pc]
		if err := distinct(pc, same[pc], liveIn[pc]); err != nil {
			return err
		}
		for i, s := range succs(pc) {
			sets := []map[ir.Reg]bool{liveIn[s]}
			if in.Dst != ir.NoReg && i == 0 {
				sets = append(sets, map[ir.Reg]bool{in.Dst: true})
			}
			if err := distinct(pc, after(pc, i), sets...); err != nil {
				return err
			}
		}
		if d := in.Dst; d != ir.NoReg {
			for _, v := range uses[pc] {
				if v != d && slot[v] == slot[d] && !(in.Op == ir.Move && v == in.A) && in.Op != ir.Arith {
					return bad(pc, "Dst r%d shares slot r%d with operand r%d", d, slot[d], v)
				}
			}
		}
	}
	params := ir.Reg(RegParamBase + raw.NumParams)
	for v, s := range slot {
		if isParam := v == RegSelf || v >= RegParamBase && v < params; isParam && s != v {
			return bad(0, "parameter r%d moved to r%d", v, s)
		} else if !isParam && liveIn[0][v] && s < params {
			return bad(0, "r%d is read before written but sits in argument slot r%d", v, s)
		}
	}
	for _, pc := range landings {
		for v := range liveIn[pc] {
			pinned[v] = true
		}
	}
	for v, on := range pinned {
		for w, s := range slot {
			if on && w != v && s == slot[v] {
				return bad(0, "pinned r%d shares slot r%d with r%d", v, s, w)
			}
		}
	}
	return nil
}
