package vm

import (
	"fmt"
	"reflect"
	"slices"

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
	// masked out the two codes must be equal.
	slot := map[ir.Reg]ir.Reg{RegSelf: RegSelf}
	uses := make([][]ir.Reg, n) // registers read (or address-taken) at pc
	defs := make([]ir.Reg, n)   // the register written at pc
	pinned := map[ir.Reg]bool{}
	var landings []int
	for pc := range raw.Instrs {
		r, a := &raw.Instrs[pc], &alloc.Instrs[pc]
		rv, rd := raw.operands(nil, r)
		av, ad := alloc.operands(nil, a)
		if len(rv) != len(av) {
			return bad(pc, "operand count changed")
		}
		defs[pc] = rd
		uses[pc] = slices.DeleteFunc(slices.Clone(rv), func(v ir.Reg) bool { return v == ir.NoReg })
		rv, av = append(rv, rd), append(av, ad)
		for i, v := range rv {
			s := av[i]
			if old, seen := slot[v]; (v == ir.NoReg) != (s == ir.NoReg) || s >= ir.Reg(alloc.NumRegs) || seen && old != s {
				return bad(pc, "r%d renamed to r%d (of %d; elsewhere r%d)", v, s, alloc.NumRegs, old)
			}
			slot[v] = s
		}
		if opRoles[r.Op].T == rLanding && r.T >= 0 {
			landings = append(landings, int(r.T))
			pinned[r.A] = true
		}
	}
	for _, cp := range raw.caps { // every MkBlk's captures
		if !cp.FromUp {
			pinned[cp.Src] = pinned[cp.Src] || !cp.ByValue
		}
	}
	delete(pinned, ir.NoReg)
	mr, ma := raw.clone(), alloc.clone()
	for _, m := range []*Code{mr, ma} {
		m.renameRegs(func(ir.Reg) ir.Reg { return 0 })
	}
	for pc := range mr.Instrs {
		if mr.Instrs[pc] != ma.Instrs[pc] {
			return bad(pc, "not a renaming: %s became %s", raw.render(&raw.Instrs[pc]), alloc.render(&alloc.Instrs[pc]))
		}
	}
	cold := func(c *Code) []any {
		return []any{c.consts, c.sites, c.maps, c.blocks, c.callees, c.names, c.args, c.caps}
	}
	if !reflect.DeepEqual(cold(mr), cold(ma)) {
		return bad(0, "not a renaming: the cold tables differ")
	}

	// Liveness, one set per pc (falling off the end, pc n, returns self).
	// The register an instruction that both falls through and branches
	// (a checked Arith) writes dies on its fall-through edge only.
	succs := func(pc int) []int {
		s0, s1, _ := raw.Instrs[pc].succs(pc)
		return slices.DeleteFunc([]int{s0, s1}, func(s int) bool { return s < 0 })
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
					if v != defs[pc] || i > 0 {
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

	// Copy classes: same[pc] is the set of pairs of registers live-in at
	// pc that are equal on entry to pc (nil until some path reaches pc),
	// after(pc, i) the set on the edge to pc's i-th successor. The
	// overflow edge of a checked Arith (i == 1) writes nothing. Dropping
	// a pair with a dead register loses nothing: no check asks about it
	// before that register is written, and the write ends the pair.
	type pair [2]ir.Reg // ordered: pair{x, y} with x < y
	mk := func(x, y ir.Reg) pair { return pair{min(x, y), max(x, y)} }
	same := make([]map[pair]bool, n+1)
	after := func(pc, i int) map[pair]bool {
		in, d := &raw.Instrs[pc], defs[pc]
		out := map[pair]bool{}
		written := d != ir.NoReg && i == 0 && !(in.Op == ir.Move && in.A == d)
		for p := range same[pc] {
			if !written || p[0] != d && p[1] != d {
				out[p] = true
			}
		}
		if written && in.Op == ir.Move {
			out[mk(d, in.A)] = true
			for p := range same[pc] { // and whatever A was a copy of
				switch in.A {
				case p[0]:
					out[mk(d, p[1])] = true
				case p[1]:
					out[mk(d, p[0])] = true
				}
			}
			delete(out, pair{d, d})
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
				for p := range out {
					if !liveIn[s][p[0]] || !liveIn[s][p[1]] {
						delete(out, p)
					}
				}
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
			if defs[pc] != ir.NoReg && i == 0 {
				sets = append(sets, map[ir.Reg]bool{defs[pc]: true})
			}
			if err := distinct(pc, after(pc, i), sets...); err != nil {
				return err
			}
		}
		if d := defs[pc]; d != ir.NoReg {
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
