package vm

import (
	"errors"
	"fmt"
	"reflect"

	"selfgo/internal/ir"
)

// CheckAllocation is the register allocator's independent oracle: given
// a graph's un-allocated linearization and the Code Assemble produced
// for it, it recomputes liveness its own way — per instruction, over
// sets of registers, sharing nothing with allocRegs — and reports the
// first violation of the contract: the result is a pure renaming by one
// register→slot function; two registers live together, or a Dst and an
// operand of its instruction, never share a slot; self and the
// parameters keep their indices and no zero-read (live-in at pc 0) sits
// in an argument slot; a by-reference capture, an NLR landing's result
// register and everything live-in at a landing pc share with nothing.
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

	// distinct: no two registers of the sets share a slot.
	distinct := func(pc int, sets ...map[ir.Reg]bool) error {
		holder := map[ir.Reg]ir.Reg{}
		for _, set := range sets {
			for v := range set {
				if w, ok := holder[slot[v]]; ok && w != v {
					return bad(pc, "r%d and r%d are live together and share slot r%d", v, w, slot[v])
				}
				holder[slot[v]] = v
			}
		}
		return nil
	}
	for pc := 0; pc < n; pc++ {
		after := []map[ir.Reg]bool{}
		for _, s := range succs(pc) {
			after = append(after, liveIn[s])
		}
		if d := raw.Instrs[pc].Dst; d != ir.NoReg {
			after = append(after, map[ir.Reg]bool{d: true})
			for _, v := range uses[pc] {
				if v != d && slot[v] == slot[d] {
					return bad(pc, "Dst r%d shares slot r%d with operand r%d", d, slot[d], v)
				}
			}
		}
		if err := errors.Join(distinct(pc, liveIn[pc]), distinct(pc, after...)); err != nil {
			return err
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
