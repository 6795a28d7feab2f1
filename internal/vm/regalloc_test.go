package vm_test

import (
	"strings"
	"testing"

	"selfgo/internal/core"
	"selfgo/internal/ir"
	"selfgo/internal/vm"
)

const regallocSrc = `
mix: a With: b = ( | s <- 0. t |
    1 upTo: a Do: [ :i | s: s + (i * b) ].
    t: [ :x | s: s + x. ^ s ].
    (a > b) ifTrue: [ t value: a ].
    s + b ).
`

// remap returns a copy of c with every register operand sent through f.
func remap(c *vm.Code, f func(ir.Reg) ir.Reg) *vm.Code {
	m := func(r ir.Reg) ir.Reg {
		if r == ir.NoReg {
			return r
		}
		return f(r)
	}
	out := &vm.Code{Name: c.Name, NumRegs: c.NumRegs, VirtRegs: c.VirtRegs, NumParams: c.NumParams}
	out.Instrs = append([]vm.Instr(nil), c.Instrs...)
	for i := range out.Instrs {
		in := &out.Instrs[i]
		in.Dst, in.A, in.B, in.C, in.FailBlk = m(in.Dst), m(in.A), m(in.B), m(in.C), m(in.FailBlk)
		in.Args = append([]ir.Reg(nil), in.Args...)
		for j := range in.Args {
			in.Args[j] = m(in.Args[j])
		}
		in.Caps = append([]ir.Capture(nil), in.Caps...)
		for j := range in.Caps {
			if !in.Caps[j].FromUp {
				in.Caps[j].Src = m(in.Caps[j].Src)
			}
		}
	}
	return out
}

// TestCheckAllocationRejects: the allocator's oracle accepts what the
// allocator produced and rejects each way of breaking the contract —
// two live registers on one slot, a moved parameter, a shared pinned
// register, an instruction that is not a renaming.
func TestCheckAllocationRejects(t *testing.T) {
	var raw, alloc *vm.Code
	vm.TestHookAssemble = func(r, c *vm.Code) *vm.Code {
		if strings.HasSuffix(c.Name, "mix:With:") {
			raw, alloc = r, c
		}
		return c
	}
	defer func() { vm.TestHookAssemble = nil }()
	h := newHarness(t, core.NewSELF, regallocSrc)
	h.codeFor(t, "mix:With:")
	if raw == nil {
		t.Fatal("mix:With: was never assembled")
	}
	if alloc.NumRegs >= alloc.VirtRegs || alloc.VirtRegs != raw.NumRegs {
		t.Fatalf("%d registers of %d virtual (raw %d): nothing was allocated", alloc.NumRegs, alloc.VirtRegs, raw.NumRegs)
	}
	if !strings.Contains(alloc.Disasm(), "regs (of ") {
		t.Errorf("Disasm header does not report the virtual count:\n%s", alloc.Disasm())
	}
	if err := vm.CheckAllocation(raw, alloc); err != nil {
		t.Fatalf("the allocator's own output was rejected: %v", err)
	}
	a, b := ir.Reg(vm.RegParamBase), ir.Reg(vm.RegParamBase+1) // both parameters are live at entry
	swap := func(x, y ir.Reg) func(ir.Reg) ir.Reg {
		return func(r ir.Reg) ir.Reg {
			switch r {
			case x:
				return y
			case y:
				return x
			}
			return r
		}
	}
	for name, broken := range map[string]*vm.Code{
		"two live registers merged": remap(alloc, func(r ir.Reg) ir.Reg {
			if r == b {
				return a
			}
			return r
		}),
		"parameters swapped": remap(alloc, swap(a, b)),
	} {
		if err := vm.CheckAllocation(raw, broken); err == nil {
			t.Errorf("%s: accepted", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
	// Every slot but the pinned ones is fair game for some other register
	// at some pc; folding any slot onto a pinned one must be caught.
	pinned := ir.NoReg
	for _, in := range raw.Instrs {
		for _, cp := range in.Caps {
			if !cp.ByValue && !cp.FromUp && cp.Src >= ir.Reg(vm.RegParamBase+2) {
				pinned = cp.Src
			}
		}
	}
	if pinned == ir.NoReg {
		t.Fatal("mix:With: captures no local by reference")
	}
	var pinnedSlot ir.Reg
	for i, in := range raw.Instrs {
		for j, cp := range in.Caps {
			if cp.Src == pinned {
				pinnedSlot = alloc.Instrs[i].Caps[j].Src
			}
		}
	}
	for s := ir.Reg(0); s < ir.Reg(alloc.NumRegs); s++ {
		if s == pinnedSlot {
			continue
		}
		s := s
		folded := remap(alloc, func(r ir.Reg) ir.Reg {
			if r == s {
				return pinnedSlot
			}
			return r
		})
		if err := vm.CheckAllocation(raw, folded); err == nil {
			t.Errorf("slot r%d folded onto pinned slot r%d: accepted", s, pinnedSlot)
		}
	}
	// One operand renamed on its own: no longer a function of the register.
	for i := range alloc.Instrs {
		if d := alloc.Instrs[i].Dst; d != ir.NoReg {
			one := remap(alloc, func(r ir.Reg) ir.Reg { return r })
			one.Instrs[i].Dst = (d + 1) % ir.Reg(alloc.NumRegs)
			if err := vm.CheckAllocation(raw, one); err == nil {
				t.Errorf("@%d: Dst moved from r%d on its own: accepted", i, d)
			}
		}
	}
	notRenaming := remap(alloc, func(r ir.Reg) ir.Reg { return r })
	notRenaming.Instrs[0].Index++
	if err := vm.CheckAllocation(raw, notRenaming); err == nil {
		t.Error("an instruction with a changed field: accepted")
	}
}
