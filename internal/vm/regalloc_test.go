package vm_test

import (
	"strings"
	"testing"

	"selfgo/internal/core"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
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
func remap(c *vm.Code, f func(ir.Reg) ir.Reg) *vm.Code { return c.Remap(f) }

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
	for pc := range raw.Instrs {
		for _, cp := range raw.Caps(pc) {
			if !cp.ByValue && !cp.FromUp && cp.Src >= ir.Reg(vm.RegParamBase+2) {
				pinned = cp.Src
			}
		}
	}
	if pinned == ir.NoReg {
		t.Fatal("mix:With: captures no local by reference")
	}
	var pinnedSlot ir.Reg
	for pc := range raw.Instrs {
		for j, cp := range raw.Caps(pc) {
			if cp.Src == pinned {
				pinnedSlot = alloc.Caps(pc)[j].Src
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
	notRenaming.Instrs[0].Aux++
	if err := vm.CheckAllocation(raw, notRenaming); err == nil {
		t.Error("an instruction with a changed field: accepted")
	}
}

// TestCheckAllocationCopyClasses: two live registers may share a slot
// exactly while they are copies of one another. Hand-built streams, so
// the cases do not depend on what the allocator chooses to coalesce.
func TestCheckAllocationCopyClasses(t *testing.T) {
	no := ir.NoReg
	konst := func(d ir.Reg, v int64) vm.Wide {
		return vm.Wide{Op: ir.Const, Dst: d, A: no, B: no, C: no, Val: obj.Int(v)}
	}
	move := func(d, a ir.Reg) vm.Wide {
		return vm.Wide{Op: ir.Move, Dst: d, A: a, B: no, C: no}
	}
	add := func(d, a, b ir.Reg) vm.Wide {
		return vm.Wide{Op: ir.Arith, AOp: ir.Add, Dst: d, A: a, B: b, C: no}
	}
	ret := func(a ir.Reg) vm.Wide {
		return vm.Wide{Op: ir.Return, Dst: no, A: a, B: no, C: no}
	}
	code := func(ins ...vm.Wide) *vm.Code { return vm.HandCode("handmade", 8, 0, ins...) }
	// share sends r4 to r3's slot and leaves the rest where it is.
	share := func(c *vm.Code) *vm.Code {
		return remap(c, func(r ir.Reg) ir.Reg {
			if r == 4 {
				return 3
			}
			return r
		})
	}
	for _, tc := range []struct {
		name string
		raw  *vm.Code
		ok   bool
	}{
		{"copy and source live together", code(
			konst(3, 1), move(4, 3), add(5, 3, 4), ret(5)), true},
		{"copy of a copy", code(
			konst(3, 1), move(6, 3), move(4, 6), add(5, 3, 4), ret(5)), true},
		{"copied back and forth", code(
			konst(3, 1), move(4, 3), move(3, 4), add(5, 3, 4), ret(5)), true},
		{"source redefined while the copy is live", code(
			konst(3, 1), move(4, 3), konst(3, 2), add(5, 3, 4), ret(5)), false},
		{"copy redefined while the source is live", code(
			konst(3, 1), move(4, 3), add(4, 4, 4), add(5, 3, 4), ret(5)), false},
		{"copies on one path only", code(
			konst(3, 1), konst(4, 1),
			vm.Wide{Op: ir.CmpBr, COp: ir.LT, Dst: no, A: 3, B: 4, C: no, T: 3, F: 4},
			move(4, 3), add(5, 3, 4), ret(5)), false},
		{"never copied", code(
			konst(3, 1), konst(4, 1), add(5, 3, 4), ret(5)), false},
	} {
		if err := vm.CheckAllocation(tc.raw, remap(tc.raw, func(r ir.Reg) ir.Reg { return r })); err != nil {
			t.Errorf("%s: the identity allocation was rejected: %v", tc.name, err)
		}
		err := vm.CheckAllocation(tc.raw, share(tc.raw))
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		} else if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if err != nil {
			t.Logf("%s: %v", tc.name, err)
		}
	}

	// A pinned register shares with nothing, its own copy included.
	pinned := code(konst(3, 1), move(4, 3),
		vm.Wide{Op: ir.MkBlk, Dst: 5, A: no, B: no, C: no,
			Caps: []ir.Capture{{Name: "x", Src: 3}}},
		add(6, 3, 4), ret(6))
	if err := vm.CheckAllocation(pinned, share(pinned)); err == nil {
		t.Error("a by-reference capture coalesced with its copy: accepted")
	}

	// A Dst on an operand's slot: fine for the Arith that kills the
	// operand, not for a load.
	onto := func(c *vm.Code) *vm.Code {
		return remap(c, func(r ir.Reg) ir.Reg { return map[ir.Reg]ir.Reg{3: 3, 4: 4, 5: 3}[r] })
	}
	arith := code(konst(3, 1), konst(4, 1), add(5, 3, 4), ret(5))
	if err := vm.CheckAllocation(arith, onto(arith)); err != nil {
		t.Errorf("Arith Dst on the slot of an operand that dies there: %v", err)
	}
	load := code(konst(3, 1),
		vm.Wide{Op: ir.LoadE, Dst: 5, A: 0, B: 3, C: no}, ret(5))
	if err := vm.CheckAllocation(load, onto(load)); err == nil {
		t.Error("LoadE Dst on its index operand's slot: accepted")
	}
}
