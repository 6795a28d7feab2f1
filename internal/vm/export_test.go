package vm

import (
	"unsafe"

	"selfgo/internal/ast"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
)

// Bridges for the external test package (vm_test): core now imports vm
// (the Pipeline owns assembly), so tests that drive the compiler must
// live outside package vm, and these aliases give them the few internal
// details they assert on.
const (
	OpJmp        = opJmp
	OpConstArith = opConstArith
	OpArithJmp   = opArithJmp
	OpArithCmpBr = opArithCmpBr
)

// invokeCode runs hand-assembled code as a method activation, the way
// the internal tests drive graphs built without a compiler.
func (vm *VM) invokeCode(code *Code, recv obj.Value, args []obj.Value) (obj.Value, error) {
	vm.init()
	return vm.invoke(vm.link(code), recv, args)
}

// SourcePC exposes Code.sourcePC.
func (c *Code) SourcePC(pc, within int) int { return c.sourcePC(pc, within) }

var (
	SizeOf      = (*Code).instrSize
	FusedHeadOp = fusedHeadOp
	Linearize   = linearize
)

// Wide is an instruction as a hand-built test writes it: the fields the
// assembler encodes from a graph node, with branch targets as pcs.
type Wide struct {
	Op           ir.Op
	Dst, A, B, C ir.Reg
	Val          obj.Value
	TestMap      *obj.Map
	AOp          ir.ArithKind
	COp          ir.CmpKind
	Checked      bool
	Caps         []ir.Capture
	T, F         int
}

// HandCode assembles a hand-written stream through the encoder linearize
// uses: T and F fill the slots that are edges (an Arith's F only when
// Checked). Absent register operands must be written ir.NoReg.
func HandCode(name string, numRegs, numParams int, ins ...Wide) *Code {
	c := &Code{Name: name, NumRegs: numRegs, VirtRegs: numRegs, NumParams: numParams}
	for _, w := range ins {
		in := c.encode(&ir.Node{Op: w.Op, Dst: w.Dst, A: w.A, B: w.B, C: w.C, FailBlk: ir.NoReg,
			Val: w.Val, TestMap: w.TestMap, AOp: w.AOp, COp: w.COp, Checked: w.Checked, Caps: w.Caps})
		ro := &opRoles[w.Op]
		if ro.T == rEdge {
			in.T = int32(w.T)
		}
		if ro.F == rEdge && (w.Op != ir.Arith || w.Checked) {
			in.F = int32(w.F)
		}
		c.add(in)
	}
	return c
}

// Clone exposes Code.clone.
func (c *Code) Clone() *Code { return c.clone() }

// Remap returns a copy of c with every register operand sent through f.
func (c *Code) Remap(f func(ir.Reg) ir.Reg) *Code {
	out := c.clone()
	out.renameRegs(f)
	return out
}

// Render exposes Code.render.
func (c *Code) Render(in *Instr) string { return c.render(in) }

// Tails returns the tail constituents of the fused entry in (nil for an
// ordinary one).
func (c *Code) Tails(in *Instr) []Instr {
	_, n := fusedHeadOp(in.Op)
	if n == 0 {
		return nil
	}
	return c.tails[in.T : int(in.T)+n]
}

// Caps returns the captures of the MkBlk at pc (nil for another op).
func (c *Code) Caps(pc int) []ir.Capture {
	if in := &c.Instrs[pc]; opRoles[in.Op].Aux == rBlock {
		return c.captures(&c.blocks[in.Aux])
	}
	return nil
}

// BlockCaptures calls f with the block and capture list of every MkBlk
// in the code, in stream order.
func (c *Code) BlockCaptures(f func(blk *ast.Block, caps []ir.Capture)) {
	for i := range c.blocks {
		f(c.blocks[i].Blk, c.captures(&c.blocks[i]))
	}
}

// ConstOf returns the value a Const loads.
func (c *Code) ConstOf(in *Instr) obj.Value { return c.consts[in.Aux] }

// SelOf returns a Send's selector.
func (c *Code) SelOf(in *Instr) string { return c.sites[in.Aux].Sel }

// Operands is what the role table reads off one instruction.
type Operands struct {
	Uses         []ir.Reg // registers read or address-taken, in slot order
	Def          ir.Reg   // the register written (NoReg: none)
	Edges        []int    // the pcs its edge slots hold, T's first
	Landing      int      // a MkBlk's landing pc (-1: none)
	FallsThrough bool     // whether control may continue at the next pc
}

// OperandsOf reads the instruction at pc through the role table.
func (c *Code) OperandsOf(pc int) Operands {
	in, ro := &c.Instrs[pc], &opRoles[c.Instrs[pc].Op]
	var o Operands
	uses, def := c.operands(nil, in)
	for _, r := range uses {
		if r != ir.NoReg {
			o.Uses = append(o.Uses, r)
		}
	}
	o.Def, o.Landing, o.FallsThrough = def, -1, !ro.stop
	if ro.T == rEdge && in.T >= 0 {
		o.Edges = append(o.Edges, int(in.T))
	}
	if ro.F == rEdge && in.F >= 0 {
		o.Edges = append(o.Edges, int(in.F))
	}
	if ro.T == rLanding {
		o.Landing = int(in.T)
	}
	return o
}

// HostBytes is the host memory c's code takes: records is its entries
// and fused tails (with the pc map fusion keeps), by capacity, cold its
// cold tables with the argument vectors and capture lists they hold.
func (c *Code) HostBytes() (records, cold int) {
	records = (cap(c.Instrs)+cap(c.tails))*int(unsafe.Sizeof(Instr{})) + 4*cap(c.pcs)
	cold = len(c.consts)*int(unsafe.Sizeof(obj.Value{})) + len(c.sites)*int(unsafe.Sizeof(site{})) +
		len(c.maps)*8 + len(c.blocks)*int(unsafe.Sizeof(blockSite{})) + len(c.callees)*8 + len(c.names)*16 +
		len(c.args)*4 + len(c.caps)*int(unsafe.Sizeof(ir.Capture{}))
	return records, cold
}
