// Package vm is the back end standing in for the paper's SPARC code
// generator: it linearizes the compiler's control flow graph into
// register bytecode (out-of-line failure blocks and all), executes it,
// and charges every instruction a documented cycle cost. Because the
// paper's results are reported *relative to optimized C*, what matters
// is that each category — raw arithmetic, memory traffic, type tests,
// overflow checks, inline-cache hits and misses, full lookups, block
// creation — costs what it cost on the measured machine *in
// proportion*; the constants below encode the Deutsch-Schiffman
// send machinery and SPARC-era latencies the paper assumes.
package vm

import "selfgo/internal/ir"

// Cycle costs per executed instruction.
const (
	CostMove  = 1 // register move
	CostConst = 1 // load immediate/constant

	CostArith       = 1 // raw add/sub/compare class op
	CostMul         = 4 // integer multiply (SPARC had no single-cycle imul)
	CostDiv         = 12
	CostOverflowChk = 2 // tag extract + overflow conditional trap after the op
	CostCmpBranch   = 1 // compare-and-branch
	CostTypeTest    = 3 // tag/map extract + compare + branch
	CostJump        = 1
	CostLoadStore   = 2 // slot or element access
	CostVecLen      = 2
	CostReturn      = 2 // epilogue

	// Direct (statically bound) call: call + prologue, the cost a C
	// compiler pays for a non-inlined function call.
	CostCall = 6

	// Dynamically-dispatched sends (Deutsch & Schiffman [4]):
	// an inline-cache hit is a call plus a map check; a miss runs the
	// full lookup and rewrites the cache.
	CostSendICHit  = 14
	CostSendICMiss = 60

	// §6.1: call-site-specific miss handlers would cut the miss cost
	// to little more than a hit (the richards "what-if").
	CostSendMissHandler = 16

	// A polymorphic-inline-cache hit: the dispatch stub compares the
	// receiver map against a short list, a few cycles beyond the
	// monomorphic hit.
	CostPICExtra = 4

	// Invoking a block closure: like an IC hit plus context fiddling.
	CostBlockValue = 14

	// Out-of-line robust primitive call (uninlined): call, argument
	// type checks, the operation, failure-block plumbing.
	CostPrimOp = 18

	// Closure creation: allocation plus captured-variable setup.
	CostMkBlkBase   = 10
	CostMkBlkPerCap = 2

	// Object allocation.
	CostCloneBase     = 8
	CostClonePerField = 1
	CostNewVecBase    = 8
	// plus one cycle per 8 elements initialized
	NewVecFillShift = 3

	CostLoadUp   = 4 // up-level access through the closure
	CostNLReturn = 24

	CostFail = 10
)

// Code-size model, in bytes of SPARC-flavored code per emitted
// instruction. Dynamic sends carry their inline cache (the paper
// blames "large inline caches" for much of the code-size overhead);
// method prologues and the literal words of big constants are charged
// too.
const (
	SizeSimple   = 4 // one machine instruction
	SizeConst    = 8 // sethi+or / load from literal pool
	SizeBranch   = 8 // compare + branch (+ delay slot reuse)
	SizeTypeTest = 12
	SizeArithChk = 8  // op + overflow branch
	SizeLoadF    = 4  // single load/store, offset known
	SizeCall     = 8  // call + delay slot
	SizeSend     = 32 // call sequence + selector word + inline cache
	SizePrimOp   = 20
	SizeMkBlk    = 16 // plus 4 per capture
	SizeMkBlkCap = 4
	SizeNewVec   = 12
	SizeClone    = 12
	SizeReturn   = 8
	SizeFail     = 8
	SizeUpAccess = 8
	SizeNLReturn = 16
	SizePrologue = 16 // per compiled method
)

// staticCost is the compile-time-constant part of an instruction's
// modelled cycle cost — its op's cost in opRoles, adjusted for what the
// instruction carries — folded into Instr.Cost at assembly so the hot
// loop charges one add per dispatch. Ops whose cost is partly or wholly
// dynamic keep the dynamic remainder in the interpreter:
//
//   - NewVec/CloneOp charge only the base here; the size-dependent fill
//     and per-field copy are charged at execution.
//   - Send and PrimOp charge zero here; dispatch cost depends on the
//     cache outcome (execSend) and CostPrimOp is charged in execPrim.
//   - Checked Arith includes the overflow-check surcharge: both the
//     overflow branch and the checked div/mod-by-zero branch charged
//     op + CostOverflowChk in the original interpreter.
//
// The per-instruction InstrExtra (ST-80 code-quality penalty) is NOT
// included: it is a VM parameter, not a property of the code, and is
// charged per constituent in the run loop.
func (c *Code) staticCost(in *Instr) int64 {
	cost := opRoles[in.Op].cost
	switch in.Op {
	case ir.Arith:
		switch in.AOp() {
		case ir.Mul:
			cost = CostMul
		case ir.Div, ir.Mod:
			cost = CostDiv
		}
		if in.Checked() {
			cost += CostOverflowChk
		}
	case ir.MkBlk:
		cost += int64(c.blocks[in.Aux].caps.n) * CostMkBlkPerCap
	}
	return cost
}

// instrSize is the modelled byte size of one linearized instruction —
// its op's size in opRoles, adjusted for what the instruction carries:
// what linearize charges into Code.Bytes, and what bbvMaterialize
// charges for the region a lazy code generator would emit.
func (c *Code) instrSize(in *Instr) int {
	switch {
	case in.Op == ir.Arith && in.Checked():
		return SizeArithChk
	case in.Op == ir.Send && in.Direct():
		return SizeCall
	case in.Op == ir.MkBlk:
		return SizeMkBlk + SizeMkBlkCap*int(c.blocks[in.Aux].caps.n)
	}
	return opRoles[in.Op].size
}
