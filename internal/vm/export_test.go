package vm

import "selfgo/internal/obj"

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
	SizeOf      = instrSize
	StaticCost  = staticCost
	FusedHeadOp = fusedHeadOp
)
