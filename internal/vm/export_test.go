package vm

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

// SourcePC exposes Code.sourcePC.
func (c *Code) SourcePC(pc, within int) int { return c.sourcePC(pc, within) }

var (
	SizeOf      = sizeOf
	StaticCost  = staticCost
	FusedHeadOp = fusedHeadOp
)
