package selfgo

import (
	"testing"

	"selfgo/internal/ir"
	"selfgo/internal/vm"
)

// Bridges for the external test package (selfgo_test), which is where
// the benchmark-driven oracles must live (internal/bench imports this
// package).

// ConformanceProgram is one entry of conformancePrograms.
type ConformanceProgram struct {
	Name, Src, Sel string
	Args           []Value
}

// ConformancePrograms exposes the conformance table.
func ConformancePrograms() []ConformanceProgram {
	out := make([]ConformanceProgram, len(conformancePrograms))
	for i, p := range conformancePrograms {
		out[i] = ConformanceProgram{Name: p.name, Src: p.src, Sel: p.sel, Args: p.args}
	}
	return out
}

// WithRawAssembly runs f with the assembler returning un-allocated code
// (every virtual register its own frame slot, as before register
// allocation existed) — the reference side of the allocation
// differentials. f must not leave compilations running.
func WithRawAssembly(f func()) {
	vm.TestHookAssemble = func(raw, _ *vm.Code) *vm.Code { return raw }
	defer func() { vm.TestHookAssemble = nil }()
	f()
}

// WithPoisonedReleases runs f with ir.TestPoisonReleases on: every
// loop simulation's release overwrites the nodes and env chunks it
// frees instead of recycling them. f must not leave compilations
// running.
func WithPoisonedReleases(f func()) {
	ir.TestPoisonReleases = true
	defer func() { ir.TestPoisonReleases = false }()
	f()
}

// WithCheckedAssembly runs f with vm.CheckAllocation applied to every
// Code assembled meanwhile, failing t on the first violation, and
// returns how many Codes it saw. f must compile on the calling
// goroutine only.
func WithCheckedAssembly(t testing.TB, f func()) (checked int) {
	vm.TestHookAssemble = func(raw, c *vm.Code) *vm.Code {
		checked++
		if err := vm.CheckAllocation(raw, c); err != nil {
			t.Errorf("register allocation: %v", err)
		}
		return c
	}
	defer func() { vm.TestHookAssemble = nil }()
	f()
	return checked
}
