package selfgo

import (
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
	Want           int64 // 0: no known value, only agreement
}

// ConformancePrograms exposes the conformance table.
func ConformancePrograms() []ConformanceProgram {
	out := make([]ConformanceProgram, len(conformancePrograms))
	for i, p := range conformancePrograms {
		out[i] = ConformanceProgram{Name: p.name, Src: p.src, Sel: p.sel, Args: p.args, Want: p.want}
	}
	return out
}

// RandomProgram is progGen's program for seed: a fuzzMain method over
// nVars integer locals and nVecs vectors, nStmts statements long.
func RandomProgram(seed int64, nVars, nVecs, nStmts int) string {
	return newProgGen(seed).generate(nVars, nVecs, nStmts)
}

// WithUnfusedAssembly runs f with vm.TestNoFuse on: every Code
// assembled meanwhile stays unfused — the reference side of the fusion
// differentials. f must not leave compilations running.
func WithUnfusedAssembly(f func()) {
	vm.TestNoFuse = true
	defer func() { vm.TestNoFuse = false }()
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
