// Package bench contains the paper's benchmark programs written in the
// selfgo dialect — the Stanford integer suite, its object-oriented
// rewrites, the "small" micro suite, and richards — plus the harness
// that measures them under every compiler configuration and regenerates
// the tables of §6 and Appendices A–C.
package bench

import (
	"fmt"
	"time"

	"selfgo"
)

// Benchmark is one program: lobby slot definitions plus a unary entry
// selector that runs it and returns an integer check value.
type Benchmark struct {
	Name   string
	Group  string // "small", "stanford", "stanford-oo", "richards"
	Source string
	Entry  string

	// Expect is the known-correct result (verified against the
	// published benchmark where one exists); Expect==0 && !HasExpect
	// means only cross-configuration consistency is checked.
	Expect    int64
	HasExpect bool

	// ParallelSafe marks benchmarks whose runs touch no shared mutable
	// state (no lobby-level data slots: all mutation happens in method
	// locals or objects cloned per run), so N worker VMs can run them
	// concurrently against one world. The plain Stanford programs keep
	// their state in lobby globals, exactly like the C originals, and
	// are excluded from concurrent mode.
	ParallelSafe bool
}

// All returns every benchmark in presentation order (the order of the
// paper's appendices).
func All() []Benchmark {
	var out []Benchmark
	out = append(out, Stanford()...)
	out = append(out, StanfordOO()...)
	out = append(out, Small()...)
	out = append(out, Richards())
	return out
}

// ByGroup filters All() by group name.
func ByGroup(group string) []Benchmark {
	var out []Benchmark
	for _, b := range All() {
		if b.Group == group {
			out = append(out, b)
		}
	}
	return out
}

// ByName finds a benchmark.
func ByName(name string) (Benchmark, bool) {
	for _, b := range All() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// ParallelSafe returns the benchmarks that can run on concurrent
// worker VMs sharing one world.
func ParallelSafe() []Benchmark {
	var out []Benchmark
	for _, b := range All() {
		if b.ParallelSafe {
			out = append(out, b)
		}
	}
	return out
}

// Measurement is one (benchmark, configuration) data point.
type Measurement struct {
	Bench  string
	Group  string
	Config string

	Value       int64 // the program's check value
	Cycles      int64 // modelled execution cycles
	Run         selfgo.RunStats
	CompileTime time.Duration // compiler time for all methods the run forced
	CodeBytes   int           // bytes of compiled code produced
	Methods     int           // methods (and blocks) compiled
	NodesBuilt  int64         // IR nodes the compiler built for them …
	NodesKept   int64         // … and how many survived into code
}

// Run measures one benchmark under one configuration with a fresh
// system (cold code cache, as in the paper's methodology: compile time
// and code space are what the benchmark forces the dynamic compiler to
// produce).
func Run(b Benchmark, cfg selfgo.Config) (*Measurement, error) {
	sys, err := selfgo.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.LoadSource(b.Source); err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	res, err := sys.Call(b.Entry)
	if err != nil {
		return nil, fmt.Errorf("%s under %s: %w", b.Name, cfg.Name, err)
	}
	if b.HasExpect && res.Value.I() != b.Expect {
		return nil, fmt.Errorf("%s under %s: got %d, want %d", b.Name, cfg.Name, res.Value.I(), b.Expect)
	}
	built, kept := sys.CompileNodes()
	return &Measurement{
		Bench:       b.Name,
		Group:       b.Group,
		Config:      cfg.Name,
		Value:       res.Value.I(),
		Cycles:      res.Run.Cycles,
		Run:         res.Run,
		CompileTime: res.CompileTime,
		CodeBytes:   res.Compile.CodeBytes,
		Methods:     res.Compile.Methods,
		NodesBuilt:  built,
		NodesKept:   kept,
	}, nil
}
