package selfgo_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"selfgo"
	"selfgo/internal/bench"
	"selfgo/internal/vm"
)

// allocProgram is one thing the allocation oracles run: source, entry,
// arguments.
type allocProgram struct {
	name, src, sel string
	args           []selfgo.Value
}

// allocPrograms is the 21 benchmarks plus every conformance program.
func allocPrograms() []allocProgram {
	var out []allocProgram
	for _, b := range bench.All() {
		out = append(out, allocProgram{name: b.Name, src: b.Source, sel: b.Entry})
	}
	for _, p := range selfgo.ConformancePrograms() {
		out = append(out, allocProgram{name: p.Name, src: p.Src, sel: p.Sel, args: p.Args})
	}
	return out
}

// allocFaultPrograms fault at the bottom of real activations, so the
// differential can compare backtraces pc by pc.
func allocFaultPrograms() []allocProgram {
	var out []allocProgram
	for _, p := range bbvFaultPrograms {
		out = append(out, allocProgram{name: p.name, src: p.src, sel: p.sel})
	}
	return append(out,
		allocProgram{name: "overflow", src: `blow: n = ( (n * n) * n ).`, sel: "blow:",
			args: []selfgo.Value{selfgo.IntValue(1 << 40)}},
		allocProgram{name: "dead-home-nlr", src: `
		mkRet = ( [ ^ 5 ] ).
		go = ( mkRet value ).`, sel: "go"},
		allocProgram{name: "fault-under-nlr-landing", src: `
		find: n In: v = ( v do: [ :e | (e = n) ifTrue: [ ^ e zork ] ]. 0 ).
		go = ( | v | v: vector copySize: 4 FillWith: 7. 1 + (find: 7 In: v) ).`, sel: "go"},
	)
}

// allocOutcome is everything observable about one cold run.
type allocOutcome struct {
	Value   string
	Run     selfgo.RunStats
	Compile selfgo.CompileRecord
	Kind    selfgo.ErrKind
	Msg     string
	Trace   []vm.TraceFrame
}

func allocRun(t *testing.T, cfg selfgo.Config, mode selfgo.TierMode, p allocProgram, budget selfgo.Budget) allocOutcome {
	t.Helper()
	sys, err := selfgo.NewTieredSystem(cfg, mode, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetBudget(budget)
	if err := sys.LoadSource(p.src); err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	res, err := sys.Call(p.sel, p.args...)
	if err != nil {
		var re *selfgo.RuntimeError
		if !errors.As(err, &re) {
			t.Fatalf("%s under %s: %v", p.name, cfg.Name, err)
		}
		return allocOutcome{Kind: re.Kind, Msg: re.Msg, Trace: re.Trace}
	}
	return allocOutcome{Value: res.Value.String(), Run: res.Run, Compile: res.Compile}
}

// TestRegAllocChecked runs vm.CheckAllocation — the allocator's
// independent oracle — over every Code the benchmarks and conformance
// programs compile, under every preset, both eager tiers and all three
// strategies. Each preset's own cell (optimizing tier, split) runs the
// programs to completion; the other cells stop each program after its
// first 300k instructions, by which time the long-running benchmarks
// have compiled what they compile and are only looping. (-short: the
// own cells, on the last eight programs. Under the race detector, which
// has nothing to find in a single-goroutine oracle and makes it cost
// minutes: the own cells of ST-80 and new SELF.)
func TestRegAllocChecked(t *testing.T) {
	progs := allocPrograms()
	strategies := []selfgo.Strategy{selfgo.StrategySplit, selfgo.StrategyBBV, selfgo.StrategyBoth}
	modes := []selfgo.TierMode{selfgo.ModeOpt, selfgo.ModeBaseline}
	presets := selfgo.Configs()
	if testing.Short() || raceBuild {
		strategies, modes = strategies[:1], modes[:1]
	}
	if testing.Short() {
		progs = progs[len(progs)-8:]
	}
	if raceBuild {
		presets = []selfgo.Config{selfgo.ST80, selfgo.NewSELF}
	}
	for _, cfg := range presets {
		for _, strat := range strategies {
			for _, mode := range modes {
				cfg, mode := cfg, mode
				cfg.Strategy = strat
				var budget selfgo.Budget
				if strat != selfgo.StrategySplit || mode != selfgo.ModeOpt {
					budget.MaxInstrs = 300_000
				}
				t.Run(fmt.Sprintf("%s/%s/%s", cfg.Name, strat, mode), func(t *testing.T) {
					n := selfgo.WithCheckedAssembly(t, func() {
						for _, p := range progs {
							out := allocRun(t, cfg, mode, p, budget)
							if out.Msg != "" && (out.Kind != selfgo.KindOutOfFuel || budget.MaxInstrs == 0) {
								t.Errorf("%s: %s", p.name, out.Msg)
							}
						}
					})
					if n < len(progs) {
						t.Errorf("only %d allocations checked for %d programs", n, len(progs))
					}
				})
			}
		}
	}
}

// TestRegAllocBitIdentical: register allocation is a renaming, so a
// run on allocated code and a run on the raw linearization must agree
// on the value, the whole RunStats, the compile record and — for the
// faulting programs — kind, message and every backtrace frame, pcs
// included. Under the versioning strategies a dead register's stale
// fact no longer splits contexts, so the BBV counters may only fall
// (and with fewer cap hits more tests are elided); there the value and
// the fault are compared.
func TestRegAllocBitIdentical(t *testing.T) {
	progs := append(allocPrograms(), allocFaultPrograms()...)
	if testing.Short() {
		progs = progs[len(progs)-15:]
	}
	cfgs := []selfgo.Config{selfgo.NewSELF, selfgo.ST80, selfgo.OptimizedC,
		bbvStrategyConfig(selfgo.StrategyBBV), bbvStrategyConfig(selfgo.StrategyBoth)}
	if raceBuild {
		cfgs = cfgs[:1] // see TestRegAllocChecked
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			for _, p := range progs {
				if p.name == "puzzle" && cfg.Name != selfgo.NewSELF.Name {
					continue // half the suite's instructions; once is enough
				}
				got := allocRun(t, cfg, selfgo.ModeOpt, p, selfgo.Budget{})
				var want allocOutcome
				selfgo.WithRawAssembly(func() { want = allocRun(t, cfg, selfgo.ModeOpt, p, selfgo.Budget{}) })
				if cfg.Strategy != selfgo.StrategySplit {
					if got.Run.BBVVersions > want.Run.BBVVersions || got.Run.BBVCapHits > want.Run.BBVCapHits {
						t.Errorf("%s: versions %d / cap hits %d rose from %d / %d", p.name,
							got.Run.BBVVersions, got.Run.BBVCapHits, want.Run.BBVVersions, want.Run.BBVCapHits)
					}
					got.Run, want.Run = selfgo.RunStats{}, selfgo.RunStats{}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s diverged:\nallocated: %+v\nraw:       %+v", p.name, got, want)
				}
			}
		})
	}
}

// FuzzRegAllocDifferential feeds arbitrary program text to allocated
// and raw code under a tight budget, checking every allocation on the
// way, and fails on any observable divergence: value, RunStats, fault
// kind, message or backtrace. Registered in ci.sh's fuzz smoke stage.
func FuzzRegAllocDifferential(f *testing.F) {
	for _, s := range []string{
		"3 + 4 * 2",
		"| s <- 0 | 1 upTo: 100 Do: [ :i | s: s + i ]. s",
		"| v | v: vector copySize: 10. v fillFrom: [ :i | i * i ]. (v at: 3) + v size",
		"[ :x | x * 2 ] value: 21",
		"| b. n <- 0 | b: [ :x | n: n + x. n ]. (b value: 2) + (b value: 3)",
		"| v | v: vector copySize: 5 FillWith: 3. v do: [ :e | (e = 3) ifTrue: [ ^ e ] ]. 0",
		"1 / 0",
		"nil zork",
		"(9000000000000000000 * 9000000000000000000) + 1",
		"| v | v: (vector copySize: 2 FillWith: 0). v at: 17",
	} {
		f.Add(s)
	}
	eval := func(t *testing.T, src string) allocOutcome {
		sys, err := selfgo.NewSystem(selfgo.NewSELF)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetBudget(selfgo.Budget{MaxInstrs: 200_000, MaxDepth: 200, MaxAllocs: 100_000})
		res, err := sys.Eval(src)
		if err != nil {
			var re *selfgo.RuntimeError
			if errors.As(err, &re) {
				return allocOutcome{Kind: re.Kind, Msg: re.Msg, Trace: re.Trace}
			}
			return allocOutcome{Msg: err.Error()} // parse and compile errors
		}
		return allocOutcome{Value: res.Value.String(), Run: res.Run, Compile: res.Compile}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip()
		}
		var got, want allocOutcome
		selfgo.WithCheckedAssembly(t, func() { got = eval(t, src) })
		selfgo.WithRawAssembly(func() { want = eval(t, src) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("diverged:\nallocated: %+v\nraw:       %+v", got, want)
		}
	})
}
