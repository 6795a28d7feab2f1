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

// fuzzEvalSeeds seeds the differential fuzz targets that evaluate
// arbitrary program text: values, loops, vectors, closures, non-local
// returns and each kind of fault.
var fuzzEvalSeeds = []string{
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
	"| s <- 0 | [ true ] whileTrue: [ s: s + 1 ]. s", // runs out of fuel
}

// fuzzEval evaluates src on a fresh system under a tight budget and
// returns everything observable: value, RunStats and compile record, or
// the fault's kind, message and backtrace.
func fuzzEval(t *testing.T, cfg selfgo.Config, src string) allocOutcome {
	sys, err := selfgo.NewSystem(cfg)
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

// FuzzRegAllocDifferential feeds arbitrary program text to allocated
// and raw code under a tight budget, checking every allocation on the
// way, and fails on any observable divergence: value, RunStats, fault
// kind, message or backtrace (pcs included — the two sides fuse
// differently, raw code having no self-moves to absorb, and a backtrace
// names pcs of the code as assembled). Registered in ci.sh's fuzz smoke
// stage.
func FuzzRegAllocDifferential(f *testing.F) {
	for _, s := range fuzzEvalSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip()
		}
		var got, want allocOutcome
		selfgo.WithCheckedAssembly(t, func() { got = fuzzEval(t, selfgo.NewSELF, src) })
		selfgo.WithRawAssembly(func() { want = fuzzEval(t, selfgo.NewSELF, src) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("diverged:\nallocated: %+v\nraw:       %+v", got, want)
		}
	})
}

// TestCoalescingCostsNoFrameStorage: coalescing copies gives a class of
// registers one slot, which can only cost a frame slots, never save
// them — so it is pinned that it costs (next to) none. Over the Codes
// the 21 benchmarks compile under new SELF the slots sum to no more
// than 5% above the 658 they took before copies were coalesced, and no
// Code needs a bigger frame size class (pool.go: powers of two from 8)
// than it did then; widthBefore lists every Code that was past the
// smallest class.
func TestCoalescingCostsNoFrameStorage(t *testing.T) {
	widthBefore := map[string]int{
		"lobby>>permGen:N:": 9, "lobby>>towersBench": 15, "lobby>>towMove:From:To:Via:": 24,
		"lobby>>qnTry:": 10, "lobby>>intmmBench": 15, "lobby>>puzzleBench": 21,
		"lobby>>pzPlace:At:": 10, "lobby>>pzRemove:At:": 10, "lobby>>quickBench": 13,
		"lobby>>qsSort:Lo:Hi:": 11, "lobby>>bubbleBench": 10, "lobby>>treeBench": 12,
		"lobby>>trInsert:At:": 9, "obj@2:12>>permute:": 9, "obj@16:14>>move:From:To:Via:": 9,
		"obj@2:15>>try:": 10, "lobby>>intmmOOBench": 17, "block@22:27": 9,
		"lobby>>quickOOBench": 24, "obj@2:12>>quickLo:Hi:": 10, "lobby>>bubbleOOBench": 15,
		"lobby>>treeOOBench": 10, "lobby>>sieveBench": 9, "obj@149:19>>runPacket:": 9,
	}
	class := func(n int) int {
		c := 8
		for c < n {
			c <<= 1
		}
		return c
	}
	total, codes := 0, 0
	vm.TestHookAssemble = func(_, c *vm.Code) *vm.Code {
		total += c.NumRegs
		codes++
		before, ok := widthBefore[c.Name]
		if !ok {
			before = 8
		}
		if class(c.NumRegs) > class(before) {
			t.Errorf("%s takes %d slots (size class %d), took %d (class %d) before coalescing",
				c.Name, c.NumRegs, class(c.NumRegs), before, class(before))
		}
		return c
	}
	defer func() { vm.TestHookAssemble = nil }()
	for _, b := range bench.All() {
		allocRun(t, selfgo.NewSELF, selfgo.ModeOpt, allocProgram{name: b.Name, src: b.Source, sel: b.Entry}, selfgo.Budget{})
	}
	t.Logf("%d Codes, %d slots", codes, total)
	if codes != 103 {
		t.Errorf("the suite compiled %d Codes, not the 103 the bound was taken over", codes)
	}
	if limit := 658 * 105 / 100; total > limit {
		t.Errorf("the suite's Codes take %d slots, more than %d (658 before coalescing, +5%%)", total, limit)
	}
}
