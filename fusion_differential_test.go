package selfgo_test

import (
	"errors"
	"reflect"
	"testing"

	"selfgo"
	"selfgo/internal/bench"
)

// unfused returns cfg with superinstruction fusion disabled — the
// differential oracle configuration. Everything else (name included)
// stays identical so compiled code and cost accounting can be compared
// field by field.
func unfused(cfg selfgo.Config) selfgo.Config {
	cfg.NoSuperinstructions = true
	return cfg
}

// TestFusedVsUnfusedBenchmarks: superinstruction fusion is a host-speed
// optimization only. Every benchmark must produce the identical check
// value, identical full RunStats (cycles, instrs, sends, type tests,
// overflow/bounds checks, allocs, depth, and under bbv and both every
// versioning counter), and identical modelled code size with fusion on
// and off.
func TestFusedVsUnfusedBenchmarks(t *testing.T) {
	configs := []struct {
		cfg     selfgo.Config
		benches []bench.Benchmark
	}{
		{selfgo.NewSELF, bench.All()},
		{selfgo.OptimizedC, bench.All()},
		{selfgo.ST80, bench.ByGroup("small")},
		{bbvStrategyConfig(selfgo.StrategyBBV), bench.All()},
		{bbvStrategyConfig(selfgo.StrategyBoth), bench.All()},
	}
	for _, c := range configs {
		cfg := c.cfg
		t.Run(cfg.Name, func(t *testing.T) {
			for _, b := range c.benches {
				fused, err := bench.Run(b, cfg)
				if err != nil {
					t.Fatalf("%s fused: %v", b.Name, err)
				}
				plain, err := bench.Run(b, unfused(cfg))
				if err != nil {
					t.Fatalf("%s unfused: %v", b.Name, err)
				}
				if fused.Value != plain.Value {
					t.Errorf("%s: value fused=%d unfused=%d", b.Name, fused.Value, plain.Value)
				}
				if fused.Run != plain.Run {
					t.Errorf("%s: RunStats diverged:\nfused:   %+v\nunfused: %+v", b.Name, fused.Run, plain.Run)
				}
				if fused.CodeBytes != plain.CodeBytes || fused.Methods != plain.Methods {
					t.Errorf("%s: compile record diverged: fused=(%d bytes, %d methods) unfused=(%d bytes, %d methods)",
						b.Name, fused.CodeBytes, fused.Methods, plain.CodeBytes, plain.Methods)
				}
			}
		})
	}
}

// TestFusedVsUnfusedFaultBacktraces: faulting programs must fail the
// same way with fusion on and off — same error kind, same message, and
// the same Self-level backtrace, frame by frame, pcs included: a frame
// names the pc in the code as assembled (Code.sourcePC).
func TestFusedVsUnfusedFaultBacktraces(t *testing.T) {
	type faultCase struct {
		name  string
		cfg   selfgo.Config
		src   string
		entry string
		args  []selfgo.Value
	}
	cases := []faultCase{
		{
			// DNU under real activation frames (ST-80 keeps user sends
			// out of line) — the program from TestErrorKindDNU.
			name: "dnu depth",
			cfg:  selfgo.ST80,
			src: `
outer = ( middle ).
middle = ( inner ).
inner = ( 3 zorkify ).
`,
			entry: "outer",
		},
		{
			// Unchecked division by zero (StaticIdeal removes the
			// checks); the Div sits in fusable arithmetic context.
			name:  "unchecked div zero",
			cfg:   selfgo.OptimizedC,
			src:   `crash: n = ( (7 * 3) / n ).`,
			entry: "crash:",
			args:  []selfgo.Value{selfgo.IntValue(0)},
		},
		{
			// Unchecked element access out of bounds.
			name: "unchecked elem oob",
			cfg:  selfgo.OptimizedC,
			src: `
vecAt: i = ( | v | v: (vector copySize: 3 FillWith: 0). v at: i ).
`,
			entry: "vecAt:",
			args:  []selfgo.Value{selfgo.IntValue(99)},
		},
		{
			// Checked overflow cascading into the failure path.
			name:  "overflow",
			cfg:   selfgo.NewSELF,
			src:   `blow: n = ( (n * n) * n ).`,
			entry: "blow:",
			args:  []selfgo.Value{selfgo.IntValue(1 << 40)},
		},
	}
	// Under both versioning strategies: the overflow above and the
	// strategy oracle's fault programs.
	for _, strat := range []selfgo.Strategy{selfgo.StrategyBBV, selfgo.StrategyBoth} {
		cfg := bbvStrategyConfig(strat)
		ovf := cases[3]
		cases = append(cases, faultCase{ovf.name + " " + strat.String(), cfg, ovf.src, ovf.entry, ovf.args})
		for _, p := range bbvFaultPrograms {
			cases = append(cases, faultCase{p.name + " " + strat.String(), cfg, p.src, p.sel, nil})
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ferr := runFault(t, c.cfg, c.src, c.entry, c.args)
			perr := runFault(t, unfused(c.cfg), c.src, c.entry, c.args)
			if (ferr == nil) != (perr == nil) {
				t.Fatalf("error presence mismatch: fused=%v unfused=%v", ferr, perr)
			}
			if ferr == nil {
				return // both succeeded; covered by the benchmark test
			}
			fk, _ := selfgo.ErrorKind(ferr)
			pk, _ := selfgo.ErrorKind(perr)
			if fk != pk {
				t.Errorf("kind fused=%v unfused=%v", fk, pk)
			}
			var fre, pre *selfgo.RuntimeError
			if !errors.As(ferr, &fre) || !errors.As(perr, &pre) {
				t.Fatalf("not RuntimeErrors: fused=%T unfused=%T", ferr, perr)
			}
			if fre.Msg != pre.Msg {
				t.Errorf("message fused=%q unfused=%q", fre.Msg, pre.Msg)
			}
			if len(fre.Trace) != len(pre.Trace) {
				t.Fatalf("trace depth fused=%d unfused=%d\nfused:\n%s\nunfused:\n%s",
					len(fre.Trace), len(pre.Trace), fre.Backtrace(), pre.Backtrace())
			}
			for i := range fre.Trace {
				if fre.Trace[i] != pre.Trace[i] {
					t.Errorf("trace frame %d: fused=%q unfused=%q", i, fre.Trace[i], pre.Trace[i])
				}
			}
		})
	}
}

func runFault(t *testing.T, cfg selfgo.Config, src, entry string, args []selfgo.Value) error {
	t.Helper()
	sys, err := selfgo.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadSource(src); err != nil {
		t.Fatal(err)
	}
	_, err = sys.Call(entry, args...)
	return err
}

// FuzzFusionDifferential feeds arbitrary program text to fused and
// unfused code under a tight budget and fails on any observable
// divergence: value, RunStats, compile record, fault kind, message or
// backtrace, pcs included. A budget fault is no exception: polls sit on
// a grid of instruction counts (vm.poll), so both sides run out of fuel
// at the same instruction. Registered in ci.sh's fuzz smoke stage.
func FuzzFusionDifferential(f *testing.F) {
	for _, s := range fuzzEvalSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip()
		}
		for _, cfg := range []selfgo.Config{selfgo.NewSELF, selfgo.ST80,
			bbvStrategyConfig(selfgo.StrategyBBV), bbvStrategyConfig(selfgo.StrategyBoth)} {
			got, want := fuzzEval(t, cfg, src), fuzzEval(t, unfused(cfg), src)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s diverged:\nfused:   %+v\nunfused: %+v", cfg.Name, got, want)
			}
		}
	})
}
