package selfgo_test

import (
	"testing"

	"selfgo"
)

// TestFusedVsUnfusedBenchmarks: superinstruction fusion is a host-speed
// optimization only. Every benchmark must produce the identical check
// value, identical full RunStats (cycles, instrs, sends, type tests,
// overflow/bounds checks, allocs, depth, and under bbv and both every
// versioning counter), the identical compile record, and the same code
// up to fusion with fusion on and off.
func TestFusedVsUnfusedBenchmarks(t *testing.T) {
	var small []*program // the light benchmarks: the small group
	for _, p := range benchmarks {
		if p.light {
			small = append(small, p)
		}
	}
	for _, c := range []struct {
		cfg   selfgo.Config
		progs []*program
	}{
		{selfgo.NewSELF, benchmarks},
		{selfgo.OptimizedC, benchmarks},
		{selfgo.ST80, small},
		{withStrategy(selfgo.NewSELF, selfgo.StrategyBBV), benchmarks},
		{withStrategy(selfgo.NewSELF, selfgo.StrategyBoth), benchmarks},
	} {
		if cs := reduce(cells(c.progs, unfused, c.cfg)); len(cs) > 0 {
			t.Run(c.cfg.Name, func(t *testing.T) {
				for _, c := range cs {
					identical(t, c)
				}
			})
		}
	}
}

// TestFusedVsUnfusedFaultBacktraces: faulting programs must fail the
// same way with fusion on and off — same error kind, same message, and
// the same Self-level backtrace, frame by frame, pcs included: a frame
// names the pc in the code as assembled (Code.sourcePC). Every fault
// program runs under its own preset, and under that preset with bbv
// and with both.
func TestFusedVsUnfusedFaultBacktraces(t *testing.T) {
	for _, f := range faults {
		for _, strat := range strategies {
			name, cfg := f.name, withStrategy(f.preset, strat)
			if strat != selfgo.StrategySplit {
				name += " " + strat.String()
			}
			if cs := reduce([]cell{at(f, cfg).as(unfused)}); len(cs) > 0 {
				t.Run(name, func(t *testing.T) { identical(t, cs[0]) })
			}
		}
	}
}

// FuzzFusionDifferential feeds arbitrary program text to fused and
// unfused code under a tight budget and fails on any observable
// divergence: value, RunStats, compile record, fault kind, message or
// backtrace, pcs included. A budget fault is no exception: polls sit on
// a grid of instruction counts (vm.poll), so both sides run out of fuel
// at the same instruction. Registered in ci.sh's fuzz smoke stage.
func FuzzFusionDifferential(f *testing.F) {
	for _, s := range evalSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip()
		}
		for _, cfg := range []selfgo.Config{selfgo.NewSELF, selfgo.ST80,
			withStrategy(selfgo.NewSELF, selfgo.StrategyBBV), withStrategy(selfgo.NewSELF, selfgo.StrategyBoth)} {
			identical(t, evalCell(src, cfg).as(unfused))
		}
	})
}
