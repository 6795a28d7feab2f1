package selfgo_test

import (
	"fmt"
	"testing"

	"selfgo"
)

// The across-presets and across-strategies rows: every compiler
// configuration must compute the same value on every program — the
// optimizations may never change semantics.

// agreeAcrossPresets runs p under each of cfgs that the matrix keeps
// (each must return a value, the first also want when want is nonzero)
// and demands one value; it skips t when fewer than two are kept.
func agreeAcrossPresets(t *testing.T, p *program, cfgs []selfgo.Config) {
	t.Helper()
	cs := reduce(cells([]*program{p}, shipped, cfgs...))
	if len(cs) < 2 {
		t.Skipf("the reduced matrix keeps %d of %d presets", len(cs), len(cfgs))
	}
	var ref *outcome
	for _, c := range cs {
		o := get(t, c)
		switch {
		case o.Msg != "":
			t.Errorf("%s: %s\n%s", c, o.Msg, p.src)
		case ref == nil:
			ref = o
			if p.want != 0 && o.Value != fmt.Sprint(p.want) {
				t.Errorf("%s: got %s, want %d", c, o.Value, p.want)
			}
		case o.Value != ref.Value:
			t.Errorf("%s computed %s, the first preset %s\n%s", c, o.Value, ref.Value, p.src)
		}
	}
}

// TestConformanceAcrossConfigs runs each conformance program under
// every system and demands agreement (and the known value where
// stated).
func TestConformanceAcrossConfigs(t *testing.T) {
	for _, p := range conformance {
		t.Run(p.name, func(t *testing.T) { agreeAcrossPresets(t, p, selfgo.Configs()) })
	}
}

// randomPrograms are progGen's programs for seeds from..from+n-1; the
// first eight are light.
func randomPrograms(from, n int64, nVars, nVecs, nStmts int) []*program {
	var out []*program
	for seed := from; seed < from+n; seed++ {
		out = append(out, &program{name: fmt.Sprintf("seed%d", seed), sel: "fuzzMain",
			src: selfgo.RandomProgram(seed, nVars, nVecs, nStmts), light: seed < from+8})
	}
	return out
}

// TestDifferentialRandomPrograms cross-checks all six compiler
// configurations on generated programs: any disagreement is a
// miscompilation in one of them. Under the two presets that shape code
// most differently (everything out of line; everything inlined) the
// run must also be bit-identical to one on un-allocated code and to
// one on unfused code.
func TestDifferentialRandomPrograms(t *testing.T) {
	for _, p := range randomPrograms(0, 40, 4, 2, 12) {
		if len(reduce([]cell{at(p, selfgo.ST80)})) == 0 {
			continue
		}
		t.Run(p.name, func(t *testing.T) {
			agreeAcrossPresets(t, p, selfgo.Configs())
			for _, cfg := range []selfgo.Config{selfgo.ST80, selfgo.NewSELF} {
				for _, c := range reduce([]cell{at(p, cfg).as(raw), at(p, cfg).as(unfused)}) {
					identical(t, c)
				}
			}
		})
	}
}

// TestDifferentialWithFacts also crosses the §7 comparison-facts
// extension against the baseline on vector-heavy programs.
func TestDifferentialWithFacts(t *testing.T) {
	facts := selfgo.NewSELF
	facts.Name = "new SELF + facts"
	facts.ComparisonFacts = true
	for _, p := range randomPrograms(100, 20, 3, 3, 10) {
		t.Run(p.name, func(t *testing.T) {
			agreeAcrossPresets(t, p, []selfgo.Config{selfgo.NewSELF, facts, selfgo.NewSELFExtended})
		})
	}
}

// TestBBVConformanceAcrossStrategies runs every conformance program
// under split, bbv and both: all three strategies must compute
// bit-identical values. Modelled cycles legitimately differ (versioning
// charges different instruction streams) so they are asserted recorded,
// never equal — across strategies; within bbv and both, fused and
// unfused code must run bit-identically.
func TestBBVConformanceAcrossStrategies(t *testing.T) {
	for _, p := range conformance {
		cs := reduce(strategyCells(at(p, selfgo.NewSELF)))
		if len(cs) < len(strategies) {
			continue
		}
		t.Run(p.name, func(t *testing.T) {
			versionsAcrossStrategies(t, cs)
			if got := get(t, cs[0]).Value; p.want != 0 && got != fmt.Sprint(p.want) {
				t.Errorf("%s: got %s, want %d", cs[0], got, p.want)
			}
			// Versions over fused code are the unfused stream's.
			for _, c := range cs[1:] {
				identical(t, c.as(unfused))
			}
		})
	}
}
