package core

import (
	"reflect"
	"strings"
	"testing"

	"selfgo/internal/obj"
	"selfgo/internal/vm"
)

func allPresets() []Config {
	return []Config{NewSELF, NewSELFMultiLoop, NewSELFExtended, OldSELF89, OldSELF90, ST80, StaticIdealC}
}

// TestTierTableCoversEveryConfigField: the table-driven tier derivation
// exists so a new Config knob cannot silently be dropped from a tier —
// this test is the enforcement: every Config field must appear in
// tierTable exactly once, and every tierTable row must name a real
// field.
func TestTierTableCoversEveryConfigField(t *testing.T) {
	ct := reflect.TypeOf(Config{})
	want := map[string]bool{}
	for i := 0; i < ct.NumField(); i++ {
		want[ct.Field(i).Name] = false
	}
	for _, r := range tierTable {
		seen, ok := want[r.Field]
		if !ok {
			t.Errorf("tierTable names %q, which is not a Config field", r.Field)
			continue
		}
		if seen {
			t.Errorf("tierTable names %q twice", r.Field)
		}
		want[r.Field] = true
	}
	for f, seen := range want {
		if !seen {
			t.Errorf("Config field %q missing from tierTable: decide its baseline and degraded values", f)
		}
	}
}

// legacyDegraded is the hand-written field-by-field Degraded function
// this table replaced, kept verbatim as the oracle.
func legacyDegraded(c Config) Config {
	c.Name = c.Name + " (degraded)"
	c.TypeAnalysis = false
	c.RangeAnalysis = false
	c.InlineMethods = false
	c.LocalSplitting = false
	c.ExtendedSplitting = false
	c.IterativeLoops = false
	c.MultiVersionLoops = false
	c.MaxLoopIterations = 1
	c.MaxFlows = 2
	c.InlineDepth = 1
	c.InlineBudget = 0
	c.StaticIdeal = false
	c.ComparisonFacts = false
	c.AnnotateTypes = false
	return c
}

// TestTierDegradedMatchesLegacy: the table-derived degraded tier is
// exactly the old Degraded function on every preset.
func TestTierDegradedMatchesLegacy(t *testing.T) {
	for _, cfg := range allPresets() {
		got := TierDegraded.Apply(cfg)
		want := legacyDegraded(cfg)
		if got != want {
			t.Errorf("%s: TierDegraded.Apply diverges from legacy Degraded:\n got %+v\nwant %+v", cfg.Name, got, want)
		}
		if d := Degraded(cfg); d != want {
			t.Errorf("%s: Degraded() no longer matches its legacy behavior", cfg.Name)
		}
	}
}

// TestTierOptimizingIsIdentity: the optimizing tier is the base config
// untouched — the bit-identity guarantee for -tier=opt starts here.
func TestTierOptimizingIsIdentity(t *testing.T) {
	for _, cfg := range allPresets() {
		if got := TierOptimizing.Apply(cfg); got != cfg {
			t.Errorf("%s: TierOptimizing.Apply is not the identity:\n got %+v\nwant %+v", cfg.Name, got, cfg)
		}
	}
}

// TestTierBaselineShape: spot-check the baseline tier — heavy analysis
// off, dispatch mechanisms kept, name labeled.
func TestTierBaselineShape(t *testing.T) {
	b := TierBaseline.Apply(NewSELF)
	if b.Name != NewSELF.Name+" (baseline)" {
		t.Errorf("baseline name = %q", b.Name)
	}
	for name, got := range map[string]bool{
		"TypeAnalysis":      b.TypeAnalysis,
		"RangeAnalysis":     b.RangeAnalysis,
		"InlineMethods":     b.InlineMethods,
		"ExtendedSplitting": b.ExtendedSplitting,
		"IterativeLoops":    b.IterativeLoops,
		"MultiVersionLoops": b.MultiVersionLoops,
	} {
		if got {
			t.Errorf("baseline keeps %s on; it must be a cheap tier", name)
		}
	}
	// What makes baseline code still runnable and still profilable:
	// customization, primitive inlining, local splitting and the
	// IC/PIC machinery are preserved from the base config.
	if b.Customization != NewSELF.Customization ||
		b.InlinePrimitives != NewSELF.InlinePrimitives ||
		b.LocalSplitting != NewSELF.LocalSplitting ||
		b.PolymorphicInlineCaches != NewSELF.PolymorphicInlineCaches ||
		b.TypePrediction != NewSELF.TypePrediction {
		t.Errorf("baseline dropped a kept-from-base knob: %+v", b)
	}
	if b.MaxFlows != 4 || b.MaxLoopIterations != 1 || b.InlineDepth != 1 {
		t.Errorf("baseline limits wrong: MaxFlows=%d MaxLoopIterations=%d InlineDepth=%d",
			b.MaxFlows, b.MaxLoopIterations, b.InlineDepth)
	}
	// Degraded is strictly below baseline: everything baseline turns
	// off stays off, and splitting goes too.
	d := TierDegraded.Apply(NewSELF)
	if d.LocalSplitting || d.MaxFlows >= b.MaxFlows {
		t.Errorf("degraded not strictly below baseline: %+v", d)
	}
}

// TestTierOrderAndNames: tier ordering and labels are what the rest of
// the system keys on (Code.TierLabel, compile-log Tier).
func TestTierOrderAndNames(t *testing.T) {
	if !(TierDegraded < TierBaseline && TierBaseline < TierOptimizing) {
		t.Fatalf("tier order broken: %d %d %d", TierDegraded, TierBaseline, TierOptimizing)
	}
	for tier, want := range map[Tier]string{
		TierDegraded: "degraded", TierBaseline: "baseline", TierOptimizing: "optimizing",
	} {
		if tier.String() != want {
			t.Errorf("%d.String() = %q, want %q", tier, tier.String(), want)
		}
	}
	// TierDegraded..TierOptimizing is every tier: label lists are derived
	// from that range, so nothing named may lie past it.
	if s := (TierOptimizing + 1).String(); s != "tier(3)" {
		t.Errorf("a tier past TierOptimizing is named %q; label lists would miss it", s)
	}
}

// TestPipelinePassStats: a Pipeline compile fills the per-pass
// breakdown — ordered pass names, enablement reflecting the tier's
// config, events attributed, assemble measured.
func TestPipelinePassStats(t *testing.T) {
	w := buildWorld(t, triangleSrc)
	r := obj.Lookup(w.Lobby.Map, "triangleNumber:")
	p := NewPipeline(w, NewSELF, TierOptimizing)
	c, st, err := p.CompileMethod(r.Slot.Meth, w.Lobby.Map, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.TierLabel != "optimizing" {
		t.Errorf("TierLabel = %q", c.TierLabel)
	}
	if c.Origin.Meth != r.Slot.Meth || c.Origin.RMap != w.Lobby.Map {
		t.Errorf("Origin not recorded: %+v", c.Origin)
	}
	names := PassNames()
	if len(st.Passes) != len(names) {
		t.Fatalf("got %d pass stats, want %d", len(st.Passes), len(names))
	}
	for i, ps := range st.Passes {
		if ps.Name != names[i] {
			t.Errorf("pass %d = %q, want %q", i, ps.Name, names[i])
		}
	}
	byName := map[string]PassStat{}
	for _, ps := range st.Passes {
		byName[ps.Name] = ps
	}
	for _, name := range []string{"inline", "iterative-analysis", "split", "range", "assemble"} {
		if !byName[name].Enabled {
			t.Errorf("pass %q disabled under the optimizing tier of NewSELF", name)
		}
	}
	if byName["assemble"].Events != len(c.Instrs) {
		t.Errorf("assemble events = %d, want instruction count %d", byName["assemble"].Events, len(c.Instrs))
	}
	if byName["assemble"].Duration <= 0 {
		t.Error("assemble duration not measured")
	}
	if byName["inline"].Events == 0 {
		t.Error("triangleNumber: under NewSELF should inline something")
	}

	// The baseline tier reports its disabled passes.
	pb := NewPipeline(w, NewSELF, TierBaseline)
	_, stb, err := pb.CompileMethod(r.Slot.Meth, w.Lobby.Map, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range stb.Passes {
		switch ps.Name {
		case "inline":
			// InlinePrimitives is kept at baseline, so the pass stays
			// enabled; it just inlines no user methods.
			if !ps.Enabled {
				t.Error("baseline inline pass should stay enabled for primitives")
			}
		case "iterative-analysis", "range":
			if ps.Enabled {
				t.Errorf("baseline pass %q should be disabled", ps.Name)
			}
		}
	}
}

// TestPipelineDisablePass: the per-pass enable flag switches a pass's
// work off and is reported in the stats.
func TestPipelineDisablePass(t *testing.T) {
	w := buildWorld(t, triangleSrc)
	r := obj.Lookup(w.Lobby.Map, "triangleNumber:")
	p := NewPipeline(w, NewSELF, TierOptimizing)
	if err := p.DisablePass("range"); err != nil {
		t.Fatal(err)
	}
	if on, err := p.PassEnabled("range"); err != nil || on {
		t.Fatalf("range still enabled after DisablePass (err=%v)", err)
	}
	_, st, err := p.CompileMethod(r.Slot.Meth, w.Lobby.Map, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range st.Passes {
		if ps.Name == "range" && (ps.Enabled || ps.Events != 0) {
			t.Errorf("disabled range pass still reports activity: %+v", ps)
		}
	}
	if err := p.DisablePass("assemble"); err == nil {
		t.Error("assemble must not be disableable")
	}
	if err := p.DisablePass("no-such-pass"); err == nil {
		t.Error("unknown pass accepted")
	}
	if _, err := p.PassEnabled("no-such-pass"); err == nil {
		t.Error("unknown pass accepted by PassEnabled")
	}
}

// TestPipelineOptMatchesBareCompiler: driving the optimizing pipeline
// produces the same instruction stream and modelled quantities as
// driving Compiler+Assemble+Fuse by hand (the pre-refactor path) — the
// package-level half of the -tier=opt bit-identity guarantee.
func TestPipelineOptMatchesBareCompiler(t *testing.T) {
	// Duration is wall-clock and Passes is pipeline-only: zero both
	// before comparing. The pipeline redefines Nodes as assembled
	// instruction count, so the bare oracle gets the same treatment.
	scrub := func(s Stats) Stats {
		s.Duration = 0
		s.Passes = nil
		return s
	}
	for _, cfg := range allPresets() {
		w := buildWorld(t, triangleSrc)
		r := obj.Lookup(w.Lobby.Map, "triangleNumber:")
		rmap := w.Lobby.Map
		if !cfg.Customization {
			rmap = nil
		}
		p := NewPipeline(w, cfg, TierOptimizing)
		pc, pst, err := p.CompileMethod(r.Slot.Meth, rmap, nil)
		if err != nil {
			t.Fatalf("%s: pipeline: %v", cfg.Name, err)
		}
		g, bst, err := New(w, cfg).CompileMethod(r.Slot.Meth, rmap)
		if err != nil {
			t.Fatalf("%s: bare: %v", cfg.Name, err)
		}
		bc := vm.Assemble(g)
		if !cfg.NoSuperinstructions {
			vm.Fuse(bc)
		}
		bst.Nodes = len(bc.Instrs)
		if !reflect.DeepEqual(scrub(*pst), scrub(*bst)) {
			t.Errorf("%s: stats diverge:\npipeline %+v\nbare     %+v", cfg.Name, scrub(*pst), scrub(*bst))
		}
		if len(pc.Instrs) != len(bc.Instrs) || pc.Bytes != bc.Bytes || pc.NumRegs != bc.NumRegs {
			t.Errorf("%s: code diverges: %d/%d instrs, %d/%d bytes",
				cfg.Name, len(pc.Instrs), len(bc.Instrs), pc.Bytes, bc.Bytes)
		}
	}
}

// TestVersioningStrategiesRunFusedCode: no strategy selects the unfused
// stream — bbv and both version the same fused code split runs.
func TestVersioningStrategiesRunFusedCode(t *testing.T) {
	for _, strat := range []Strategy{StrategyBBV, StrategyBoth} {
		cfg := NewSELF
		cfg.Strategy = strat
		if ApplyStrategy(cfg).NoSuperinstructions {
			t.Errorf("%s: ApplyStrategy turned fusion off", strat)
		}
		w := buildWorld(t, triangleSrc)
		r := obj.Lookup(w.Lobby.Map, "triangleNumber:")
		c, _, err := NewPipeline(w, cfg, TierOptimizing).CompileMethod(r.Slot.Meth, w.Lobby.Map, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.BBVState() == nil || !strings.Contains(c.Disasm(), "fused{") {
			t.Errorf("%s: want versioned fused code, got:\n%s", strat, c.Disasm())
		}
	}
}
