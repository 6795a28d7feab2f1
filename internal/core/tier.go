package core

import (
	"fmt"
	"reflect"
)

// Tier is a first-class compilation tier: a named transformation of a
// base Config. The optimizing tier is the configuration itself (the
// paper's eager compiler); the baseline tier is the cheap first tier
// of the adaptive system (compile fast, count executions, recompile
// hot methods at the optimizing tier with type feedback); the degraded
// tier is the fault-containment fallback used when an optimizing
// compilation fails or panics.
//
// Every tier is derived from the single tierTable below, so a new
// Config knob cannot silently be dropped from one tier's derivation:
// the table names every field exactly once (enforced by a reflection
// test), and Apply refuses fields the table does not know.
type Tier int

const (
	// TierDegraded is the fault-containment fallback: splitting,
	// method inlining, type and range analysis, multi-version loops,
	// comparison facts and the static-ideal check removal are switched
	// off, landing on the simple, well-exercised ST-80-shaped
	// repertoire (robust inlined primitives, special-selector
	// prediction, pessimistic loops). Degraded code is slower but
	// carries every run-time check, so a bug in an optimization pass
	// degrades one method's code quality instead of failing the
	// request.
	TierDegraded Tier = iota

	// TierBaseline is the cheap first tier of adaptive compilation:
	// like the degraded tier it skips type analysis, method inlining
	// and iterative loops, but it keeps local splitting (the '89
	// compiler's cheap one-merge-deep form) and a slightly wider flow
	// budget — fast to compile, honest about every check, and leaving
	// user-method sends as dispatched calls whose inline caches feed
	// the optimizing recompile.
	TierBaseline

	// TierOptimizing is the configuration as given: the paper's full
	// eager repertoire (whatever the preset enables). Apply is the
	// identity for this tier. It is the top tier — adaptive promotion
	// stops here — and the last value, so TierDegraded..TierOptimizing
	// enumerates every tier: tier labels in metrics and reports are
	// derived from that range, never spelled out.
	TierOptimizing
)

func (t Tier) String() string {
	switch t {
	case TierDegraded:
		return "degraded"
	case TierBaseline:
		return "baseline"
	case TierOptimizing:
		return "optimizing"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// keep is the tierTable marker for "inherit the base Config's value".
type keepT struct{}

var keep keepT

// tierRule says what each non-optimizing tier does to one Config
// field: keep the base value, or force the given one. The optimizing
// tier always keeps everything.
type tierRule struct {
	Field    string
	Baseline any
	Degraded any
}

// tierTable is the single source of truth for tier derivation. It must
// name every Config field exactly once — TestTierTableCoversConfig
// fails the build's test run when a new knob is added without deciding
// what the baseline and degraded tiers do with it.
var tierTable = []tierRule{
	{"Name", keep, keep}, // Apply appends the tier suffix itself
	{"Customization", keep, keep},
	{"TypeAnalysis", false, false},
	{"RangeAnalysis", false, false},
	{"TypePrediction", keep, keep},
	{"InlineMethods", false, false},
	{"InlinePrimitives", keep, keep},
	{"LocalSplitting", keep, false},
	{"ExtendedSplitting", false, false},
	{"SplitNodeThreshold", keep, keep},
	{"MaxFlows", 4, 2},
	{"IterativeLoops", false, false},
	{"MultiVersionLoops", false, false},
	{"MaxLoopIterations", 1, 1},
	{"InlineDepth", 1, 1},
	{"InlineBudget", 0, 0},
	{"StaticIdeal", false, false},
	{"CallSiteICMissHandlers", keep, keep},
	{"PolymorphicInlineCaches", keep, keep},
	{"SendOverheadExtra", keep, keep},
	{"ComparisonFacts", false, false},
	{"AnnotateTypes", false, false},
	{"PerInstrOverhead", keep, keep},
	// The degraded tier is the fault-containment path: it falls back
	// to the eager-split world (no version tables, no run-time
	// specialization machinery) so a bug in BBV materialization
	// degrades code quality instead of the request. Baseline keeps the
	// strategy: cheap stub code is exactly what BBV wants to version.
	{"Strategy", keep, StrategySplit},
}

// Apply derives the tier's configuration from base. TierOptimizing
// returns base unchanged (the differential tests pin this: an opt-tier
// system is bit-identical to compiling base directly). Other tiers
// rewrite each field per tierTable and suffix the name.
func (t Tier) Apply(base Config) Config {
	if t == TierOptimizing {
		return base
	}
	c := base
	v := reflect.ValueOf(&c).Elem()
	for _, r := range tierTable {
		var act any
		switch t {
		case TierDegraded:
			act = r.Degraded
		default:
			act = r.Baseline
		}
		if _, isKeep := act.(keepT); isKeep {
			continue
		}
		f := v.FieldByName(r.Field)
		if !f.IsValid() {
			panic("core: tier table names unknown Config field " + r.Field)
		}
		f.Set(reflect.ValueOf(act).Convert(f.Type()))
	}
	c.Name = base.Name + " (" + t.String() + ")"
	return c
}
