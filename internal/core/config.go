// Package core implements the paper's contribution: the intermediate
// compiler phase that builds a control flow graph from source while
// simultaneously performing type analysis, message and primitive
// inlining, type prediction, extended message splitting (§4), and
// iterative type analysis with multi-version loops (§5).
//
// A Config selects which generation of compiler to emulate, so the same
// pipeline reproduces the paper's five measured systems.
package core

import (
	"fmt"
	"time"
)

// Strategy selects how the system removes type tests: the paper's
// eager iterative analysis + extended splitting, lazy basic-block
// versioning (Chevalier-Boisvert & Feeley) with typed object shapes,
// or both at once. It is an axis orthogonal to tiers: any tier of any
// preset can run under any strategy.
type Strategy uint8

const (
	// StrategySplit is the paper's system as measured: all
	// specialization happens eagerly at compile time. The zero value,
	// so every existing preset and saved config is unchanged.
	StrategySplit Strategy = iota

	// StrategyBBV turns the eager analysis off and relies on lazy
	// basic-block versioning at run time: code compiles as an
	// unspecialized stub and blocks specialize per entry type context
	// on first execution (internal/bbv).
	StrategyBBV

	// StrategyBoth layers BBV on top of the full eager repertoire:
	// splitting removes what analysis proves, versioning removes what
	// only run-time contexts prove (shape facts, cross-merge facts the
	// split budget dropped).
	StrategyBoth
)

func (s Strategy) String() string {
	switch s {
	case StrategySplit:
		return "split"
	case StrategyBBV:
		return "bbv"
	case StrategyBoth:
		return "both"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// ParseStrategy maps a -strategy flag value to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "split", "":
		return StrategySplit, nil
	case "bbv":
		return StrategyBBV, nil
	case "both":
		return StrategyBoth, nil
	}
	return StrategySplit, fmt.Errorf("unknown strategy %q (want split, bbv or both)", name)
}

// Config selects the optimization repertoire. The presets below
// correspond to the systems measured in §6 of the paper.
type Config struct {
	Name string

	// Customization compiles one machine method per receiver map so
	// the receiver's type is known at compile time (§2).
	Customization bool

	// TypeAnalysis maintains the variable→type mapping of §3. When
	// off, local variables are always of unknown type, as in the
	// original SELF compiler.
	TypeAnalysis bool

	// RangeAnalysis enables integer subrange analysis (§3.2.1/§3.2.3):
	// folding comparisons and removing overflow checks.
	RangeAnalysis bool

	// TypePrediction inserts run-time type tests guessing the receiver
	// of well-known selectors (§2).
	TypePrediction bool

	// InlineMethods inlines user-defined methods once the receiver map
	// is known.
	InlineMethods bool

	// InlinePrimitives expands robust primitives into their type tests,
	// checks and raw operation (§3.2.3); when off, primitives run as
	// out-of-line calls with every check.
	InlinePrimitives bool

	// LocalSplitting splits messages immediately following a merge
	// (the '89 compiler). ExtendedSplitting splits across arbitrary
	// distances, bounded by SplitNodeThreshold copied nodes (§4).
	LocalSplitting     bool
	ExtendedSplitting  bool
	SplitNodeThreshold int

	// MaxFlows bounds how many split paths the compiler keeps alive at
	// once (splitting is only attempted along common-case branches).
	MaxFlows int

	// IterativeLoops enables iterative type analysis for loops (§5.1);
	// when off, loop variables are pessimistically unknown.
	IterativeLoops bool

	// MultiVersionLoops lets loop heads and tails split, producing a
	// common-case loop version free of type tests plus a general
	// version (§5.2). The paper's measured "new SELF" had this broken
	// and disabled; our NewSELF preset matches that, and
	// NewSELFMultiLoop enables it for the ablation.
	MultiVersionLoops bool

	// MaxLoopIterations bounds the fix-point iteration before falling
	// back to pessimistic bindings.
	MaxLoopIterations int

	// InlineDepth and InlineBudget bound method inlining (depth of the
	// inline stack; AST node count of the candidate).
	InlineDepth  int
	InlineBudget int

	// StaticIdeal is the "optimized C" stand-in: all receiver types
	// assumed correct without tests, all overflow/bounds checks
	// removed, all remaining dispatch charged as direct calls. §5.3:
	// "a compiler for a statically-typed, non-object-oriented language
	// could do no better."
	StaticIdeal bool

	// CallSiteICMissHandlers models the §6.1 proposal: call-site
	// specific inline-cache miss handlers that nearly eliminate the
	// polymorphic-send bottleneck seen in richards. Used by the
	// ablation table only; it changes the cost model, not the code.
	CallSiteICMissHandlers bool

	// PolymorphicInlineCaches upgrades send sites to PICs (what the
	// §6.1 proposal became in the follow-up SELF work): each site
	// caches several receiver maps, so polymorphic sites like richards'
	// runPacket: stop taking the full-lookup miss path. A PIC hit costs
	// slightly more than a monomorphic hit (the dispatch sequence
	// compares against each cached map).
	PolymorphicInlineCaches bool

	// SendOverheadExtra adds cycles to every dynamic send, modelling
	// the old SELF-90 system's "more elaborate semantics for message
	// lookup and blocks" and reduced tuning relative to SELF-89 (§6).
	SendOverheadExtra int

	// ComparisonFacts enables the §7 future-work extension: the
	// compiler records the results of comparisons against non-constant
	// integers (and reuses loaded vector lengths), eliminating repeated
	// array bounds checks whose limit is a run-time length — the
	// optimization the paper credits to the TS Typed Smalltalk compiler
	// and leaves as future work.
	ComparisonFacts bool

	// AnnotateTypes attaches the incoming operand types to interesting
	// nodes (sends, tests, arithmetic, loop heads) so CFG dumps read
	// like the paper's figures. Costs compile time; used by selfc.
	AnnotateTypes bool

	// NoSuperinstructions disables the VM's superinstruction fusion
	// pass (internal/vm/fuse.go), a host-speed interpreter-dispatch
	// optimization with no effect on any modelled quantity. The zero
	// value — fusion on — is right for every preset and strategy; the
	// flag exists so differential tests can run the unfused interpreter
	// as a bit-exact oracle against the fused one.
	NoSuperinstructions bool

	// PerInstrOverhead adds cycles to every executed instruction,
	// modelling the code quality of ParcPlace's dynamic translation:
	// a stack machine without global register allocation keeps
	// temporaries in memory, roughly doubling the cost of straight-line
	// code relative to the SELF compilers' registerized output.
	PerInstrOverhead int

	// Strategy selects the specialization strategy (see the Strategy
	// type): eager splitting (the zero value — the paper's system),
	// lazy basic-block versioning, or both. ApplyStrategy derives the
	// per-strategy knob settings; the degraded tier forces split, the
	// paper's well-exercised fallback.
	Strategy Strategy

	// MaxVers bounds the specialized versions BBV materializes per
	// basic block before the generic fallback takes the tail
	// (0 = the bbv package default). Ignored under StrategySplit.
	MaxVers int
}

// ApplyStrategy derives the knob settings a strategy implies. Under
// StrategyBBV the eager specialization machinery is switched off —
// type and range analysis, splitting in both forms, iterative and
// multi-version loops, comparison facts — leaving the '89-style
// repertoire (customization, prediction, method and primitive
// inlining) that BBV's run-time versioning then specializes; under
// StrategyBoth the full eager repertoire stays on and versioning
// removes what survives it. Every strategy runs the same fused stream:
// versions anchor on fused entry pcs (vm/bbv.go).
func ApplyStrategy(c Config) Config {
	if c.Strategy == StrategyBBV {
		c.TypeAnalysis = false
		c.RangeAnalysis = false
		c.LocalSplitting = false
		c.ExtendedSplitting = false
		c.IterativeLoops = false
		c.MultiVersionLoops = false
		c.ComparisonFacts = false
	}
	return c
}

// The five measured systems, plus the multi-version-loop ablation.
var (
	// NewSELF is the paper's new compiler exactly as measured in §6:
	// everything on except multi-version loops (broken at the time).
	NewSELF = Config{
		Name:               "new SELF",
		Customization:      true,
		TypeAnalysis:       true,
		RangeAnalysis:      true,
		TypePrediction:     true,
		InlineMethods:      true,
		InlinePrimitives:   true,
		LocalSplitting:     true,
		ExtendedSplitting:  true,
		SplitNodeThreshold: 24,
		MaxFlows:           6,
		IterativeLoops:     true,
		MultiVersionLoops:  false,
		MaxLoopIterations:  6,
		InlineDepth:        10,
		InlineBudget:       220,
	}

	// NewSELFMultiLoop is NewSELF with multi-version loops repaired —
	// the configuration the paper expected to be even faster.
	NewSELFMultiLoop = withName(withMultiLoop(NewSELF), "new SELF (multi-version loops)")

	// NewSELFExtended adds everything the paper left as future work:
	// multi-version loops plus §7's comparison-fact propagation.
	NewSELFExtended = func() Config {
		c := withMultiLoop(NewSELF)
		c.Name = "new SELF (extended)"
		c.ComparisonFacts = true
		return c
	}()

	// OldSELF89 is the original compiler as tuned in early 1989:
	// customization, prediction, primitive and method inlining, local
	// splitting only, no type analysis of locals, no range analysis,
	// pessimistic loops.
	OldSELF89 = Config{
		Name:              "old SELF-89",
		Customization:     true,
		TypeAnalysis:      false,
		RangeAnalysis:     false,
		TypePrediction:    true,
		InlineMethods:     true,
		InlinePrimitives:  true,
		LocalSplitting:    true,
		ExtendedSplitting: false,
		MaxFlows:          4,
		IterativeLoops:    false,
		MaxLoopIterations: 1,
		InlineDepth:       8,
		InlineBudget:      180,
	}

	// OldSELF90 is the same compiler in the 1990 production system:
	// identical repertoire but slower sends ("more elaborate semantics
	// for message lookup and blocks, and ... not as highly tuned").
	OldSELF90 = func() Config {
		c := OldSELF89
		c.Name = "old SELF-90"
		c.SendOverheadExtra = 6
		return c
	}()

	// ST80 models ParcPlace Smalltalk-80 V2.4: dynamic compilation
	// with inline caches and special-selector fast paths, but no
	// customization, no type analysis, and no user-method inlining.
	ST80 = Config{
		Name:              "ST-80",
		Customization:     false,
		TypeAnalysis:      false,
		RangeAnalysis:     false,
		TypePrediction:    true, // special selectors: + - < = ifTrue: ...
		InlineMethods:     false,
		InlinePrimitives:  true,
		LocalSplitting:    false,
		ExtendedSplitting: false,
		MaxFlows:          2,
		IterativeLoops:    false,
		MaxLoopIterations: 1,
		InlineDepth:       1,
		InlineBudget:      0,
		PerInstrOverhead:  2,
	}

	// StaticIdealC is the optimized-C stand-in (see Config.StaticIdeal).
	StaticIdealC = Config{
		Name:               "optimized C",
		Customization:      true,
		TypeAnalysis:       true,
		RangeAnalysis:      true,
		TypePrediction:     true,
		InlineMethods:      true,
		InlinePrimitives:   true,
		LocalSplitting:     true,
		ExtendedSplitting:  true,
		SplitNodeThreshold: 24,
		MaxFlows:           6,
		IterativeLoops:     true,
		MaxLoopIterations:  6,
		InlineDepth:        10,
		InlineBudget:       220,
		StaticIdeal:        true,
	}
)

// Degraded is the fallback tier used when an optimizing compilation
// fails or panics (the tier-fallback shape of basic-block-versioning
// JITs). It is TierDegraded applied to c — see tier.go for the single
// table all tiers derive from. Customization is kept as-is: the cache
// key still carries the receiver map, and compiling a customized key
// without exploiting the map is sound, merely less specialized.
func Degraded(c Config) Config {
	return TierDegraded.Apply(c)
}

func withMultiLoop(c Config) Config {
	c.MultiVersionLoops = true
	return c
}

func withName(c Config, name string) Config {
	c.Name = name
	return c
}

// Stats records what one compilation did, for the compile-time and
// code-size tables and the ablation discussion.
type Stats struct {
	Duration       time.Duration
	LoopIterations int // loop-body recompilations performed (§5.1)
	LoopVersions   int // loop versions emitted (§5.2)
	Splits         int // times flows were kept apart past a merge point
	ForcedMerges   int // times the split budget forced a merge
	InlinedMethods int
	InlinedPrims   int
	FoldedPrims    int // constant-folded primitives
	RemovedOvfl    int // overflow checks removed by range analysis
	RemovedTests   int // type tests eliminated by analysis
	FeedbackTests  int // run-time type tests inserted from harvested PIC feedback
	Nodes          int // IR nodes kept: reachable ones (instructions, once a Pipeline assembled them)
	BuiltNodes     int // IR nodes built, discarded loop-analysis bodies (§5.1) included

	// Passes is the per-pass breakdown recorded by Pipeline compiles
	// (nil when a bare Compiler was driven directly); see PassStat.
	Passes []PassStat
}
