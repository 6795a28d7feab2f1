// Pipeline is the compile driver refactored into an ordered, named
// pass pipeline: inline → iterative-analysis → split → range →
// assemble. The first four passes are the front end's interleaved
// abstract interpretation (the paper compiles, analyzes, inlines and
// splits in a single traversal — see compile.go), so their enablement
// maps onto Config knobs and their per-pass activity is reported from
// the compilation's event counters; the assemble pass linearizes the
// graph to executable Code (vm.Assemble + superinstruction fusion).
//
// A Pipeline is also where compilation tiers become concrete: it is
// constructed for one Tier, applies that tier's configuration (see
// tier.go), labels the produced Code with the tier, and threads
// harvested type feedback into hot recompiles. The optimizing tier
// with nil feedback is bit-identical to driving Compiler + vm.Assemble
// + vm.Fuse by hand — the tier differential test pins this.
package core

import (
	"time"

	"selfgo/internal/ast"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/types"
	"selfgo/internal/vm"
)

// PassStat is one pass's contribution to a compilation.
type PassStat struct {
	Name    string
	Enabled bool
	// Events counts the pass's characteristic actions in this
	// compilation (inlines performed, type tests removed + loop-body
	// reanalyses, splits kept, overflow checks removed, instructions
	// assembled).
	Events int
	// Duration is measured for the assemble pass; the four front-end
	// passes run interleaved in one traversal whose total time is
	// Stats.Duration, so their individual Duration is zero.
	Duration time.Duration
}

// passSpec ties a pass name to the Config knobs that enable it and the
// Stats counters that witness it.
type passSpec struct {
	name    string
	enabled func(*Config) bool
	events  func(*Stats) int
}

// passOrder is the pipeline, in compilation order.
var passOrder = []passSpec{
	{
		name:    "inline",
		enabled: func(c *Config) bool { return c.InlineMethods || c.InlinePrimitives },
		events:  func(s *Stats) int { return s.InlinedMethods + s.InlinedPrims + s.FoldedPrims },
	},
	{
		name:    "iterative-analysis",
		enabled: func(c *Config) bool { return c.TypeAnalysis || c.IterativeLoops },
		events:  func(s *Stats) int { return s.LoopIterations + s.RemovedTests + s.FeedbackTests },
	},
	{
		name:    "split",
		enabled: func(c *Config) bool { return c.LocalSplitting || c.ExtendedSplitting },
		events:  func(s *Stats) int { return s.Splits + s.LoopVersions },
	},
	{
		name:    "range",
		enabled: func(c *Config) bool { return c.RangeAnalysis },
		events:  func(s *Stats) int { return s.RemovedOvfl },
	},
	{
		name:    "assemble",
		enabled: func(c *Config) bool { return true },
		events:  func(s *Stats) int { return s.Nodes },
	},
}

// PassNames lists the pipeline's passes in order.
func PassNames() []string {
	out := make([]string, len(passOrder))
	for i, p := range passOrder {
		out[i] = p.name
	}
	return out
}

// Pipeline drives compilation for one tier: front-end passes under the
// tier-resolved Config, then assembly and fusion into vm.Code.
type Pipeline struct {
	// Tier is the tier this pipeline compiles at.
	Tier Tier
	// Cfg is the tier-resolved configuration the passes run under
	// (Tier.Apply of the base config, then ApplyStrategy).
	Cfg Config

	compiler *Compiler
}

// NewPipeline builds the pipeline for base's tier-resolved
// configuration. The strategy derivation runs after the tier's: a
// degraded compile has already had Strategy forced back to split by
// the tier table, so ApplyStrategy is the identity for it.
func NewPipeline(w *obj.World, base Config, tier Tier) *Pipeline {
	cfg := ApplyStrategy(tier.Apply(base))
	return &Pipeline{Tier: tier, Cfg: cfg, compiler: New(w, cfg)}
}

// Compiler exposes the underlying front-end compiler (tools like
// GraphFor want the graph before assembly).
func (p *Pipeline) Compiler() *Compiler { return p.compiler }

// CompileMethod runs the full pipeline on meth customized for rmap,
// optionally seeded with type feedback (fb nil for none), and returns
// executable Code labeled with the pipeline's tier and origin. The
// returned Stats carries the per-pass breakdown in Stats.Passes.
func (p *Pipeline) CompileMethod(meth *obj.Method, rmap *obj.Map, fb *types.Feedback) (*vm.Code, *Stats, error) {
	g, st, err := p.compiler.compileMethodFB(meth, rmap, fb)
	if err != nil {
		return nil, st, err
	}
	c := p.assemble(g, st)
	c.Origin = vm.Origin{Meth: meth, RMap: rmap}
	return c, st, nil
}

// CompileBlock runs the full pipeline on an out-of-line block. Block
// code carries no Origin — blocks are not promoted directly; a hot
// method's recompile re-inlines its blocks instead.
func (p *Pipeline) CompileBlock(blk *ast.Block, upNames []string, fb *types.Feedback) (*vm.Code, *Stats, error) {
	g, st, err := p.compiler.compileBlockFB(blk, upNames, fb)
	if err != nil {
		return nil, st, err
	}
	c := p.assemble(g, st)
	c.IsBlock = true
	return c, st, nil
}

// assemble is the pipeline's final pass: linearize, fuse, label, and record the per-pass breakdown.
func (p *Pipeline) assemble(g *ir.Graph, st *Stats) *vm.Code {
	t0 := time.Now()
	c := vm.Assemble(g)
	vm.Fuse(c)
	if p.Cfg.Strategy != StrategySplit {
		vm.EnableBBV(c)
	}
	asm := time.Since(t0)
	st.Duration += asm
	st.Nodes = len(c.Instrs)
	c.TierLabel = p.Tier.String()

	st.Passes = make([]PassStat, len(passOrder))
	for i := range passOrder {
		ps := &passOrder[i]
		st.Passes[i] = PassStat{Name: ps.name, Enabled: ps.enabled(&p.Cfg), Events: ps.events(st)}
	}
	st.Passes[len(st.Passes)-1].Duration = asm
	return c
}
