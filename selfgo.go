// Package selfgo is a from-scratch reproduction of the compiler
// described in Chambers & Ungar, "Iterative Type Analysis and Extended
// Message Splitting: Optimizing Dynamically-Typed Object-Oriented
// Programs" (PLDI 1990): a SELF-like prototype-based language, an
// optimizing compiler built around type analysis, message splitting and
// multi-version loops, and a costed virtual machine that reproduces the
// paper's performance comparisons.
//
// Typical use:
//
//	sys, _ := selfgo.NewSystem(selfgo.NewSELF)
//	_ = sys.LoadSource(`triangleNumber: n = ( |sum <- 0| 1 upTo: n Do: [:i| sum: sum + i]. sum ).`)
//	res, _ := sys.Call("triangleNumber:", selfgo.IntValue(100))
//	fmt.Println(res.Value, res.Run.Cycles)
//
// Compilation is tiered (see TierMode): the default mode compiles every
// method eagerly at the optimizing tier, exactly as the paper's system
// does; adaptive mode compiles at the cheap baseline tier first and
// promotes hot methods in the background to the optimizing tier,
// seeded with receiver types harvested from the inline caches.
//
// Every System finds its code through one code cache, keyed by method
// and receiver map: a later load that reshapes a map evicts the code
// compiled against it, so a redefinition reaches every compiled caller.
// Fork runs further VMs, one per goroutine, against the same world and
// the same cache, and each customization is compiled once among them.
package selfgo

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"selfgo/internal/ast"
	"selfgo/internal/codecache"
	"selfgo/internal/core"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/parser"
	"selfgo/internal/prelude"
	"selfgo/internal/types"
	"selfgo/internal/vm"
)

// Re-exported types: the full object model, compiler configuration and
// statistics are usable through these aliases without importing
// internal packages.
type (
	// Config selects a compiler generation (see the preset variables).
	Config = core.Config
	// CompileStats describes one method compilation.
	CompileStats = core.Stats
	// PassStat is one pipeline pass's share of a compilation
	// (CompileStats.Passes).
	PassStat = core.PassStat
	// Tier is a compilation tier (TierDegraded, TierBaseline,
	// TierOptimizing).
	Tier = core.Tier
	// RunStats is the dynamic cost accounting of an execution.
	RunStats = vm.RunStats
	// CompileRecord sums compilation work triggered by a run.
	CompileRecord = vm.CompileRecord
	// Value is a runtime value of the object language.
	Value = obj.Value
	// World is the object universe (lobby, maps, singletons).
	World = obj.World
	// Graph is a compiled method's control flow graph.
	Graph = ir.Graph
	// Code is assembled register bytecode.
	Code = vm.Code
	// CacheStats is a snapshot of the code cache's counters.
	CacheStats = codecache.Stats
	// Budget bounds one execution (instructions, depth, allocations);
	// zero fields are unlimited. See SetBudget and CallCtx.
	Budget = vm.Budget
	// RuntimeError is a guest-level error with a Kind classification
	// and a captured Self-level backtrace.
	RuntimeError = vm.RuntimeError
	// FrameStats is the host-side cost of a VM's activations.
	FrameStats = vm.FrameStats
	// ErrKind classifies a RuntimeError.
	ErrKind = vm.ErrKind
	// Strategy selects how compiled code specializes on types:
	// iterative analysis + splitting (the paper's system), lazy
	// basic-block versioning with typed shapes, or both.
	Strategy = core.Strategy
)

// Specialization strategies, re-exported from core.
const (
	StrategySplit = core.StrategySplit
	StrategyBBV   = core.StrategyBBV
	StrategyBoth  = core.StrategyBoth
)

// StrategyByName resolves the -strategy flag spellings ("split", "bbv",
// "both"; empty means split).
func StrategyByName(name string) (Strategy, error) {
	return core.ParseStrategy(name)
}

// Compilation tiers, re-exported from core.
const (
	TierDegraded   = core.TierDegraded
	TierBaseline   = core.TierBaseline
	TierOptimizing = core.TierOptimizing
)

// RuntimeError kinds, re-exported for hosts that route faults.
const (
	KindError             = vm.KindError
	KindDoesNotUnderstand = vm.KindDoesNotUnderstand
	KindStackOverflow     = vm.KindStackOverflow
	KindOutOfFuel         = vm.KindOutOfFuel
	KindCancelled         = vm.KindCancelled
	KindPrimitiveFailed   = vm.KindPrimitiveFailed
	KindInternal          = vm.KindInternal
)

// ErrorKind extracts the ErrKind classification from err, unwrapping
// as needed; ok is false when err carries no RuntimeError.
func ErrorKind(err error) (kind ErrKind, ok bool) {
	var re *RuntimeError
	if errors.As(err, &re) {
		return re.Kind, true
	}
	return KindError, false
}

// TierMode selects how a System schedules compilation tiers.
type TierMode int

const (
	// ModeOpt compiles every method eagerly at the optimizing tier —
	// the paper's system, and the default. Bit-identical in all
	// modelled quantities to the pre-tiering compile path.
	ModeOpt TierMode = iota
	// ModeBaseline compiles every method at the cheap baseline tier
	// and never promotes (the floor adaptive mode starts from).
	ModeBaseline
	// ModeAdaptive compiles at the baseline tier first; methods whose
	// invocation+backedge count reaches the promotion threshold are
	// recompiled at the optimizing tier in the background, seeded with
	// receiver-map feedback harvested from the inline caches, and
	// atomically swapped into the code cache. Optimizing is the
	// top tier: optimizing code never promotes again.
	ModeAdaptive
)

func (m TierMode) String() string {
	switch m {
	case ModeOpt:
		return "opt"
	case ModeBaseline:
		return "baseline"
	case ModeAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("TierMode(%d)", int(m))
}

// TierModeByName resolves the -tier flag spellings.
func TierModeByName(name string) (TierMode, error) {
	switch name {
	case "opt", "":
		return ModeOpt, nil
	case "baseline":
		return ModeBaseline, nil
	case "adaptive":
		return ModeAdaptive, nil
	}
	return ModeOpt, fmt.Errorf("unknown tier mode %q (want opt, baseline, adaptive)", name)
}

// DefaultPromoteThreshold is the invocation+backedge count at which
// adaptive mode promotes a method when no threshold is given.
const DefaultPromoteThreshold = 1000

// Compiler generation presets, matching the systems measured in §6 of
// the paper.
var (
	NewSELF          = core.NewSELF
	NewSELFMultiLoop = core.NewSELFMultiLoop
	NewSELFExtended  = core.NewSELFExtended
	OldSELF89        = core.OldSELF89
	OldSELF90        = core.OldSELF90
	ST80             = core.ST80
	OptimizedC       = core.StaticIdealC
)

// Configs lists every preset in presentation order.
func Configs() []Config {
	return []Config{ST80, OldSELF89, OldSELF90, NewSELF, NewSELFMultiLoop, OptimizedC}
}

// IntValue, StrValue and NilValue build argument values.
func IntValue(i int64) Value  { return obj.Int(i) }
func StrValue(s string) Value { return obj.Str(s) }
func NilValue() Value         { return obj.Nil() }

// System is a loaded world plus a compiler configuration, a code cache
// and a VM that finds all its code through that cache.
//
// A System (and its VM) is single-goroutine. Concurrency comes from
// Fork: each fork shares the world, the compile pipelines and the one
// sharded single-flight code cache, but runs its own VM, so worker
// systems may call methods concurrently once loading is done. Adaptive
// promotion compiles run on background goroutines against the same
// cache.
type System struct {
	Cfg Config
	// Mode is the tier schedule this system runs under (ModeOpt unless
	// built with NewTieredSystem).
	Mode  TierMode
	world *obj.World

	// One pipeline per tier, all derived from Cfg through the tier
	// table. pipeOpt is the eager tier and the promotion target,
	// pipeBase the cheap first tier of baseline/adaptive modes, pipeDeg
	// the crash-recovery fallback when a compilation fails or panics.
	pipeOpt  *core.Pipeline
	pipeBase *core.Pipeline
	pipeDeg  *core.Pipeline

	machine    *vm.VM
	framesSeen FrameStats // machine.Frames as of the last TakeFrameStats

	// cache holds every compiled Code of this system and its forks;
	// world map changes invalidate it (see NewTieredSystem).
	cache *codecache.Cache[*vm.Code]

	// promoteThreshold is the hotness count that triggers promotion in
	// ModeAdaptive.
	promoteThreshold int64

	// prom aggregates promotion latency across this system and all its
	// forks.
	prom *promAgg

	// log accumulates per-method compiler statistics in compilation
	// order; forked workers append to their parent's log, so it is
	// mutex-protected.
	log *compileLog
}

// compileLog is the shared, locked compile log. Every reply reports the
// total compile time and the per-tier counts, so add keeps both as
// running aggregates over every compile there ever was: reading them
// never walks the log. The entries themselves are a ring of the last
// compileLogCap — a server fed never-seen expressions compiles for as
// long as it lives, and the code cache evicts the code; its log entry
// must not outlive it by more than the ring.
type compileLog struct {
	mu      sync.Mutex
	entries []MethodCompile // the latest compileLogCap, entries[added%cap] the oldest once full
	added   int64           // entries ever added
	total   time.Duration   // sum of every added entry's Stats.Duration
	tiers   TierTally       // added entries per tier
	built   int64           // sum of every added entry's Stats.BuiltNodes
	kept    int64           // sum of every added entry's Stats.Nodes
}

// compileLogCap bounds the compile log's entries: enough to hold what
// any one program compiles (puzzle: ~50 methods) many times over.
const compileLogCap = 4096

func (l *compileLog) add(e MethodCompile) {
	l.mu.Lock()
	if len(l.entries) < compileLogCap {
		l.entries = append(l.entries, e)
	} else {
		l.entries[l.added%compileLogCap] = e
	}
	l.added++
	l.total += e.Stats.Duration
	if t, ok := tierOf(e.Tier); ok {
		l.tiers[t]++
	}
	l.built += int64(e.Stats.BuiltNodes)
	l.kept += int64(e.Stats.Nodes)
	l.mu.Unlock()
}

// snapshot returns the retained entries, oldest first.
func (l *compileLog) snapshot() []MethodCompile {
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := 0
	if len(l.entries) == compileLogCap {
		oldest = int(l.added % compileLogCap)
	}
	return append(append(make([]MethodCompile, 0, len(l.entries)), l.entries[oldest:]...), l.entries[:oldest]...)
}

func (l *compileLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

func (l *compileLog) totalDuration() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

func (l *compileLog) nodes() (built, kept int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.built, l.kept
}

func (l *compileLog) tierTally() TierTally {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tiers
}

// tierOf maps a tier label back to its Tier.
func tierOf(label string) (Tier, bool) {
	for t := TierDegraded; t <= TierOptimizing; t++ {
		if t.String() == label {
			return t, true
		}
	}
	return 0, false
}

// TierTally counts compilations per tier, indexed by Tier: TierCounts
// as a value, which reading costs no allocation.
type TierTally [TierOptimizing + 1]int

// Map is the tally keyed by tier label, tiers that compiled nothing
// absent.
func (t TierTally) Map() map[string]int {
	m := make(map[string]int, len(t))
	for tier, n := range t {
		if n > 0 {
			m[Tier(tier).String()] = n
		}
	}
	return m
}

// promAgg aggregates promotion latencies (hot-trigger to installed
// swap) across forks.
type promAgg struct {
	mu        sync.Mutex
	installed int64
	total     time.Duration
}

func (a *promAgg) record(d time.Duration) {
	a.mu.Lock()
	a.installed++
	a.total += d
	a.mu.Unlock()
}

// MethodCompile is one entry of the compile log.
type MethodCompile struct {
	Name string
	// Tier labels the tier this compilation ran at (a core.Tier's
	// String: "baseline", "optimizing", "degraded").
	Tier  string
	Stats core.Stats
	Bytes int
}

// PromotionStats summarizes adaptive-tier promotion activity.
type PromotionStats struct {
	Installed int64 // promoted code swapped into the code cache
	Fails     int64 // promotion compiles that failed (tier kept)
	Discards  int64 // promoted code discarded (entry invalidated meanwhile)
	// MeanLatency is the average hot-trigger-to-install time of the
	// Installed promotions.
	MeanLatency time.Duration
}

// Result is the outcome of running a method.
type Result struct {
	Value   Value
	Run     RunStats
	Compile CompileRecord
	// CompileTime is the total time the compiler spent for this
	// system so far (the paper's compile-time metric is the sum over
	// all methods a benchmark forces to compile).
	CompileTime time.Duration
}

// NewSystem creates a world with the standard prelude loaded, ready to
// accept program source, compiling every method eagerly at the
// optimizing tier: NewTieredSystem(cfg, ModeOpt, 0).
func NewSystem(cfg Config) (*System, error) {
	return NewTieredSystem(cfg, ModeOpt, 0)
}

// NewTieredSystem creates a system running the given tier schedule.
// promoteThreshold applies to ModeAdaptive (values <= 0 use
// DefaultPromoteThreshold); the other modes ignore it. After loading
// sources, Fork returns additional worker systems running against the
// same world and code cache; each (method, receiver map) customization
// is then compiled exactly once no matter how many workers request it
// concurrently.
func NewTieredSystem(cfg Config, mode TierMode, promoteThreshold int64) (*System, error) {
	if promoteThreshold <= 0 {
		promoteThreshold = DefaultPromoteThreshold
	}
	w := obj.NewWorld()
	if cfg.Strategy != core.StrategySplit {
		// Typed shapes must observe every field store from the first
		// prelude assignment on, so tracking turns on before any code
		// runs. Split-strategy systems leave it off: zero overhead and
		// bit-identical behavior to the pre-BBV system.
		w.ShapeTracking = true
	}
	cache := codecache.New[*vm.Code]()
	s := &System{
		Cfg: cfg, Mode: mode, world: w, cache: cache,
		promoteThreshold: promoteThreshold,
		prom:             &promAgg{}, log: &compileLog{},
	}
	s.pipeOpt = core.NewPipeline(w, cfg, core.TierOptimizing)
	s.pipeBase = core.NewPipeline(w, cfg, core.TierBaseline)
	s.pipeDeg = core.NewPipeline(w, cfg, core.TierDegraded)
	s.machine = s.newVM()
	// Invalidate customizations when a later load (or, under bbv, a
	// typed-shape widening) reshapes a map the compiler already
	// specialized against.
	w.OnMapChange = func(m *obj.Map) { cache.InvalidateMap(m) }
	if err := s.LoadSource(prelude.Source); err != nil {
		return nil, fmt.Errorf("loading prelude: %w", err)
	}
	return s, nil
}

// compileFault, when non-nil, runs before every method compilation and
// may return an error or panic to simulate a compiler fault (degraded
// reports which tier is asking). Test hook for the degraded-fallback
// path; never set in production.
var compileFault func(name string, degraded bool) error

// safeCompile runs one compiler invocation with a panic backstop: a
// panicking pass surfaces as a KindInternal error (with the Go stack
// attached) instead of unwinding into the code cache's single-flight
// Get.
func safeCompile(f func() (*vm.Code, error)) (c *vm.Code, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &vm.RuntimeError{Kind: vm.KindInternal,
				Msg: fmt.Sprintf("compiler panic: %v", r), GoStack: debug.Stack()}
		}
	}()
	return f()
}

// compileMethodAt runs one tier's pipeline on meth, recording the
// compilation in the shared log. It may run on any goroutine (inside
// the cache's single flight or a promotion flight): it touches only the
// stateless pipeline, the locked log, and its arguments.
func (s *System) compileMethodAt(p *core.Pipeline, meth *obj.Method, rmap *obj.Map, fb *types.Feedback) (*vm.Code, error) {
	return safeCompile(func() (*vm.Code, error) {
		if compileFault != nil {
			if err := compileFault(meth.Sel, p == s.pipeDeg); err != nil {
				return nil, err
			}
		}
		c, st, err := p.CompileMethod(meth, rmap, fb)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", meth, err)
		}
		s.log.add(MethodCompile{Name: c.Name, Tier: p.Tier.String(), Stats: *st, Bytes: c.Bytes})
		return c, nil
	})
}

// compileBlockAt is compileMethodAt for out-of-line blocks.
func (s *System) compileBlockAt(p *core.Pipeline, b *ast.Block, upNames []string) (*vm.Code, error) {
	return safeCompile(func() (*vm.Code, error) {
		c, st, err := p.CompileBlock(b, upNames, nil)
		if err != nil {
			return nil, fmt.Errorf("compiling block at %s: %w", b.P, err)
		}
		s.log.add(MethodCompile{Name: c.Name, Tier: p.Tier.String(), Stats: *st, Bytes: c.Bytes})
		return c, nil
	})
}

// firstTier is the pipeline a fresh compilation starts at under the
// system's mode.
func (s *System) firstTier() *core.Pipeline {
	if s.Mode == ModeOpt {
		return s.pipeOpt
	}
	return s.pipeBase
}

// newVM builds a VM wired to this system's world, tier pipelines, code
// cache and compile log.
//
// Compilation is tiered: fresh code compiles at the mode's first tier
// (optimizing for ModeOpt, baseline otherwise); when that compilation
// fails or panics, the method is retried once under the degraded
// configuration (splitting and inlining off, every check kept), and the
// degradation is counted in CompileRecord.Degraded. Only when both
// tiers fail does the error reach the runner. In ModeAdaptive the VM
// additionally carries hotness counters and an OnHot hook that promotes
// hot baseline code (see onHot).
func (s *System) newVM() *vm.VM {
	cfg := s.Cfg
	m := &vm.VM{
		World:        s.world,
		Customize:    cfg.Customization,
		SendExtra:    int64(cfg.SendOverheadExtra),
		InstrExtra:   int64(cfg.PerInstrOverhead),
		MissHandlers: cfg.CallSiteICMissHandlers,
		PICs:         cfg.PolymorphicInlineCaches,
		Strategy:     uint8(cfg.Strategy),
		Cache:        s.cache,
		Arena:        obj.NewArena(),
	}
	m.CompileMethod = func(meth *obj.Method, rmap *obj.Map) (*vm.Code, error) {
		c, err := s.compileMethodAt(s.firstTier(), meth, rmap, nil)
		if err == nil {
			return c, nil
		}
		c, err2 := s.compileMethodAt(s.pipeDeg, meth, rmap, nil)
		if err2 != nil {
			return nil, fmt.Errorf("%w (degraded retry also failed: %v)", err, err2)
		}
		m.Compile.Degraded++
		return c, nil
	}
	m.CompileBlock = func(b *ast.Block, upNames []string) (*vm.Code, error) {
		c, err := s.compileBlockAt(s.firstTier(), b, upNames)
		if err == nil {
			return c, nil
		}
		c, err2 := s.compileBlockAt(s.pipeDeg, b, upNames)
		if err2 != nil {
			return nil, fmt.Errorf("%w (degraded retry also failed: %v)", err, err2)
		}
		m.Compile.Degraded++
		return c, nil
	}
	if s.Mode == ModeAdaptive {
		m.PromoteThreshold = s.promoteThreshold
		m.OnHot = func(code *vm.Code) { s.onHot(m, code) }
	}
	return m
}

// onHot runs on m's goroutine when code first crosses the promotion
// threshold: harvest the receiver maps m's inline caches observed, then
// ask the code cache to recompile the method at the optimizing tier
// in the background, seeded with that feedback. Baseline (or degraded)
// code promotes; optimizing code is the top tier and never does. The
// swap is atomic under the cache's generation discipline; a failed
// promotion keeps the current tier's code resident.
func (s *System) onHot(m *vm.VM, code *vm.Code) {
	if code.Origin.Meth == nil || code.TierLabel == core.TierOptimizing.String() {
		// Blocks don't promote; optimizing code is the top tier.
		return
	}
	fb := m.Harvest(code)
	m.Stats.Harvests++
	meth, rmap := code.Origin.Meth, code.Origin.RMap
	t0 := time.Now()
	started := s.cache.Promote(
		codecache.Key{Meth: meth, RMap: rmap, Strat: uint8(s.Cfg.Strategy)},
		func() (*vm.Code, error) {
			return s.compileMethodAt(s.pipeOpt, meth, rmap, fb)
		},
		func(_ *vm.Code, err error, installed bool) {
			if installed {
				s.prom.record(time.Since(t0))
			}
		},
	)
	if started {
		m.Stats.Promotions++
	}
}

// Fork returns a worker system sharing this system's world, pipelines,
// code cache and compile log, with a fresh VM (own run statistics, own
// inline caches, own hotness bookkeeping). Sources must be fully loaded
// before forking: workers read the world but must not LoadSource, and
// world loading is not synchronized with running workers.
func (s *System) Fork() *System {
	w := &System{
		Cfg:              s.Cfg,
		Mode:             s.Mode,
		world:            s.world,
		pipeOpt:          s.pipeOpt,
		pipeBase:         s.pipeBase,
		pipeDeg:          s.pipeDeg,
		cache:            s.cache,
		promoteThreshold: s.promoteThreshold,
		prom:             s.prom,
		log:              s.log,
	}
	w.machine = w.newVM()
	w.machine.Budget = s.machine.Budget
	return w
}

// SetBudget bounds every subsequent Call/Eval on this system (and on
// workers forked afterwards). Zero fields are unlimited; the zero
// Budget removes all limits. Exceeding a limit aborts the run with a
// RuntimeError of KindOutOfFuel (instructions, allocations) or
// KindStackOverflow (depth).
func (s *System) SetBudget(b Budget) { s.machine.Budget = b }

// ResetArena ends the VM's current arena epoch, recycling (or, when a
// value escaped to the world, abandoning to the GC) the chunks that
// backed this epoch's vectors and clones. Callers mark request
// boundaries with it — the serving layer resets when a pooled System
// returns to the pool, the bench harness between iterations. Must not
// be called while a Call/Eval is running on this system, and values
// returned by earlier calls must not be used afterwards unless they
// escaped to the world (which promotes them).
func (s *System) ResetArena() { s.machine.Arena.Reset() }

// ArenaStats reports the arena's lifecycle counters: epochs recycled
// cleanly and epochs abandoned to the GC because a value escaped.
func (s *System) ArenaStats() (resets, abandons int64) {
	return s.machine.Arena.Resets, s.machine.Arena.Abandons
}

// TakeFrameStats reports what this system's VM did with activation
// frames since the previous call: register files allocated and reused,
// and the change in the bytes its pool holds. Host-side quantities, so
// not in RunStats. Like ResetArena, not to be called during a run.
func (s *System) TakeFrameStats() FrameStats {
	now, seen := s.machine.Frames, s.framesSeen
	s.framesSeen = now
	return FrameStats{Allocs: now.Allocs - seen.Allocs, Reuses: now.Reuses - seen.Reuses,
		PoolBytes: now.PoolBytes - seen.PoolBytes}
}

// MarkEscaped pins v across the next ResetArena: a caller that holds a
// returned Value past the reset (the serving layer encodes results
// after the worker goes back to the pool) calls this first, so the
// arena abandons the epoch's chunks to the GC instead of recycling
// them. Immediates (ints, strings, nil) reference no arena storage and
// are free to hold forever; blocks are pinned unconditionally because
// their captured frames may alias arena values.
func (s *System) MarkEscaped(v Value) {
	switch v.K() {
	case obj.KObj:
		if o := v.Obj(); o != nil && o.Ep != 0 {
			s.machine.Arena.MarkEscaped()
		}
	case obj.KBlock:
		s.machine.Arena.MarkEscaped()
	}
}

// CacheStats snapshots the code cache's summed counters (shared by this
// system and its forks).
func (s *System) CacheStats() CacheStats { return s.cache.Stats() }

// DrainPromotions blocks until every in-flight background promotion has
// finished (installed, failed, or discarded); outside adaptive mode
// there are none. Benchmarks call it to separate warm-up from steady
// state.
func (s *System) DrainPromotions() { s.cache.DrainPromotions() }

// PromotionStats summarizes promotion outcomes and mean install
// latency across this system and its forks.
func (s *System) PromotionStats() PromotionStats {
	var ps PromotionStats
	ps.Installed, ps.Fails, ps.Discards = s.cache.PromotionCounts()
	s.prom.mu.Lock()
	if s.prom.installed > 0 {
		ps.MeanLatency = s.prom.total / time.Duration(s.prom.installed)
	}
	s.prom.mu.Unlock()
	return ps
}

// TierCounts sums compile-log entries per tier label (a Tier's String),
// across every forked worker; tiers that compiled nothing are absent.
func (s *System) TierCounts() map[string]int { return s.log.tierTally().Map() }

// TierTally is TierCounts as a fixed array indexed by Tier.
func (s *System) TierTally() TierTally { return s.log.tierTally() }

// World exposes the object universe (read-mostly; used by tools).
func (s *System) World() *World { return s.world }

// LoadSource parses src as lobby slot definitions and installs them.
func (s *System) LoadSource(src string) error {
	f, err := parser.ParseFile(src)
	if err != nil {
		return err
	}
	if err := s.world.Load(f); err != nil {
		return err
	}
	s.world.Finalize()
	return nil
}

// Call sends selector to the lobby with the given arguments, measuring
// execution. Statistics are reset per call; compiled code is reused
// across calls (dynamic compilation warms up once).
func (s *System) Call(selector string, args ...Value) (*Result, error) {
	return s.CallCtx(context.Background(), selector, args...)
}

// CallCtx is Call honoring ctx: cancellation or deadline expiry aborts
// the run promptly (at the next budget poll) with a RuntimeError of
// KindCancelled. The system's Budget (SetBudget) applies as well.
func (s *System) CallCtx(ctx context.Context, selector string, args ...Value) (*Result, error) {
	r, ok := obj.Lookup(s.world.Lobby.Map, selector)
	if !ok {
		return nil, fmt.Errorf("lobby does not define %q", selector)
	}
	if r.Slot.Kind != obj.MethodSlot {
		return nil, fmt.Errorf("lobby slot %q is not a method", selector)
	}
	s.machine.Stats = vm.RunStats{}
	v, err := s.machine.RunMethodCtx(ctx, r.Slot.Meth, obj.Obj(s.world.Lobby), args...)
	if err != nil {
		return nil, err
	}
	return &Result{
		Value:       v,
		Run:         s.machine.Stats,
		Compile:     s.machine.Compile,
		CompileTime: s.totalCompileTime(),
	}, nil
}

// Eval compiles and runs an expression sequence in a scratch method on
// the lobby: "|locals| statements".
func (s *System) Eval(src string) (*Result, error) {
	return s.EvalCtx(context.Background(), src)
}

// EvalCtx is Eval honoring ctx (see CallCtx). Each call builds a fresh
// scratch method; hosts that re-evaluate the same source should intern
// it with ParseEval/EvalProgramCtx so its compiled code is cached under
// one identity.
func (s *System) EvalCtx(ctx context.Context, src string) (*Result, error) {
	p, err := s.ParseEval(src)
	if err != nil {
		return nil, err
	}
	return s.EvalProgramCtx(ctx, p)
}

// EvalProgram is a parsed eval expression with a stable identity: the
// scratch method is built once, so the code cache key — which is the
// method's identity — is stable across runs and across forked workers.
// Eval/EvalCtx build a fresh scratch method per call, which is right
// for a one-shot CLI but would grow the code cache without bound in a
// server that re-evaluates the same program; interning through
// ParseEval gives repeated programs the compile-once behaviour named
// methods already have.
type EvalProgram struct {
	// Source is the program text the expression was parsed from.
	Source string
	meth   *obj.Method
	blocks []*ast.Block
}

// ParseEval parses src as an expression sequence ("|locals|
// statements") into a reusable EvalProgram. The program may be run on
// this system and any system sharing its world (forked workers).
func (s *System) ParseEval(src string) (*EvalProgram, error) {
	m, err := parser.ParseMethodBody(src)
	if err != nil {
		return nil, err
	}
	p := &EvalProgram{
		Source: src,
		meth:   &obj.Method{Sel: "doIt", Ast: m, Holder: s.world.Lobby.Map},
	}
	// Record the blocks reachable from the body (and local
	// initializers) so DropEvalProgram can evict their out-of-line code
	// along with the method's.
	collect := func(x ast.Expr) {
		if b, ok := x.(*ast.Block); ok {
			p.blocks = append(p.blocks, b)
		}
	}
	for _, l := range m.Locals {
		ast.Walk(l.Init, collect)
	}
	for _, e := range m.Body {
		ast.Walk(e, collect)
	}
	return p, nil
}

// EvalProgramCtx runs p on this system, honoring ctx (see CallCtx).
// Compiled code is cached under p's identity: repeated runs — from
// this system or any fork — compile once.
func (s *System) EvalProgramCtx(ctx context.Context, p *EvalProgram) (*Result, error) {
	s.machine.Stats = vm.RunStats{}
	v, err := s.machine.RunMethodCtx(ctx, p.meth, obj.Obj(s.world.Lobby))
	if err != nil {
		return nil, err
	}
	return &Result{
		Value:       v,
		Run:         s.machine.Stats,
		Compile:     s.machine.Compile,
		CompileTime: s.totalCompileTime(),
	}, nil
}

// DropEvalProgram evicts p's compiled code (the scratch method for
// every receiver-map customization seen, and its out-of-line blocks)
// from the code cache, so a host that interns a bounded set of eval
// programs can rotate old ones out without leaking cache entries.
func (s *System) DropEvalProgram(p *EvalProgram) {
	strat := uint8(s.Cfg.Strategy)
	s.cache.Invalidate(codecache.Key{Meth: p.meth, RMap: s.world.Lobby.Map, Strat: strat})
	s.cache.Invalidate(codecache.Key{Meth: p.meth, Strat: strat}) // customization off
	for _, b := range p.blocks {
		s.cache.Invalidate(codecache.Key{Blk: b, Strat: strat})
	}
}

// CompileLog returns per-method compiler statistics in compilation
// order: the latest 4,096 compilations (everything, for a system that
// has compiled fewer). The log spans every forked worker. TierCounts, CompileNodes and a Result's CompileTime count
// every compilation, retained or not.
func (s *System) CompileLog() []MethodCompile {
	return s.log.snapshot()
}

// CompileLogLen is how many entries CompileLog would return: it stops
// growing at the log's bound.
func (s *System) CompileLogLen() int { return s.log.len() }

func (s *System) totalCompileTime() time.Duration {
	return s.log.totalDuration()
}

// CompileNodes sums, over the compile log, the IR nodes the compiler
// built and the ones that survived into code: the gap is what iterative
// type analysis (§5.1) discards in re-simulated loop bodies.
func (s *System) CompileNodes() (built, kept int64) { return s.log.nodes() }

// GraphFor compiles selector (customized for the lobby) and returns
// its control flow graph — the artifact the paper's figures draw.
// Always uses the optimizing tier, whatever the system's mode.
func (s *System) GraphFor(selector string) (*Graph, *CompileStats, error) {
	r, ok := obj.Lookup(s.world.Lobby.Map, selector)
	if !ok || r.Slot.Kind != obj.MethodSlot {
		return nil, nil, fmt.Errorf("lobby does not define method %q", selector)
	}
	rmap := s.world.Lobby.Map
	if !s.Cfg.Customization {
		rmap = nil
	}
	return s.pipeOpt.Compiler().CompileMethod(r.Slot.Meth, rmap)
}

// CodeFor compiles selector to bytecode (through the code cache).
func (s *System) CodeFor(selector string) (*Code, error) {
	r, ok := obj.Lookup(s.world.Lobby.Map, selector)
	if !ok || r.Slot.Kind != obj.MethodSlot {
		return nil, fmt.Errorf("lobby does not define method %q", selector)
	}
	return s.machine.CodeFor(r.Slot.Meth, s.world.Lobby.Map)
}
