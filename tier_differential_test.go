package selfgo_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"selfgo"
	"selfgo/internal/ast"
	"selfgo/internal/bench"
	"selfgo/internal/core"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/parser"
	"selfgo/internal/prelude"
	"selfgo/internal/vm"
)

// legacyMeasurement is what the hand-built pre-tiering compile path
// produces for one benchmark: the oracle the -tier=opt differential
// compares against.
type legacyMeasurement struct {
	Value     int64
	Run       selfgo.RunStats
	Methods   int
	CodeBytes int
}

// legacyRun executes b the way the system did before the pass pipeline
// and tiers existed: a bare core.Compiler driven directly, its graphs
// linearized with vm.Assemble + vm.Fuse, a degraded-config retry on
// compile failure, and a bare VM (which makes its own code cache). No
// Pipeline, no Tier, no System — the compile path the refactor replaced,
// reconstructed from primitives so any drift the refactor introduced
// shows up here.
func legacyRun(t *testing.T, b bench.Benchmark, cfg selfgo.Config) *legacyMeasurement {
	t.Helper()
	w := obj.NewWorld()
	for _, src := range []string{prelude.Source, b.Source} {
		f, err := parser.ParseFile(src)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := w.Load(f); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
	w.Finalize()

	m := &vm.VM{
		World:        w,
		Customize:    cfg.Customization,
		SendExtra:    int64(cfg.SendOverheadExtra),
		InstrExtra:   int64(cfg.PerInstrOverhead),
		MissHandlers: cfg.CallSiteICMissHandlers,
		PICs:         cfg.PolymorphicInlineCaches,
	}
	comp := core.New(w, cfg)
	degr := core.New(w, core.Degraded(cfg))
	assemble := func(g *ir.Graph) *vm.Code {
		c := vm.Assemble(g)
		if !cfg.NoSuperinstructions {
			vm.Fuse(c)
		}
		return c
	}
	m.CompileMethod = func(meth *obj.Method, rmap *obj.Map) (*vm.Code, error) {
		g, _, err := comp.CompileMethod(meth, rmap)
		if err != nil {
			if g, _, err = degr.CompileMethod(meth, rmap); err != nil {
				return nil, err
			}
			m.Compile.Degraded++
		}
		return assemble(g), nil
	}
	m.CompileBlock = func(blk *ast.Block, upNames []string) (*vm.Code, error) {
		g, _, err := comp.CompileBlock(blk, upNames)
		if err != nil {
			if g, _, err = degr.CompileBlock(blk, upNames); err != nil {
				return nil, err
			}
			m.Compile.Degraded++
		}
		c := assemble(g)
		c.IsBlock = true
		return c, nil
	}

	r := obj.Lookup(w.Lobby.Map, b.Entry)
	if r == nil || r.Slot.Kind != obj.MethodSlot {
		t.Fatalf("%s: no entry %q", b.Name, b.Entry)
	}
	m.Stats = vm.RunStats{}
	v, err := m.RunMethod(r.Slot.Meth, obj.Obj(w.Lobby))
	if err != nil {
		t.Fatalf("%s under %s (legacy): %v", b.Name, cfg.Name, err)
	}
	return &legacyMeasurement{
		Value:     v.I(),
		Run:       m.Stats,
		Methods:   m.Compile.Methods,
		CodeBytes: m.Compile.CodeBytes,
	}
}

// TestTierOptBitIdentical is the committed differential the refactor is
// gated on: for every benchmark in the suite, the tiered system at
// -tier=opt agrees with the hand-built legacy compile path in the
// check value and EVERY modelled quantity — the full RunStats struct,
// methods compiled, and code bytes emitted. The pipeline refactor,
// hotness counters and promotion machinery must be invisible in opt
// mode.
func TestTierOptBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential is slow; skipped in -short mode")
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			cfg := selfgo.NewSELF
			want := legacyRun(t, b, cfg)

			sys, err := selfgo.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.LoadSource(b.Source); err != nil {
				t.Fatal(err)
			}
			res, err := sys.Call(b.Entry)
			if err != nil {
				t.Fatal(err)
			}
			if res.Value.I() != want.Value {
				t.Errorf("value = %d, legacy = %d", res.Value.I(), want.Value)
			}
			if !reflect.DeepEqual(res.Run, want.Run) {
				t.Errorf("RunStats diverge from legacy:\n got %+v\nwant %+v", res.Run, want.Run)
			}
			if res.Compile.Methods != want.Methods || res.Compile.CodeBytes != want.CodeBytes {
				t.Errorf("compile record diverges: %d methods/%d bytes, legacy %d/%d",
					res.Compile.Methods, res.Compile.CodeBytes, want.Methods, want.CodeBytes)
			}
		})
	}
}

// TestTierModeByName: the -tier spellings selfrun, selfbench and
// selfserved share. "native" named a tier that no longer exists: it
// must fail at startup, naming the modes that do, rather than run
// another tier.
func TestTierModeByName(t *testing.T) {
	for name, want := range map[string]selfgo.TierMode{
		"": selfgo.ModeOpt, "opt": selfgo.ModeOpt, "baseline": selfgo.ModeBaseline, "adaptive": selfgo.ModeAdaptive,
	} {
		if got, err := selfgo.TierModeByName(name); err != nil || got != want {
			t.Errorf("TierModeByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"native", "optimizing"} {
		if _, err := selfgo.TierModeByName(name); err == nil || !strings.Contains(err.Error(), "opt, baseline, adaptive") {
			t.Errorf("TierModeByName(%q) error = %v; want one naming opt, baseline, adaptive", name, err)
		}
	}
}

// inlineEvents pulls the inline pass's event count out of a compile-log
// entry's per-pass breakdown.
func inlineEvents(t *testing.T, e selfgo.MethodCompile) int {
	t.Helper()
	for _, ps := range e.Stats.Passes {
		if ps.Name == "inline" {
			return ps.Events
		}
	}
	t.Fatalf("compile of %s carries no inline pass stat", e.Name)
	return 0
}

// assertAdaptivePromotes runs one benchmark in adaptive mode with a low
// threshold and asserts the acceptance criteria: at least one promotion
// is recorded, the result is unchanged across the tier swap, and the
// promoted code of some hot method inlines sends the baseline tier had
// left dynamically dispatched (witnessed by the inline pass stats of
// the two compile-log entries).
func assertAdaptivePromotes(t *testing.T, name string) {
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	sys, err := selfgo.NewTieredSystem(selfgo.NewSELF, selfgo.ModeAdaptive, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadSource(b.Source); err != nil {
		t.Fatal(err)
	}
	first, err := sys.Call(b.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if first.Run.Promotions < 1 {
		t.Errorf("cold run requested %d promotions, want >= 1", first.Run.Promotions)
	}
	if first.Run.Harvests < 1 {
		t.Errorf("cold run harvested %d feedback snapshots, want >= 1", first.Run.Harvests)
	}
	sys.DrainPromotions()
	steady, err := sys.Call(b.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if first.Value.I() != steady.Value.I() {
		t.Fatalf("value changed across promotion: %d -> %d", first.Value.I(), steady.Value.I())
	}
	if b.HasExpect && steady.Value.I() != b.Expect {
		t.Fatalf("steady value = %d, want %d", steady.Value.I(), b.Expect)
	}
	ps := sys.PromotionStats()
	if ps.Installed < 1 {
		t.Fatalf("%d promotions installed, want >= 1 (fails=%d discards=%d)", ps.Installed, ps.Fails, ps.Discards)
	}

	// Find a method compiled at both tiers whose optimizing recompile
	// inlined sends the baseline left dispatched: baseline's tier table
	// turns InlineMethods off, so any promoted method that now inlines a
	// user method is executing a send baseline dispatched dynamically.
	type pair struct{ base, opt *selfgo.MethodCompile }
	byName := map[string]*pair{}
	for _, e := range sys.CompileLog() {
		e := e
		p := byName[e.Name]
		if p == nil {
			p = &pair{}
			byName[e.Name] = p
		}
		switch e.Tier {
		case "baseline":
			if p.base == nil {
				p.base = &e
			}
		case "optimizing":
			if p.opt == nil {
				p.opt = &e
			}
		}
	}
	// Baseline may still inline trivial primitive wrappers (its
	// InlinePrimitives knob is kept), so the witness is strictly MORE
	// method inlining at the optimizing tier, not any-vs-none.
	found := false
	for _, p := range byName {
		if p.base == nil || p.opt == nil {
			continue
		}
		if p.opt.Stats.InlinedMethods > p.base.Stats.InlinedMethods &&
			inlineEvents(t, *p.opt) > inlineEvents(t, *p.base) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no promoted method inlines a send its baseline compile left dispatched (log: %d entries)", len(sys.CompileLog()))
	}
}

func TestAdaptivePromotesRichards(t *testing.T) {
	assertAdaptivePromotes(t, "richards")
}

func TestAdaptivePromotesStanford(t *testing.T) {
	// queens is a plain Stanford benchmark with hot inner methods.
	assertAdaptivePromotes(t, "queens")
}

// adaptiveRichards loads richards into an adaptive system (threshold
// 50) and forks workers-1 VMs off it sharing its cache; systems[0] is
// the root.
func adaptiveRichards(t *testing.T, workers int) (bench.Benchmark, []*selfgo.System) {
	t.Helper()
	b, ok := bench.ByName("richards")
	if !ok {
		t.Fatal("no richards benchmark")
	}
	root, err := selfgo.NewTieredSystem(selfgo.NewSELF, selfgo.ModeAdaptive, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.LoadSource(b.Source); err != nil {
		t.Fatal(err)
	}
	systems := make([]*selfgo.System, workers)
	systems[0] = root
	for i := 1; i < workers; i++ {
		systems[i] = root.Fork()
	}
	return b, systems
}

// runLapsConcurrently has every system run b's entry laps times, all
// systems at once, and returns each one's first error or wrong value.
func runLapsConcurrently(b bench.Benchmark, systems []*selfgo.System, laps int) []error {
	errs := make([]error, len(systems))
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lap := 0; lap < laps && errs[i] == nil; lap++ {
				res, err := systems[i].Call(b.Entry)
				if errs[i] = err; err == nil && res.Value.I() != b.Expect {
					errs[i] = fmt.Errorf("lap %d computed %d, want %d", lap, res.Value.I(), b.Expect)
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// checkPromotionLedger asserts the adaptive cache's compile ledger:
// single-flight per tier (no method compiles twice at any one tier
// across all workers, so optimizing code is never promoted again), no
// tier above optimizing, and every install exactly one optimizing
// compile — adaptive mode compiles at the top tier only by promotion.
func checkPromotionLedger(t *testing.T, root *selfgo.System) selfgo.PromotionStats {
	t.Helper()
	root.DrainPromotions()
	ps := root.PromotionStats()
	optimizing := selfgo.TierOptimizing.String()
	known := map[string]bool{}
	for tier := selfgo.TierDegraded; tier <= selfgo.TierOptimizing; tier++ {
		known[tier.String()] = true
	}
	compiles := map[[2]string]int{}
	for _, e := range root.CompileLog() {
		if !known[e.Tier] {
			t.Errorf("%s compiled at tier %q: there is no rung above %s", e.Name, e.Tier, optimizing)
		}
		k := [2]string{e.Tier, e.Name}
		if compiles[k]++; compiles[k] == 2 {
			t.Errorf("%s compiled twice at tier %s: single-flight broken, or optimizing code promoted", e.Name, e.Tier)
		}
	}
	if n := root.TierCounts()[optimizing]; int64(n) != ps.Installed {
		t.Errorf("%d optimizing compiles vs %d installs: promotions must account one compile each",
			n, ps.Installed)
	}
	return ps
}

// TestConcurrentAdaptivePromotion: N worker VMs sharing one adaptive
// cache all hammer the same hot methods. Promotion must stay
// single-flight (at most one optimizing compile per method no matter
// how many workers cross the threshold), the Get side must stay
// compile-once, and every worker must compute the right value before
// and after the swaps. Run under -race this also checks the hotness
// counters and the promote/install path for data races.
func TestConcurrentAdaptivePromotion(t *testing.T) {
	b, systems := adaptiveRichards(t, 8)
	root := systems[0]
	for i, err := range runLapsConcurrently(b, systems, 1) {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	ps := checkPromotionLedger(t, root)
	if ps.Installed < 1 {
		t.Fatalf("%d promotions installed, want >= 1 (fails=%d discards=%d)", ps.Installed, ps.Fails, ps.Discards)
	}
	if ps.Fails != 0 {
		t.Errorf("%d promotions failed", ps.Fails)
	}
	if cs := root.CacheStats(); !cs.CompileOnce() {
		t.Errorf("compile-once violated: %+v", cs)
	}

	// A steady-state lap over the promoted code still agrees, and the
	// promotion counters are monotone (nothing un-promotes).
	res, err := root.Call(b.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.I() != b.Expect {
		t.Errorf("steady value = %d, want %d", res.Value.I(), b.Expect)
	}
	root.DrainPromotions()
	if after := root.PromotionStats(); after.Installed < ps.Installed {
		t.Errorf("installed promotions went backwards: %d -> %d", ps.Installed, after.Installed)
	}
}

// TestConcurrentSecondRungPromotion: 8 workers run richards for two
// laps on one adaptive cache, so the optimizing code the first lap
// promoted gets hot in turn on the second. Optimizing is the top tier:
// hot promoted code must climb no second rung — no compile above
// optimizing, no method optimized twice, installs still equal to
// optimizing compiles — while a sampler racing the workers sees
// installs and per-tier compile counts only grow, and a steady lap on
// the top-tier code still computes the right answer.
func TestConcurrentSecondRungPromotion(t *testing.T) {
	b, systems := adaptiveRichards(t, 8)
	root := systems[0]

	stop, sampled := make(chan struct{}), make(chan error, 1)
	go func() {
		var lastInstalled int64
		var lastTiers map[string]int
		for {
			select {
			case <-stop:
				sampled <- nil
				return
			default:
			}
			installed, tc := root.PromotionStats().Installed, root.TierCounts()
			backwards := installed < lastInstalled
			for tier, n := range lastTiers {
				backwards = backwards || tc[tier] < n
			}
			if backwards {
				sampled <- fmt.Errorf("counters went backwards: installs %d then %d, tiers %v then %v",
					lastInstalled, installed, lastTiers, tc)
				return
			}
			lastInstalled, lastTiers = installed, tc
		}
	}()
	errs := runLapsConcurrently(b, systems, 2)
	root.DrainPromotions()
	close(stop)
	if err := <-sampled; err != nil {
		t.Error(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	ps := checkPromotionLedger(t, root)
	if ps.Installed < 1 {
		t.Fatalf("%d promotions installed, want >= 1", ps.Installed)
	}
	if ps.Fails != 0 {
		t.Errorf("%d promotions failed", ps.Fails)
	}

	res, err := root.Call(b.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.I() != b.Expect {
		t.Errorf("steady lap on optimizing code computed %d, want %d", res.Value.I(), b.Expect)
	}
	if after := checkPromotionLedger(t, root); after.Installed < ps.Installed {
		t.Errorf("installed promotions went backwards: %d -> %d", ps.Installed, after.Installed)
	}
}
