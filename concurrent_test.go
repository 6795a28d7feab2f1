package selfgo

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentSharedCache runs generated programs on 8 goroutines
// that share one world and one code cache, and checks every worker's
// result against a single-threaded oracle system. With -race this is
// the main concurrency test for the shared cache: the first wave of
// calls starts cold and simultaneously, so the workers pile up on the
// single-flight path, and the cache counters must still show each
// customization compiled exactly once.
func TestConcurrentSharedCache(t *testing.T) {
	const workers = 8
	const reps = 3
	seeds := []int64{1, 7, 19, 42, 101}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := newProgGen(seed).generate(4, 2, 12)

			// Single-threaded oracle: one system, one VM.
			oracle, err := NewSystem(NewSELF)
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.LoadSource(src); err != nil {
				t.Fatalf("seed %d does not parse: %v\n%s", seed, err, src)
			}
			want, err := oracle.Call("fuzzMain")
			if err != nil {
				t.Fatalf("oracle: %v\n%s", err, src)
			}

			root, err := NewSystem(NewSELF)
			if err != nil {
				t.Fatal(err)
			}
			if err := root.LoadSource(src); err != nil {
				t.Fatal(err)
			}
			systems := make([]*System, workers)
			systems[0] = root
			for i := 1; i < workers; i++ {
				systems[i] = root.Fork()
			}

			got := make([]int64, workers)
			errs := make([]error, workers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range systems {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for r := 0; r < reps; r++ {
						res, err := systems[i].Call("fuzzMain")
						if err != nil {
							errs[i] = fmt.Errorf("rep %d: %w", r, err)
							return
						}
						if r > 0 && res.Value.I() != got[i] {
							errs[i] = fmt.Errorf("rep %d: got %d, rep 0 got %d", r, res.Value.I(), got[i])
							return
						}
						got[i] = res.Value.I()
					}
				}()
			}
			close(start)
			wg.Wait()

			for i := 0; i < workers; i++ {
				if errs[i] != nil {
					t.Fatalf("worker %d: %v\n%s", i, errs[i], src)
				}
				if got[i] != want.Value.I() {
					t.Errorf("worker %d computed %d, oracle computed %d\n%s", i, got[i], want.Value.I(), src)
				}
			}

			st := root.CacheStats()
			if !st.CompileOnce() {
				t.Errorf("compile-once violated: misses=%d entries=%d evicted=%d", st.Misses, st.Entries, st.Evicted)
			}
			if st.Misses == 0 {
				t.Error("cache shows zero compilations; nothing was shared")
			}
		})
	}
}

// TestForkRequiresSharedCache pins the API contract: every system has a
// code cache, so a plain NewSystem forks, and root and fork compute the
// same value from code compiled once between them.
func TestForkRequiresSharedCache(t *testing.T) {
	root, err := NewSystem(NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.LoadSource("triangle: n = ( | s <- 0 | 1 upTo: n Do: [ :i | s: s + i ]. s )."); err != nil {
		t.Fatal(err)
	}
	fork := root.Fork()
	want, err := root.Call("triangle:", IntValue(100))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fork.Call("triangle:", IntValue(100))
	if err != nil {
		t.Fatal(err)
	}
	if want.Value.I() != 4950 || got.Value.I() != want.Value.I() {
		t.Fatalf("root computed %d, fork %d; want 4950 from both", want.Value.I(), got.Value.I())
	}
	if got.Compile.Methods != 0 || got.Compile.CacheHits == 0 {
		t.Errorf("fork compiled %d methods with %d cache hits; want all its code from the root's compiles",
			got.Compile.Methods, got.Compile.CacheHits)
	}
	if st := root.CacheStats(); !st.CompileOnce() || st.Misses == 0 {
		t.Errorf("compile-once violated across root and fork: %+v", st)
	}
}

// TestSharedCacheInvalidation checks that redefining a method through
// the world's change hook evicts its customizations from the shared
// cache and that subsequent calls see the new definition.
func TestSharedCacheInvalidation(t *testing.T) {
	root, err := NewSystem(NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.LoadSource("answer = ( 41 )."); err != nil {
		t.Fatal(err)
	}
	res, err := root.Call("answer")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.I() != 41 {
		t.Fatalf("got %d, want 41", res.Value.I())
	}
	st := root.CacheStats()
	if st.Misses == 0 {
		t.Fatal("first call should have compiled through the shared cache")
	}

	// Redefine: the OnMapChange hook must evict the stale code.
	if err := root.LoadSource("answer = ( 42 )."); err != nil {
		t.Fatal(err)
	}
	res, err = root.Call("answer")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.I() != 42 {
		t.Fatalf("after redefinition got %d, want 42 (stale code survived invalidation)", res.Value.I())
	}
	st = root.CacheStats()
	if st.Evicted == 0 {
		t.Error("redefinition did not evict anything from the shared cache")
	}
	if !st.CompileOnce() {
		t.Errorf("compile-once violated after invalidation: misses=%d entries=%d evicted=%d",
			st.Misses, st.Entries, st.Evicted)
	}
}

// TestRedefinitionReachesCompiledCallers pins customization's soundness
// rule on a plain NewSystem: code compiled against a map is dropped
// when that map changes. A caller compiled before a redefinition must
// run the new body afterwards, whether the compiler inlined the callee
// (new SELF) or the send's inline cache memoized its code (ST-80), and
// whether the redefinition replaces a method or rebinds a constant to
// an object whose method the caller's loop ran.
func TestRedefinitionReachesCompiledCallers(t *testing.T) {
	cases := []struct {
		src, redefine string
		sel           string
		before, after int64
	}{
		{"answer = ( 41 ). go = ( answer ).", "answer = ( 42 ).", "go", 41, 42},
		{`shape = (| parent* = lobby. n <- 7. cost = ( n * 2 ) |).
		tally = ( | s <- 0 | 1 to: 10 Do: [ :i | s: s + shape cost ]. s ).`,
			"shape = (| parent* = lobby. n <- 7. cost = ( n * 3 ) |).", "tally", 140, 210},
	}
	for _, cfg := range []Config{NewSELF, ST80} {
		t.Run(cfg.Name, func(t *testing.T) {
			for _, c := range cases {
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.LoadSource(c.src); err != nil {
					t.Fatal(err)
				}
				if res, err := sys.Call(c.sel); err != nil || res.Value.I() != c.before {
					t.Fatalf("%s before redefinition: %v, %v; want %d", c.sel, res, err, c.before)
				}
				if err := sys.LoadSource(c.redefine); err != nil {
					t.Fatal(err)
				}
				res, err := sys.Call(c.sel)
				if err != nil {
					t.Fatal(err)
				}
				if res.Value.I() != c.after {
					t.Fatalf("after redefinition %s returned %d, want %d (a compiled caller kept the old body)", c.sel, res.Value.I(), c.after)
				}
				if st := sys.CacheStats(); st.Evicted == 0 {
					t.Errorf("%s: the redefinition evicted nothing", c.sel)
				}
			}
		})
	}
}

// TestConcurrentStatsSnapshots hammers the observability surface while
// 8 workers run the adaptive tier schedule: one goroutine per snapshot
// kind (cache stats, promotion stats, tier counts) polls continuously
// during the run, and every snapshot must be internally consistent and
// monotone — counters never go backwards, CompileOnce never reports a
// violation. This is the -race guarantee the serving layer's /metrics
// endpoint depends on: scrapes happen on arbitrary goroutines while
// every worker executes and promotes.
func TestConcurrentStatsSnapshots(t *testing.T) {
	const workers = 8
	const reps = 6
	root, err := NewTieredSystem(NewSELF, ModeAdaptive, 10)
	if err != nil {
		t.Fatal(err)
	}
	src := `
spinStats: n = ( | s <- 0 | 1 upTo: n Do: [ :i | s: s + (i * i) ]. s ).
stepStats: n = ( spinStats: n ).
`
	if err := root.LoadSource(src); err != nil {
		t.Fatal(err)
	}
	systems := make([]*System, workers)
	systems[0] = root
	for i := 1; i < workers; i++ {
		systems[i] = root.Fork()
	}

	stop := make(chan struct{})
	snapErr := make(chan error, 3)
	// Cache-stats poller: counters are monotone and compile-once holds
	// in every snapshot, not just the final one.
	go func() {
		var prev CacheStats
		for {
			select {
			case <-stop:
				snapErr <- nil
				return
			default:
			}
			st := root.CacheStats()
			if st.Hits < prev.Hits || st.Misses < prev.Misses ||
				st.Waits < prev.Waits || st.Evicted < prev.Evicted ||
				st.Promotions < prev.Promotions {
				snapErr <- fmt.Errorf("cache counters went backwards: %+v -> %+v", prev, st)
				return
			}
			if !st.CompileOnce() {
				snapErr <- fmt.Errorf("snapshot violates compile-once: %+v", st)
				return
			}
			prev = st
		}
	}()
	// Promotion-stats poller.
	go func() {
		var prev PromotionStats
		for {
			select {
			case <-stop:
				snapErr <- nil
				return
			default:
			}
			ps := root.PromotionStats()
			if ps.Installed < prev.Installed || ps.Fails < prev.Fails || ps.Discards < prev.Discards {
				snapErr <- fmt.Errorf("promotion counters went backwards: %+v -> %+v", prev, ps)
				return
			}
			prev = ps
		}
	}()
	// Tier-count poller: totals only grow.
	go func() {
		prevTotal := 0
		for {
			select {
			case <-stop:
				snapErr <- nil
				return
			default:
			}
			total := 0
			for _, n := range root.TierCounts() {
				total += n
			}
			if total < prevTotal {
				snapErr <- fmt.Errorf("tier-count total shrank: %d -> %d", prevTotal, total)
				return
			}
			prevTotal = total
		}
	}()

	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				res, err := systems[i].Call("stepStats:", IntValue(300))
				if err != nil {
					t.Errorf("worker %d rep %d: %v", i, r, err)
					return
				}
				if res.Value.I() != 8955050 {
					t.Errorf("worker %d rep %d: got %d", i, r, res.Value.I())
					return
				}
			}
		}()
	}
	wg.Wait()
	root.DrainPromotions()
	close(stop)
	for i := 0; i < 3; i++ {
		if err := <-snapErr; err != nil {
			t.Fatal(err)
		}
	}

	// Post-drain: the final snapshot still satisfies compile-once, and
	// the adaptive schedule actually promoted something.
	st := root.CacheStats()
	if !st.CompileOnce() {
		t.Errorf("final snapshot violates compile-once: %+v", st)
	}
	ps := root.PromotionStats()
	if ps.Installed == 0 {
		t.Errorf("no promotions landed under 8-worker adaptive load: %+v (tiers %v)", ps, root.TierCounts())
	}
}
