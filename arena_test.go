package selfgo_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"selfgo"
	"selfgo/internal/bench"
)

// TestBudgetMaxBytes: the bytes axis of the budget faults at the
// allocation site — one hostile `_NewVec:` must return a typed
// out-of-fuel error instead of materializing gigabytes of host storage
// and hoping the next poll notices.
func TestBudgetMaxBytes(t *testing.T) {
	sys, err := selfgo.NewSystem(selfgo.NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	src := `
		boom = ( _NewVec: 100000000 ).
		trap = ( _NewVec: 100000000 IfFail: [ -1 ] ).
		churn = ( [ true ] whileTrue: [ _NewVec: 64 ]. 0 ).
		ok = ( | v | v: vector copySize: 10 FillWith: 3. v at: 2 ).
	`
	if err := sys.LoadSource(src); err != nil {
		t.Fatal(err)
	}
	sys.SetBudget(selfgo.Budget{MaxBytes: 1 << 20})

	// One allocation far over budget: faults immediately, at the site.
	_, err = sys.Call("boom")
	if k, ok := selfgo.ErrorKind(err); !ok || k != selfgo.KindOutOfFuel {
		t.Fatalf("boom: kind = %v (ok=%v), want KindOutOfFuel; err: %v", k, ok, err)
	}
	if !strings.Contains(err.Error(), "byte budget") {
		t.Fatalf("boom: error does not name the byte budget: %v", err)
	}

	// A guest IfFail: handler must not swallow the fault — the byte
	// budget is a host resource bound, not a primitive failure the
	// program may negotiate with.
	_, err = sys.Call("trap")
	if k, ok := selfgo.ErrorKind(err); !ok || k != selfgo.KindOutOfFuel {
		t.Fatalf("trap: kind = %v (ok=%v), want KindOutOfFuel (not the IfFail: value); err: %v", k, ok, err)
	}

	// Many small allocations accumulate to the same fault.
	_, err = sys.Call("churn")
	if k, ok := selfgo.ErrorKind(err); !ok || k != selfgo.KindOutOfFuel {
		t.Fatalf("churn: kind = %v (ok=%v), want KindOutOfFuel; err: %v", k, ok, err)
	}

	// Within budget the same system still allocates fine, and the run
	// reports its modelled byte traffic.
	res, err := sys.Call("ok")
	if err != nil || res.Value.I() != 3 {
		t.Fatalf("ok = (%v, %v), want 3", res, err)
	}
	if res.Run.AllocBytes <= 0 {
		t.Fatalf("ok: AllocBytes = %d, want > 0", res.Run.AllocBytes)
	}
}

// TestAllocChargingDifferential: Allocs and AllocBytes must be charged
// identically whatever path performs the allocation — the primitive
// send in the baseline tier and the NewVec/Clone opcodes the optimizing
// tier emits. A program mixing vectors, clones and element stores is
// run at two sizes under both schedules. AllocBytes (only vectors and
// clones charge bytes) must match absolutely; for Allocs the
// per-iteration delta between the two sizes must match — the baseline
// tier legitimately allocates a few extra closures per call because it
// does not inline blocks, but the per-allocation charging it shares
// with the optimizing tier must be identical.
func TestAllocChargingDifferential(t *testing.T) {
	src := `
		node = (| parent* = lobby. val <- 0. setVal: v = ( val: v. self ) |).
		mix: n = ( | v. acc <- 0 |
			v: vector copySize: n FillWith: 3.
			0 upTo: n Do: [ :i | v at: i Put: ((node _Clone setVal: i) val) ].
			v do: [ :e | acc: acc + e ].
			acc + (_NewVec: 5 Fill: 1) size ).
	`
	// runs is one schedule's value and RunStats of mix: at sizes 16 and 32.
	type runs struct {
		value      int64
		small, big selfgo.RunStats
	}
	measure := func(mode selfgo.TierMode) (r runs) {
		sys, err := selfgo.NewTieredSystem(selfgo.NewSELF, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadSource(src); err != nil {
			t.Fatal(err)
		}
		for i, st := range []*selfgo.RunStats{&r.small, &r.big} {
			res, err := sys.Call("mix:", selfgo.IntValue(int64(16<<i)))
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			r.value, *st = res.Value.I(), res.Run
		}
		return r
	}
	opt, base := measure(selfgo.ModeOpt), measure(selfgo.ModeBaseline)
	if opt.small.Allocs == 0 || opt.small.AllocBytes == 0 {
		t.Fatalf("opt charged nothing: %+v", opt.small)
	}
	if base.value != opt.value {
		t.Errorf("value differs: opt=%d, baseline=%d", opt.value, base.value)
	}
	if base.small.AllocBytes != opt.small.AllocBytes || base.big.AllocBytes != opt.big.AllocBytes {
		t.Errorf("AllocBytes differ: opt=%d/%d, baseline=%d/%d",
			opt.small.AllocBytes, opt.big.AllocBytes, base.small.AllocBytes, base.big.AllocBytes)
	}
	if d, od := base.big.Allocs-base.small.Allocs, opt.big.Allocs-opt.small.Allocs; d != od {
		t.Errorf("per-iteration Allocs delta differs: opt=%d, baseline=%d", od, d)
	}
}

// TestCrossWorkerEpochIdentity: epoch numbers must identify their
// arena globally, not just sequence within one arena. Two forked
// workers share one world; worker A publishes an arena vector into the
// world (escape, abandoned on A's reset), then worker B stores a fresh
// arena-B vector into that escaped object. B's store barrier compares
// raw epoch numbers — with per-arena counters both workers can sit at
// the same number, the store looks intra-epoch, no escape is recorded,
// and B's clean reset recycles the chunk under a world-reachable
// value. Globally-unique epochs make the barrier fire: B's epoch must
// be abandoned and the published value stay intact.
func TestCrossWorkerEpochIdentity(t *testing.T) {
	root, err := selfgo.NewSystem(selfgo.NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	src := `
		keep <- 0.
		stash = ( keep: (vector copySize: 4 FillWith: 9). 0 ).
		poke = ( keep at: 0 Put: (vector copySize: 4 FillWith: 6). 0 ).
		churn: n = ( | v | v: vector copySize: n FillWith: 1. v at: 0 ).
		read = ( (keep at: 0) at: 2 ).
	`
	if err := root.LoadSource(src); err != nil {
		t.Fatal(err)
	}
	a := root.Fork()
	b := root.Fork()

	// Worker A: escape a vector to the shared world, then reset. Both
	// workers' arenas have now each seen exactly one reset-relevant
	// event; with per-arena epoch counters their numbers would collide.
	if _, err := a.Call("stash"); err != nil {
		t.Fatal(err)
	}
	a.ResetArena()
	if _, ab := a.ArenaStats(); ab != 1 {
		t.Fatalf("worker A abandons = %d, want 1 (world escape)", ab)
	}

	// Worker B: store a fresh arena-B vector into A's escaped vector.
	// The target's epoch differs from B's, so the barrier must record
	// the escape of B's current epoch.
	if _, err := b.Call("poke"); err != nil {
		t.Fatal(err)
	}
	b.ResetArena()
	if _, ab := b.ArenaStats(); ab != 1 {
		t.Fatalf("worker B abandons = %d, want 1 (cross-arena store must escape)", ab)
	}

	// Hammer B's arena through fresh epochs so a wrongly-recycled chunk
	// would be rewritten, then read the published value back through
	// the world: it must be unclobbered.
	for i := 0; i < 8; i++ {
		if _, err := b.Call("churn:", selfgo.IntValue(200)); err != nil {
			t.Fatal(err)
		}
		b.ResetArena()
	}
	res, err := b.Call("read")
	if err != nil || res.Value.I() != 6 {
		t.Fatalf("read = (%v, %v), want 6 (cross-worker published vector corrupted)", res, err)
	}
}

// TestArenaLifecycle exercises the per-VM arena across epochs: clean
// runs recycle their chunks, values that escape to the world (or are
// pinned by the embedder) survive the reset because the dirty epoch is
// abandoned to the garbage collector instead of recycled.
func TestArenaLifecycle(t *testing.T) {
	root, err := selfgo.NewSystem(selfgo.NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	src := `
		keep <- 0.
		blockKeep <- 0.
		mkSum: n = ( | v | v: vector copySize: n FillWith: 7. v at: 3 ).
		stash: n = ( keep: (vector copySize: n FillWith: 9). 0 ).
		peek = ( keep at: 1 ).
		stashBlk = ( blockKeep: [ 5 ]. 0 ).
	`
	if err := root.LoadSource(src); err != nil {
		t.Fatal(err)
	}
	w := root.Fork()

	// Clean epochs: nothing escapes, so every reset recycles.
	for i := 0; i < 3; i++ {
		res, err := w.Call("mkSum:", selfgo.IntValue(100))
		if err != nil || res.Value.I() != 7 {
			t.Fatalf("mkSum (epoch %d) = (%v, %v), want 7", i, res, err)
		}
		w.ResetArena()
	}
	resets, abandons := w.ArenaStats()
	if resets != 3 || abandons != 0 {
		t.Fatalf("after clean epochs: resets=%d abandons=%d, want 3/0", resets, abandons)
	}

	// Escape to the world: the store barrier marks the epoch dirty, the
	// reset abandons it, and the escaped vector stays readable.
	if _, err := w.Call("stash:", selfgo.IntValue(10)); err != nil {
		t.Fatal(err)
	}
	w.ResetArena()
	if _, abandons = w.ArenaStats(); abandons != 1 {
		t.Fatalf("after world escape: abandons=%d, want 1", abandons)
	}
	res, err := w.Call("peek")
	if err != nil || res.Value.I() != 9 {
		t.Fatalf("peek after reset = (%v, %v), want 9 (escaped storage must survive)", res, err)
	}
	w.ResetArena()

	// A block escaping to the world dirties the epoch conservatively
	// (its captured frame may alias arena values).
	if _, err := w.Call("stashBlk"); err != nil {
		t.Fatal(err)
	}
	w.ResetArena()
	if _, abandons = w.ArenaStats(); abandons < 2 {
		t.Fatalf("after block escape: abandons=%d, want >= 2", abandons)
	}

	// Embedder pin: MarkEscaped keeps a returned value valid across the
	// reset without any guest-side store.
	res, err = w.Call("mkSum:", selfgo.IntValue(8))
	if err != nil {
		t.Fatal(err)
	}
	w.MarkEscaped(res.Value)
	w.ResetArena()

	// Concurrent forks each own an arena; run+reset loops on separate
	// goroutines must be race-free (this test matters under -race).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		f := root.Fork()
		wg.Add(1)
		go func(sys *selfgo.System) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := sys.Call("mkSum:", selfgo.IntValue(50))
				if err != nil || res.Value.I() != 7 {
					t.Errorf("concurrent mkSum = (%v, %v)", res, err)
					return
				}
				sys.ResetArena()
			}
		}(f)
	}
	wg.Wait()
}

// TestWarmCallHostBytes pins the Go heap bytes and objects one warm
// Call plus ResetArena costs for each program the benchmark's
// loops.warm and sends.warm workloads run, and for puzzle, the corpus's
// heaviest allocator. Each pin is 1.25 times what was measured, or the
// measurement plus 64 where that is larger; the byte pins of the
// workloads' programs date from when the arena's chunks became sized
// to their epoch (averaged over 20 calls after three warm-ups; puzzle
// takes a tenth of a second a call, so it is averaged over 5). What
// remains is the Result, escaped frames and closures (richards), and
// what the guest keeps: tree stores its vectors in the lobby, so every
// epoch is abandoned to the GC. A return to full-size chunks costs
// towers, tree and queens 192 KiB a call, and sieve's 8,191-element
// vector 128 KiB when large vectors are not recycled.
func TestWarmCallHostBytes(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector changes what the host allocates")
	}
	pins := []struct {
		name          string
		bytes, allocs float64 // per warm call
	}{
		{"sieve", 300, 65}, {"sumTo", 300, 65}, {"sumFromTo", 300, 65}, {"sumToConst", 300, 65},
		{"atAllPut", 300, 65}, {"bubble", 300, 65},
		{"towers", 9200, 67}, {"tree", 67000, 74}, {"richards", 390000, 6320}, {"queens", 9200, 67},
		{"perm", 300, 65}, {"towers-oo", 300, 65}, {"tree-oo", 1000, 71}, {"queens-oo", 300, 65},
		{"perm-oo", 300, 65}, {"puzzle", 1830140, 17589},
	}
	for _, p := range pins {
		b, ok := bench.ByName(p.name)
		if !ok {
			t.Fatalf("no benchmark %q", p.name)
		}
		sys, err := selfgo.NewSystem(selfgo.NewSELF)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadSource(b.Source); err != nil {
			t.Fatal(err)
		}
		call := func() {
			if _, err := sys.Call(b.Entry); err != nil {
				t.Fatal(err)
			}
			sys.ResetArena()
		}
		for i := 0; i < 3; i++ {
			call()
		}
		calls := 20
		if p.name == "puzzle" {
			calls = 5
		}
		// Another goroutine's allocation can only add to either count,
		// so a round over a pin is retried and the least round counts.
		bytes, allocs := warmAllocs(calls, call)
		for retry := 0; retry < 2 && (bytes > p.bytes || allocs > p.allocs); retry++ {
			b, a := warmAllocs(calls, call)
			bytes, allocs = min(bytes, b), min(allocs, a)
		}
		t.Logf("%-10s %9.0f B and %7.1f objects per warm call (pins %.0f, %.0f)", p.name, bytes, allocs, p.bytes, p.allocs)
		if bytes > p.bytes {
			t.Errorf("%s: %.0f host bytes per warm call, pinned at %.0f", p.name, bytes, p.bytes)
		}
		if allocs > p.allocs {
			t.Errorf("%s: %.1f host objects per warm call, pinned at %.0f", p.name, allocs, p.allocs)
		}
	}
}

// warmAllocs returns the Go heap bytes and objects each of n calls of f
// allocates on average, measured with one P so that other goroutines
// add as little as possible.
func warmAllocs(n int, f func()) (bytes, allocs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}
