package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"selfgo"
)

// TestPuzzleCompileCost bounds what the suite's worst case costs the
// compiler. puzzleBench is where iterative type analysis discards the
// most: it builds 75,685 IR nodes to keep 1,567, and must build no more
// than 50 for each it keeps. One cold call of puzzle — compile time
// dominates it; the run itself allocates under 2 MB — must stay under
// 100 MB of Go allocation: 58 MB since a loop simulation gives its nodes
// and env chunks back when it returns, 127 MB before, and 468 MB while
// every flow copied its whole binding table at every branch.
func TestPuzzleCompileCost(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles puzzle; skipped in -short mode")
	}
	b, _ := ByName("puzzle")
	sys, err := selfgo.NewSystem(selfgo.NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadSource(b.Source); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sys.Call(b.Entry); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 100 {
		t.Errorf("a cold call of puzzle allocated %.0f MB, want < 100", mb)
	} else {
		t.Logf("cold call of puzzle: %.0f MB allocated", mb)
	}

	for _, e := range sys.CompileLog() {
		if !strings.HasSuffix(e.Name, "puzzleBench") {
			continue
		}
		t.Logf("%s: %d nodes built, %d kept, %d loop-body compilations", e.Name, e.Stats.BuiltNodes, e.Stats.Nodes, e.Stats.LoopIterations)
		if e.Stats.Nodes == 0 || e.Stats.BuiltNodes < e.Stats.Nodes {
			t.Errorf("%s: built %d, kept %d: built must cover kept", e.Name, e.Stats.BuiltNodes, e.Stats.Nodes)
		} else if e.Stats.BuiltNodes > 50*e.Stats.Nodes {
			t.Errorf("%s: built %d to keep %d, more than 50:1", e.Name, e.Stats.BuiltNodes, e.Stats.Nodes)
		}
		return
	}
	t.Error("the compile log has no entry for puzzleBench")
}

// TestChurnEvalCost bounds what one never-seen expression of the
// serve.churn shape costs the Go heap, compile and run included: slab
// sizing in the compiler's node and env-chunk arenas must not make the
// small compiles a serving replica does on every request dearer than
// plain heap allocation was. The bound is what this test measured on the
// commit before those arenas (linux/amd64, go1.24.0; the same figures
// on every run): 87.9 KB and 1,011 mallocs per Eval.
func TestChurnEvalCost(t *testing.T) {
	sys, err := selfgo.NewSystem(selfgo.NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(k, n int) {
		t.Helper()
		src := fmt.Sprintf("| s <- %d | 1 upTo: %d Do: [:i | s: s + i]. s", k, n)
		r, err := sys.Eval(src)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(k + n*(n-1)/2); r.Value.I() != want {
			t.Fatalf("%s = %v, want %d", src, r.Value, want)
		}
	}
	for k := range 8 { // first-use costs: prelude sends, caches, pools
		eval(1000+k, 100+k)
	}
	const evals = 64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := range evals {
		eval(2000+k, 100+(k*37)%301)
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / evals
	mallocs := float64(after.Mallocs-before.Mallocs) / evals
	t.Logf("a never-seen churn Eval: %.1f KB, %.0f mallocs", kb, mallocs)
	if kb > 87.9 || mallocs > 1011 {
		t.Errorf("a never-seen churn Eval allocates %.1f KB in %.0f mallocs, want at most 87.9 KB and 1,011 mallocs", kb, mallocs)
	}
}
