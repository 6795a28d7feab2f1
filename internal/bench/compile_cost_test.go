package bench

import (
	"runtime"
	"strings"
	"testing"

	"selfgo"
)

// TestPuzzleCompileCost bounds what the suite's worst case costs the
// compiler. puzzleBench is where iterative type analysis discards the
// most: the nodes it builds against the nodes it keeps are recorded, and
// one cold call of puzzle — compile time dominates it — must stay under
// 250 MB of Go allocation (468 MB while every flow copied its whole
// binding table at every branch; the run itself allocates under 2 MB).
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
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 250 {
		t.Errorf("a cold call of puzzle allocated %.0f MB, want < 250", mb)
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
		}
		return
	}
	t.Error("the compile log has no entry for puzzleBench")
}
