package selfgo

import (
	"testing"
	"time"
)

// TestCompileLogAggregates: every /eval reply reads the total compile
// time and the per-tier counts, and every scrape the node counts, so
// none of them may walk or copy the log — and the log itself keeps only
// its latest compileLogCap entries. After 10^5 compilations the
// aggregates are exact over all of them, totalCompileTime allocates
// nothing, TierCounts only its small result map, and CompileLog() is
// the last compileLogCap entries in order.
func TestCompileLogAggregates(t *testing.T) {
	sys, err := NewSystem(NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	tiers := []string{"baseline", "optimizing", "native", "degraded"}
	const n = 100_000
	var total time.Duration
	var built, kept int64
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		e := MethodCompile{Name: "m", Tier: tiers[i%7%len(tiers)]}
		e.Stats.Duration = time.Duration(i%13) * time.Microsecond
		e.Stats.BuiltNodes, e.Stats.Nodes = i, i%5
		sys.log.add(e)
		total += e.Stats.Duration
		built += int64(e.Stats.BuiltNodes)
		kept += int64(e.Stats.Nodes)
		counts[e.Tier]++
		if want := min(i+1, compileLogCap); sys.CompileLogLen() != want {
			t.Fatalf("after %d compilations the log holds %d entries, want %d", i+1, sys.CompileLogLen(), want)
		}
	}
	log := sys.CompileLog()
	if len(log) != compileLogCap {
		t.Fatalf("CompileLog returned %d entries, want the latest %d", len(log), compileLogCap)
	}
	for j, e := range log {
		if want := n - compileLogCap + j; e.Stats.BuiltNodes != want {
			t.Fatalf("CompileLog()[%d] is compilation %d, want %d: not the retained tail in order", j, e.Stats.BuiltNodes, want)
		}
	}
	if b, k := sys.CompileNodes(); b != built || k != kept {
		t.Errorf("CompileNodes = %d built, %d kept; a walk of the log says %d, %d", b, k, built, kept)
	}
	if got := sys.totalCompileTime(); got != total {
		t.Errorf("totalCompileTime = %v, a walk of the log says %v", got, total)
	}
	got := sys.TierCounts()
	if len(got) != len(counts) {
		t.Errorf("TierCounts = %v, a walk of the log says %v", got, counts)
	}
	for tier, n := range counts {
		if got[tier] != n {
			t.Errorf("TierCounts[%s] = %d, a walk of the log says %d", tier, got[tier], n)
		}
	}
	got["baseline"] = -1 // the result is the caller's own copy
	if sys.TierCounts()["baseline"] != counts["baseline"] {
		t.Error("TierCounts handed out its internal map")
	}

	if n := testing.AllocsPerRun(100, func() { sys.totalCompileTime() }); n != 0 {
		t.Errorf("totalCompileTime allocates %.0f times per call with 10^5 entries logged", n)
	}
	// A four-entry map is one header and one bucket group.
	if n := testing.AllocsPerRun(100, func() { sys.TierCounts() }); n > 2 {
		t.Errorf("TierCounts allocates %.0f times per call with 10^5 entries logged, want only its result map", n)
	}
}
