package wire

import (
	"testing"

	"selfgo/internal/vm"
)

// TestCodecAllocations: scanning a hot /eval body, deriving its
// affinity key and appending a reply touch the heap only for the key's
// string; a field is a view of the body, never a copy.
func TestCodecAllocations(t *testing.T) {
	body := []byte(`{"expr": "| s <- 3 | 1 upTo: 200 Do: [:i | s: s + i]. s", "deadline_ms": 250}`)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseEvalRequest(body, Limits{}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseEvalRequest allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { AffinityKey("/eval", body) }); n > 1 {
		t.Errorf("AffinityKey allocates %.0f times, want 1 (the key)", n)
	}
	run := RunStatsOf(vm.RunStats{Instrs: 1234, Cycles: 5678})
	res := Result{Value: "19903", Int: 19903, Run: &run, CompileTimeMS: 0.25,
		TierMode: "opt", Tiers: map[string]int{"optimizing": 3}}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { buf = res.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON allocates %.0f times, want 0", n)
	}
}
