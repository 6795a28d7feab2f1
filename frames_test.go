package selfgo_test

import (
	"runtime"
	"testing"

	"selfgo"
	"selfgo/internal/bench"
)

// TestWarmCallsDoNotAllocateFrames: once warm, a call of towers or tree
// — 16k and 21k recursive activations of methods that had 999 and 453
// virtual registers — runs on pooled register files. Before register
// allocation every such activation was a Go allocation (≈65.5k and
// ≈42.7k per call).
func TestWarmCallsDoNotAllocateFrames(t *testing.T) {
	for _, name := range []string{"towers", "tree"} {
		b, _ := bench.ByName(name)
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
		call()
		call()
		sys.TakeFrameStats()
		allocs := testing.AllocsPerRun(5, call)
		t.Logf("%s: %.0f Go allocations per warm call", name, allocs)
		if allocs > 64 {
			t.Errorf("%s: %.0f Go allocations per warm call, want a small constant", name, allocs)
		}
		// Only a frame a closure captured leaves the pool (treeBench makes
		// two closures a call); everything else is a reuse.
		if fs := sys.TakeFrameStats(); fs.Allocs > 32 || fs.Reuses < 10000 || fs.PoolBytes != 0 {
			t.Errorf("%s: warm calls moved the frame pool: %+v", name, fs)
		}
	}
}

// TestDeepRecursionFootprint: a runaway recursion in a wide method must
// hit the depth limit having held little. The method below is towers'
// towMove:From:To:Via: with a base case it never reaches — the same
// ~1,000 virtual registers; at a 16 KB register file apiece, 20,000
// live activations were ~320 MB that Budget.MaxBytes never saw.
func TestDeepRecursionFootprint(t *testing.T) {
	b, _ := bench.ByName("towers")
	sys, err := selfgo.NewSystem(selfgo.NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.LoadSource(b.Source + `
towDeep: n From: a To: b Via: c = (
    (n = 0) ifTrue: [
        towPush: (towPopFrom: a) On: b.
        towMoves: towMoves + 1 ]
    False: [
        towDeep: n - 1 From: a To: c Via: b.
        towPush: (towPopFrom: a) On: b.
        towMoves: towMoves + 1.
        towDeep: n - 1 From: c To: b Via: a ] ).
towRunaway = ( towDeep: 1000000 From: 0 To: 2 Via: 1 ).`)
	if err != nil {
		t.Fatal(err)
	}
	code, err := sys.CodeFor("towDeep:From:To:Via:")
	if err != nil {
		t.Fatal(err)
	}
	if code.VirtRegs < 500 || code.NumRegs > 64 {
		t.Fatalf("towDeep: %d registers of %d virtual; want a wide method in a small frame", code.NumRegs, code.VirtRegs)
	}
	sys.SetBudget(selfgo.Budget{MaxDepth: 20000})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = sys.Call("towRunaway")
	runtime.ReadMemStats(&after)
	if kind, _ := selfgo.ErrorKind(err); kind != selfgo.KindStackOverflow {
		t.Fatalf("runaway recursion: %v, want a stack overflow", err)
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("20,000 activations of a %d-virtual-register method allocated %.1f MB", code.VirtRegs, mb)
	if mb >= 32 {
		t.Errorf("allocated %.1f MB on the way to the depth limit, want < 32 MB", mb)
	}
}
