package selfgo_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"selfgo"
)

var updateDigest = flag.Bool("update-digest", false, "rewrite testdata/compile_digest.json from this build")

const digestFile = "testdata/compile_digest.json"

// digestBudget stops every program after its first 300k instructions:
// by then the long-running benchmarks have compiled what they compile.
var digestBudget = selfgo.Budget{MaxInstrs: 300_000}

// digestCells is the pinned matrix: every corpus program under every
// preset, eager tier and strategy of strats, within digestBudget, as
// variant v.
func digestCells(v variant, strats []selfgo.Strategy) []cell {
	var out []cell
	for _, preset := range selfgo.Configs() {
		for _, strat := range strats {
			for _, mode := range modes {
				for _, c := range cells(corpus, v, preset) {
					c.cfg.Strategy, c.mode, c.budget = strat, mode, digestBudget
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// digestKey names c's entry in the pinned file.
func digestKey(c cell) string {
	return fmt.Sprintf("%s/%s/%s/%s", c.cfg.Name, c.cfg.Strategy, c.mode, c.p.name)
}

// TestCompileDigest is the oracle for "same decisions, made faster":
// testdata/compile_digest.json pins the code every benchmark and
// conformance program compiles to under each preset, eager tier and
// strategy, three hashes per cell (codeDigest). A compiler change that
// is meant to alter no decision must pass it unchanged; one that is
// meant to regenerates the file with
// `go test -run TestCompileDigest -update-digest .` and says so; a
// failure names the column that moved.
func TestCompileDigest(t *testing.T) {
	if *updateDigest && reduced() {
		t.Fatal("-update-digest needs the full matrix: run without -short and -race")
	}
	want := map[string]codeDigest{}
	if !*updateDigest {
		want = pinnedDigest(t)
	}
	got := map[string]codeDigest{}
	for _, c := range reduce(digestCells(shipped, strategies)) {
		o := get(t, c)
		if o.Msg != "" && o.Kind != selfgo.KindOutOfFuel {
			t.Errorf("%s: %s", c, o.Msg)
		}
		key := digestKey(c)
		got[key] = o.Digest
		w, ok := want[key]
		switch g := o.Digest; {
		case *updateDigest:
		case !ok:
			t.Errorf("%s: not pinned", key)
		case g.Raw != w.Raw:
			t.Errorf("%s: the compiler's output changed (raw %.12s, pinned %.12s)", key, g.Raw, w.Raw)
		case g.Alloc != w.Alloc:
			t.Errorf("%s: register allocation changed (alloc %.12s, pinned %.12s; raw unchanged)", key, g.Alloc, w.Alloc)
		case g.Fused != w.Fused:
			t.Errorf("%s: the fused stream changed (fused %.12s, pinned %.12s; raw and alloc unchanged)", key, g.Fused, w.Fused)
		}
	}
	if *updateDigest {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !reduced() && len(want) != len(got) {
		t.Errorf("%s pins %d cells, the matrix has %d", digestFile, len(want), len(got))
	}
}

// pinnedDigest reads testdata/compile_digest.json.
func pinnedDigest(t *testing.T) map[string]codeDigest {
	t.Helper()
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]codeDigest{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", digestFile, err)
	}
	return want
}

// TestCompileDigestPoisoned recompiles the digest's split cells with
// every release poisoning what it frees: a loop simulation's nodes get
// an invalid op and no successors, its env chunks bind every register
// to nil, and neither is handed out again. Anything the compiler still
// reads after a simulation returns — beyond the tail types it copies
// out and the landing it keeps for an outer home — then moves a hash
// or the run.
func TestCompileDigestPoisoned(t *testing.T) {
	want := pinnedDigest(t)
	for _, c := range reduce(digestCells(poisoned, strategies[:1])) {
		if got, _ := identical(t, c); got.Digest != want[digestKey(c)] {
			t.Errorf("%s: compiled code differs from the pinned digest with releases poisoned", c)
		}
	}
}

// determinismRepeats: with one more compile, materializing block
// registers in Go map order fails 5 runs of 5; every variant of every
// cell is a further witness (sameCode).
const determinismRepeats = 1

// TestCompileDeterministic compiles every benchmark and conformance
// program again in the same process and demands byte-identical code
// each time: nothing the compiler emits may depend on Go map order.
func TestCompileDeterministic(t *testing.T) {
	var cs []cell
	for _, cfg := range []selfgo.Config{selfgo.NewSELF, selfgo.NewSELFExtended} {
		for _, c := range cells(corpus, shipped, cfg) {
			c.budget = digestBudget
			cs = append(cs, c)
		}
	}
	for _, c := range reduce(cs) {
		first := get(t, c)
		for i := 0; i < determinismRepeats; i++ {
			if d := repeat(c).Digest; d != first.Digest {
				t.Errorf("%s: compile %d differs from compile 1", c, i+2)
				break
			}
		}
	}
}
