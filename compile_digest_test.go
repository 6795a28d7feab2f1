package selfgo_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"selfgo"
	"selfgo/internal/vm"
)

var updateDigest = flag.Bool("update-digest", false, "rewrite testdata/compile_digest.json from this build")

const digestFile = "testdata/compile_digest.json"

// digestBudget stops every program after its first 300k instructions:
// by then the long-running benchmarks have compiled what they compile
// (the rule TestRegAllocChecked's non-own cells use).
var digestBudget = selfgo.Budget{MaxInstrs: 300_000}

// codeDigest is one cell of the pinned file: Raw hashes the compiler's
// linearization over virtual registers — every decision the compiler
// makes, register numbering included — Alloc the allocated code, and
// Fused that code after superinstruction fusion, the stream that ships.
// A change to the register allocator alone moves Alloc (and Fused) and
// must leave Raw byte-identical; a change to fusion alone moves Fused.
type codeDigest struct {
	Raw   string `json:"raw"`
	Alloc string `json:"alloc"`
	Fused string `json:"fused"`
}

// compileDigest runs p cold and hashes, in assembly order, the
// disassembly of every Code the run compiles.
func compileDigest(t *testing.T, cfg selfgo.Config, mode selfgo.TierMode, p allocProgram) codeDigest {
	t.Helper()
	hr, ha, hf := sha256.New(), sha256.New(), sha256.New()
	vm.TestHookAssemble = func(raw, c *vm.Code) *vm.Code {
		hr.Write([]byte(raw.Disasm()))
		ha.Write([]byte(c.Disasm()))
		// Every preset fuses, so fusing here leaves the pipeline's own
		// Fuse nothing to do and the run unchanged.
		vm.Fuse(c)
		hf.Write([]byte(c.Disasm()))
		return c
	}
	defer func() { vm.TestHookAssemble = nil }()
	if out := allocRun(t, cfg, mode, p, digestBudget); out.Msg != "" && out.Kind != selfgo.KindOutOfFuel {
		t.Errorf("%s under %s: %s", p.name, cfg.Name, out.Msg)
	}
	return codeDigest{Raw: hex.EncodeToString(hr.Sum(nil)), Alloc: hex.EncodeToString(ha.Sum(nil)), Fused: hex.EncodeToString(hf.Sum(nil))}
}

// TestCompileDigest is the oracle for "same decisions, made faster":
// testdata/compile_digest.json pins the code every benchmark and
// conformance program compiles to under each preset, eager tier and
// strategy, three hashes per cell (codeDigest). A compiler change that
// is meant to alter no decision must pass it unchanged; one that is
// meant to regenerates the file with
// `go test -run TestCompileDigest -update-digest .` and says so; a
// failure names the column that moved.
// (-short and the race detector: the new SELF × opt × split cell.)
func TestCompileDigest(t *testing.T) {
	progs := allocPrograms()
	strategies := []selfgo.Strategy{selfgo.StrategySplit, selfgo.StrategyBBV, selfgo.StrategyBoth}
	modes := []selfgo.TierMode{selfgo.ModeOpt, selfgo.ModeBaseline}
	presets := selfgo.Configs()
	reduced := testing.Short() || raceBuild
	if reduced {
		strategies, modes, presets = strategies[:1], modes[:1], []selfgo.Config{selfgo.NewSELF}
	}
	if *updateDigest && reduced {
		t.Fatal("-update-digest needs the full matrix: run without -short and -race")
	}

	want := map[string]codeDigest{}
	if !*updateDigest {
		want = pinnedDigest(t)
	}
	got := map[string]codeDigest{}
	for _, cfg := range presets {
		for _, strat := range strategies {
			for _, mode := range modes {
				cfg := cfg
				cfg.Strategy = strat
				for _, p := range progs {
					key := fmt.Sprintf("%s/%s/%s/%s", cfg.Name, strat, mode, p.name)
					got[key] = compileDigest(t, cfg, mode, p)
					if *updateDigest {
						continue
					}
					w, ok := want[key]
					if !ok {
						t.Errorf("%s: not pinned", key)
						continue
					}
					if g := got[key]; g.Raw != w.Raw {
						t.Errorf("%s: the compiler's output changed (raw %.12s, pinned %.12s)", key, g.Raw, w.Raw)
					} else if g.Alloc != w.Alloc {
						t.Errorf("%s: register allocation changed (alloc %.12s, pinned %.12s; raw unchanged)", key, g.Alloc, w.Alloc)
					} else if g.Fused != w.Fused {
						t.Errorf("%s: the fused stream changed (fused %.12s, pinned %.12s; raw and alloc unchanged)", key, g.Fused, w.Fused)
					}
				}
			}
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
	if !reduced && len(want) != len(got) {
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
// out and the landing it keeps for an outer home — then moves a hash.
// (-short and the race detector: new SELF only.)
func TestCompileDigestPoisoned(t *testing.T) {
	presets := selfgo.Configs()
	if testing.Short() || raceBuild {
		presets = []selfgo.Config{selfgo.NewSELF}
	}
	want := pinnedDigest(t)
	selfgo.WithPoisonedReleases(func() {
		for _, cfg := range presets {
			cfg.Strategy = selfgo.StrategySplit
			for _, mode := range []selfgo.TierMode{selfgo.ModeOpt, selfgo.ModeBaseline} {
				for _, p := range allocPrograms() {
					key := fmt.Sprintf("%s/%s/%s/%s", cfg.Name, cfg.Strategy, mode, p.name)
					if got := compileDigest(t, cfg, mode, p); got != want[key] {
						t.Errorf("%s: compiled code differs from the pinned digest with releases poisoned", key)
					}
				}
			}
		}
	})
}

// TestCompileDeterministic compiles every benchmark and conformance
// program repeatedly in one process and demands byte-identical code
// each time: nothing the compiler emits may depend on Go map order.
func TestCompileDeterministic(t *testing.T) {
	rounds := 20
	if testing.Short() || raceBuild {
		rounds = 2
	}
	for _, cfg := range []selfgo.Config{selfgo.NewSELF, selfgo.NewSELFExtended} {
		for _, p := range allocPrograms() {
			first := compileDigest(t, cfg, selfgo.ModeOpt, p)
			for i := 1; i < rounds; i++ {
				if d := compileDigest(t, cfg, selfgo.ModeOpt, p); d != first {
					t.Errorf("%s under %s: compile %d differs from compile 1", p.name, cfg.Name, i+1)
					break
				}
			}
		}
	}
}
