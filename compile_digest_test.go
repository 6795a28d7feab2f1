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

// compileDigest runs p cold and hashes, in assembly order, the
// disassembly of every Code the run compiles — both the linearization
// over virtual registers (so a drift in register numbering shows) and
// the allocated code that ships.
func compileDigest(t *testing.T, cfg selfgo.Config, mode selfgo.TierMode, p allocProgram) string {
	t.Helper()
	h := sha256.New()
	vm.TestHookAssemble = func(raw, c *vm.Code) *vm.Code {
		h.Write([]byte(raw.Disasm()))
		h.Write([]byte(c.Disasm()))
		return c
	}
	defer func() { vm.TestHookAssemble = nil }()
	if out := allocRun(t, cfg, mode, p, digestBudget); out.Msg != "" && out.Kind != selfgo.KindOutOfFuel {
		t.Errorf("%s under %s: %s", p.name, cfg.Name, out.Msg)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCompileDigest is the oracle for "same decisions, made faster":
// testdata/compile_digest.json pins the code every benchmark and
// conformance program compiles to under each preset, eager tier and
// strategy. A compiler change that is meant to alter no decision must
// pass it unchanged; one that is meant to regenerates the file with
// `go test -run TestCompileDigest -update-digest .` and says so.
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

	want := map[string]string{}
	if !*updateDigest {
		data, err := os.ReadFile(digestFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", digestFile, err)
		}
	}
	got := map[string]string{}
	for _, cfg := range presets {
		for _, strat := range strategies {
			for _, mode := range modes {
				cfg := cfg
				cfg.Strategy = strat
				for _, p := range progs {
					key := fmt.Sprintf("%s/%s/%s/%s", cfg.Name, strat, mode, p.name)
					got[key] = compileDigest(t, cfg, mode, p)
					if w, ok := want[key]; !*updateDigest && (!ok || w != got[key]) {
						t.Errorf("%s: compiled code changed (digest %.12s, pinned %.12s)", key, got[key], w)
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
