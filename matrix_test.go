package selfgo_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"reflect"
	"testing"

	"selfgo"
	"selfgo/internal/bench"
	"selfgo/internal/vm"
)

// The oracle matrix (DESIGN.md §6l): every differential test is a
// selection of cells — program × preset × tier × strategy × variant ×
// budget — plus the equivalence rows below that its cells satisfy.
// runCell runs a cell and records everything observable; get memoizes,
// so a cell several tests select runs once per test binary.

// program is one thing the matrix runs: src loaded into the lobby and
// sel called with args, or (eval) src evaluated as an expression
// sequence.
type program struct {
	name, src, sel string
	args           []selfgo.Value
	eval           bool
	want           int64 // the known result; 0 when only agreement is checked
	// light programs run in the reduced matrix under every variant;
	// the others only as new SELF's shipped cells (see keepReduced).
	light     bool
	preset    selfgo.Config // a fault program's preset
	recovered bool          // a fault program that ends in a value under it
}

var (
	benchmarks  = benchPrograms()
	conformance = conformancePrograms()
	// corpus is what the compile digest pins: the 21 benchmarks and
	// every conformance program.
	corpus = append(append([]*program(nil), benchmarks...), conformance...)
)

func benchPrograms() []*program {
	var out []*program
	for _, b := range bench.All() {
		out = append(out, &program{name: b.Name, src: b.Source, sel: b.Entry, want: b.Expect, light: b.Group == "small"})
	}
	return out
}

func conformancePrograms() []*program {
	var out []*program
	for _, p := range selfgo.ConformancePrograms() {
		out = append(out, &program{name: p.Name, src: p.Src, sel: p.Sel, args: p.Args, want: p.Want, light: true})
	}
	return out
}

// faults run into a fault path at the bottom of real activations, so
// the rows can compare backtraces pc by pc; each under the preset it
// is written for, where all but the recovered ones fault. They reach
// every RuntimeError category the guest can reach organically: lookup
// failure, primitive failure (checked and, under optimized C,
// unchecked), bounds violation and stack exhaustion; and an overflow
// and a non-local return to a home that is gone.
var faults = []*program{
	{name: "does-not-understand", sel: "go", src: "inner = ( nil zork ). mid = ( inner ). go = ( mid ).", preset: selfgo.NewSELF, light: true},
	{name: "divide-by-zero", sel: "go", src: "shrink: n = ( (n = 0) ifTrue: [ ^ 10 / n ]. shrink: n - 1 ). go = ( shrink: 5 ).", preset: selfgo.NewSELF, light: true},
	{name: "vector-bounds", sel: "go", src: "poke: v At: i = ( v at: i Put: 99 ). go = ( | v | v: vector copySize: 4 FillWith: 0. poke: v At: 17 ).", preset: selfgo.NewSELF, light: true},
	{name: "stack-overflow", sel: "go", src: "spin: n = ( 1 + (spin: n + 1) ). go = ( spin: 0 ).", preset: selfgo.NewSELF, light: true},
	{name: "overflow", sel: "blow:", args: []selfgo.Value{selfgo.IntValue(1 << 40)}, src: "blow: n = ( (n * n) * n ).", preset: selfgo.NewSELF, recovered: true, light: true},
	{name: "dead-home-nlr", sel: "go", src: "mkRet = ( [ ^ 5 ] ). go = ( mkRet value ).", preset: selfgo.NewSELF, recovered: true, light: true},
	{name: "fault-under-nlr-landing", sel: "go", src: "find: n In: v = ( v do: [ :e | (e = n) ifTrue: [ ^ e zork ] ]. 0 ). " +
		"go = ( | v | v: vector copySize: 4 FillWith: 7. 1 + (find: 7 In: v) ).", preset: selfgo.NewSELF, light: true},
	// ST-80 keeps user sends out of line: a DNU under real frames.
	{name: "dnu depth", sel: "outer", src: "outer = ( middle ). middle = ( inner ). inner = ( 3 zorkify ).", preset: selfgo.ST80, light: true},
	// optimized C removes the checks: the Div sits in fusable
	// arithmetic context, the element access is unchecked.
	{name: "unchecked div zero", sel: "crash:", args: []selfgo.Value{selfgo.IntValue(0)}, src: "crash: n = ( (7 * 3) / n ).", preset: selfgo.OptimizedC, light: true},
	{name: "unchecked elem oob", sel: "vecAt:", args: []selfgo.Value{selfgo.IntValue(99)}, src: "vecAt: i = ( | v | v: (vector copySize: 3 FillWith: 0). v at: i ).", preset: selfgo.OptimizedC, light: true},
}

// evalSeeds seed the differential fuzz targets: values, loops,
// vectors, closures, non-local returns, output, faults, running out of fuel.
var evalSeeds = []string{
	"3 + 4 * 2",
	"| s <- 0 | 1 upTo: 100 Do: [ :i | s: s + i ]. s",
	"| v | v: vector copySize: 10. v fillFrom: [ :i | i * i ]. (v at: 3) + v size",
	"[ :x | x * 2 ] value: 21",
	"| b. n <- 0 | b: [ :x | n: n + x. n ]. (b value: 2) + (b value: 3)",
	"| v | v: vector copySize: 5 FillWith: 3. v do: [ :e | (e = 3) ifTrue: [ ^ e ] ]. 0",
	"1 / 0",
	"nil zork",
	"(9000000000000000000 * 9000000000000000000) + 1",
	"| v | v: (vector copySize: 2 FillWith: 0). v at: 17",
	"| s <- 0 | [ true ] whileTrue: [ s: s + 1 ]. s",
	"| b | b: [ 5 ]. (b value) + (b value)",
	"'hello' printLine. 0",
	"(3 < 4) ifTrue: [ 'y' ] False: [ 'n' ]",
}

// evalBudget bounds every fuzz input.
var evalBudget = selfgo.Budget{MaxInstrs: 200_000, MaxDepth: 200, MaxAllocs: 100_000}

// evalCell is src evaluated under cfg within evalBudget.
func evalCell(src string, cfg selfgo.Config) cell {
	return cell{p: &program{name: "eval", src: src, eval: true, light: true}, cfg: cfg, budget: evalBudget}
}

var (
	strategies = []selfgo.Strategy{selfgo.StrategySplit, selfgo.StrategyBBV, selfgo.StrategyBoth}
	modes      = []selfgo.TierMode{selfgo.ModeOpt, selfgo.ModeBaseline}
)

// withStrategy is preset under strat, named as the strategy tables
// name it ("new SELF (bbv)"); split keeps the preset's name.
func withStrategy(preset selfgo.Config, strat selfgo.Strategy) selfgo.Config {
	cfg := preset
	cfg.Strategy = strat
	if strat != selfgo.StrategySplit {
		cfg.Name = fmt.Sprintf("%s (%s)", preset.Name, strat)
	}
	return cfg
}

// strategyCells is c, whose preset runs split, under all three
// strategies, split first.
func strategyCells(c cell) []cell {
	out := make([]cell, len(strategies))
	for i, strat := range strategies {
		out[i] = c
		out[i].cfg = withStrategy(c.cfg, strat)
	}
	return out
}

// variant is how a cell's system is built or its code assembled; every
// variant computes what shipped computes, the rows say how exactly.
type variant uint8

const (
	shipped  variant = iota // the system as it ships
	raw                     // the assembler's un-allocated linearization runs
	unfused                 // Fuse leaves every Code as assembled
	poisoned                // loop-simulation releases poison what they free
	legacy                  // the hand-built pre-pipeline compile path (legacyRun)
)

var variantNames = [...]string{"shipped", "raw", "unfused", "poisoned", "legacy"}

// cell is one run: program × preset (with its strategy) × tier ×
// variant × budget.
type cell struct {
	p      *program
	cfg    selfgo.Config
	mode   selfgo.TierMode
	v      variant
	budget selfgo.Budget
}

// at is p under cfg as it ships: optimizing tier, no budget.
func at(p *program, cfg selfgo.Config) cell { return cell{p: p, cfg: cfg} }

// cells is every program of ps under each of cfgs, as variant v.
func cells(ps []*program, v variant, cfgs ...selfgo.Config) []cell {
	var out []cell
	for _, cfg := range cfgs {
		for _, p := range ps {
			out = append(out, at(p, cfg).as(v))
		}
	}
	return out
}

// as is c under variant v.
func (c cell) as(v variant) cell { c.v = v; return c }

func (c cell) String() string {
	s := fmt.Sprintf("%s/%s/%s/%s", c.cfg.Name, c.cfg.Strategy, c.mode, c.p.name)
	if c.v != shipped {
		s += "/" + variantNames[c.v]
	}
	return s
}

// cellKey is what a cell runs: the program's text and the
// configuration's knobs, never a display name — NewSELF and
// withStrategy(NewSELF, StrategySplit) are one cell.
type cellKey struct {
	c         cell
	name, src string
}

func (c cell) key() cellKey {
	k := cellKey{c, c.p.name, c.p.src}
	k.c.p, k.c.cfg.Name = nil, ""
	return k
}

// observed is what a run shows its caller: the value, RunStats and
// compile record, or the fault's kind, message and backtrace (pcs
// included), or Err for anything that is no runtime fault (a parse
// error, a failed load).
type observed struct {
	Value   string
	Run     selfgo.RunStats
	Compile selfgo.CompileRecord
	Kind    selfgo.ErrKind
	Msg     string
	Trace   []vm.TraceFrame
	Err     string
}

// codeDigest hashes, in assembly order, the disassembly of every Code
// a run assembles: Raw the compiler's linearization over virtual
// registers — every decision the compiler makes, register numbering
// included — Alloc the allocated code, and Fused that code after
// superinstruction fusion, the stream that ships. A change to the
// register allocator alone moves Alloc (and Fused) and must leave Raw
// byte-identical; a change to fusion alone moves Fused.
type codeDigest struct {
	Raw   string `json:"raw"`
	Alloc string `json:"alloc"`
	Fused string `json:"fused"`
}

type codeSize struct {
	Name string
	Regs int
}

// outcome is everything one run of a cell records.
type outcome struct {
	observed
	Digest codeDigest
	Codes  []codeSize // each allocated Code's frame width
	// AllocErr is vm.CheckAllocation's first complaint about any Code
	// the run assembled; "" when every allocation checked.
	AllocErr string
}

// matrix is the per-binary memo. Cells run one at a time (the hook is
// global), so it needs no lock.
var matrix = struct {
	outcomes            map[cellKey]*outcome
	ran, saved, repeats int
}{outcomes: map[cellKey]*outcome{}}

// get returns c's outcome, running c unless an earlier selection in
// this binary did. It fails t when the cell could not run (a
// non-eval program that does not load) or an allocation did not check.
func get(t testing.TB, c cell) *outcome {
	t.Helper()
	o, ok := matrix.outcomes[c.key()]
	if ok {
		matrix.saved++
	} else {
		o = runCell(c)
		matrix.ran++
		// A fuzzing process never sees an input twice: no memo there.
		if f := flag.Lookup("test.fuzz"); f == nil || f.Value.String() == "" {
			matrix.outcomes[c.key()] = o
		}
	}
	if o.Err != "" && !c.p.eval {
		t.Errorf("%s: %s", c, o.Err)
	}
	if o.AllocErr != "" {
		t.Errorf("%s: register allocation: %s", c, o.AllocErr)
	}
	return o
}

// checked memoizes vm.CheckAllocation's verdicts by the checked
// Code's raw and allocated text: the variants of a cell, and the
// budgeted and full runs of a program, assemble the same Codes.
var (
	checked     = map[[2]uint64]error{}
	checkedSeed = maphash.MakeSeed()
)

func checkAllocation(rawCode, code *vm.Code, rawText, text string) error {
	k := [2]uint64{maphash.String(checkedSeed, rawText), maphash.String(checkedSeed, text)}
	err, ok := checked[k]
	if !ok {
		err = vm.CheckAllocation(rawCode, code)
		checked[k] = err
	}
	return err
}

// repeat runs c again, bypassing the memo: the determinism oracle's
// extra compiles.
func repeat(c cell) *outcome {
	matrix.repeats++
	return runCell(c)
}

// runCell is the one runner: it installs vm.TestHookAssemble for the
// run — hashing every Code three ways, checking its allocation,
// recording its frame width and, under raw, handing the un-allocated
// code back — and runs c's program on the system c's variant builds.
func runCell(c cell) *outcome {
	o := &outcome{}
	hr, ha, hf := sha256.New(), sha256.New(), sha256.New()
	vm.TestHookAssemble = func(rawCode, code *vm.Code) *vm.Code {
		rawText, text := rawCode.Disasm(), code.Disasm()
		io.WriteString(hr, rawText)
		io.WriteString(ha, text)
		if err := checkAllocation(rawCode, code, rawText, text); err != nil && o.AllocErr == "" {
			o.AllocErr = fmt.Sprintf("%s: %v", code.Name, err)
		}
		o.Codes = append(o.Codes, codeSize{code.Name, code.NumRegs})
		// Fusing here leaves the caller's own Fuse nothing to do
		// (and under unfused Fuse does nothing at all).
		vm.Fuse(code)
		io.WriteString(hf, code.Disasm())
		if c.v == raw {
			return rawCode
		}
		return code
	}
	defer func() { vm.TestHookAssemble = nil }()
	run := func() { o.observed = c.exec() }
	switch c.v {
	case unfused:
		selfgo.WithUnfusedAssembly(run)
	case poisoned:
		selfgo.WithPoisonedReleases(run)
	default:
		run()
	}
	o.Digest = codeDigest{Raw: hex.EncodeToString(hr.Sum(nil)), Alloc: hex.EncodeToString(ha.Sum(nil)), Fused: hex.EncodeToString(hf.Sum(nil))}
	return o
}

// exec runs c's program on the system its variant builds.
func (c cell) exec() observed {
	if c.v == legacy {
		return legacyRun(c)
	}
	sys, err := c.system()
	if err != nil {
		return observed{Err: err.Error()}
	}
	var res *selfgo.Result
	if c.p.eval {
		res, err = sys.Eval(c.p.src)
	} else {
		res, err = sys.Call(c.p.sel, c.p.args...)
	}
	if err != nil {
		return observeErr(err)
	}
	return observed{Value: res.Value.String(), Run: res.Run, Compile: res.Compile}
}

// system builds c's system with its program loaded and its budget set.
func (c cell) system() (*selfgo.System, error) {
	sys, err := selfgo.NewTieredSystem(c.cfg, c.mode, 0)
	if err != nil {
		return nil, err
	}
	if sys.SetBudget(c.budget); c.p.eval {
		return sys, nil
	}
	if err := sys.LoadSource(c.p.src); err != nil {
		return nil, err
	}
	return sys, nil
}

// observeErr is what a failed run shows.
func observeErr(err error) observed {
	var re *selfgo.RuntimeError
	if errors.As(err, &re) {
		return observed{Kind: re.Kind, Msg: re.Msg, Trace: re.Trace}
	}
	return observed{Err: err.Error()}
}

// reduced reports whether this binary runs the reduced matrix: under
// -short, and under the race detector, which has nothing to find in
// these single-goroutine oracles and makes the full matrix cost
// minutes.
func reduced() bool { return testing.Short() || raceBuild }

// reduce is the one reduction policy: it returns the cells of cs this
// binary runs (all of them, unless reduced).
func reduce(cs []cell) []cell {
	if !reduced() {
		return cs
	}
	var out []cell
	for _, c := range cs {
		if keepReduced(c) {
			out = append(out, c)
		}
	}
	return out
}

// isPreset reports whether cfg is preset under some strategy.
func isPreset(cfg, preset selfgo.Config) bool {
	cfg.Name, cfg.Strategy = preset.Name, preset.Strategy
	return cfg == preset
}

// keepReduced: new SELF's shipped opt/split cells on every program (the
// reference the rows compare against), otherwise the light programs at
// the optimizing tier under new SELF with any strategy (the §7
// comparison-facts extension included) or ST-80 with split.
func keepReduced(c cell) bool {
	newSELF := isPreset(c.cfg, selfgo.NewSELF)
	switch {
	case c.mode != selfgo.ModeOpt:
		return false
	case newSELF && c.cfg.Strategy == selfgo.StrategySplit && c.v == shipped:
		return true
	case !c.p.light:
		return false
	}
	noFacts := c.cfg
	noFacts.ComparisonFacts = false
	return isPreset(noFacts, selfgo.NewSELF) || isPreset(c.cfg, selfgo.ST80) && c.cfg.Strategy == selfgo.StrategySplit
}

// identical is the bit-identical row for variant cell c against its
// shipped cell: same, and sameCode (every column unless c is unfused).
func identical(t testing.TB, c cell) (got, want *outcome) {
	t.Helper()
	got, want = get(t, c), get(t, c.as(shipped))
	same(t, c, got.observed, want.observed)
	sameCode(t, c, got, want)
	return got, want
}

// same: value, RunStats, compile record, and a fault's kind, message
// and backtrace, pcs included.
func same(t testing.TB, c cell, got, want observed) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s diverged:\n%-8s %+v\nshipped  %+v", c, variantNames[c.v], got, want)
	}
}

// sameCode: two runs that compile the same graphs hash to the same
// raw and alloc columns, and (unless one is unfused) the same fused
// column — every variant is a witness that compiling is deterministic.
func sameCode(t testing.TB, c cell, got, want *outcome) {
	t.Helper()
	g, w := got.Digest, want.Digest
	if c.v == unfused {
		g.Fused, w.Fused = "", ""
	}
	if g.Raw != w.Raw {
		t.Errorf("%s compiled different code (raw %.12s, shipped %.12s)", c, g.Raw, w.Raw)
	} else if g != w {
		t.Errorf("%s: same compiler output, different code (%+v, shipped %+v)", c, g, w)
	}
}

// sameAcrossStrategies is the cross-strategy row: the same value, or a
// fault of the same kind with the same message — except a
// does-not-understand's, whose wording depends on when the lookup
// fails (split's analysis can prove it at compile time; bbv leaves the
// send dynamic). Costs differ by design.
func sameAcrossStrategies(t testing.TB, c cell, got, want *outcome) {
	t.Helper()
	switch {
	case (got.Err == "") != (want.Err == ""):
		t.Errorf("%s: error %q, split %q", c, got.Err, want.Err)
	case got.Kind != want.Kind || (got.Msg == "") != (want.Msg == ""):
		t.Errorf("%s: fault %v %q, split %v %q", c, got.Kind, got.Msg, want.Kind, want.Msg)
	case got.Kind != selfgo.KindDoesNotUnderstand && got.Msg != want.Msg:
		t.Errorf("%s: fault message %q, split %q", c, got.Msg, want.Msg)
	case got.Value != want.Value:
		t.Errorf("%s: value %s, split %s", c, got.Value, want.Value)
	}
}

// TestMain reports the matrix's bookkeeping after the run.
func TestMain(m *testing.M) {
	code := m.Run()
	if matrix.ran > 0 {
		fmt.Printf("oracle matrix: %d cells run, %d distinct, %d selections served by the memo, %d determinism repeats\n",
			matrix.ran, len(matrix.outcomes), matrix.saved, matrix.repeats)
	}
	os.Exit(code)
}
