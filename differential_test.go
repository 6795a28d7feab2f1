package selfgo

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// progGen generates random well-defined programs in the object
// language: integer arithmetic kept within the small-integer range,
// guarded division, bounded loops, conditionals, vector traffic and
// block calls. Every compiler configuration must compute the same
// value — the optimizations may never change semantics.
type progGen struct {
	r      *rand.Rand
	b      strings.Builder
	vars   []string
	vecs   []string
	depth  int
	indent string
}

func newProgGen(seed int64) *progGen {
	return &progGen{r: rand.New(rand.NewSource(seed))}
}

func (g *progGen) line(format string, args ...any) {
	g.b.WriteString(g.indent)
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteString(".\n")
}

// intExpr produces an integer expression over existing variables,
// masked into a safe range so no overflow failure can occur.
func (g *progGen) intExpr() string {
	pick := func() string {
		if len(g.vars) > 0 && g.r.Intn(3) > 0 {
			return g.vars[g.r.Intn(len(g.vars))]
		}
		return fmt.Sprintf("%d", g.r.Intn(2000)-1000)
	}
	switch g.r.Intn(8) {
	case 0, 1:
		return fmt.Sprintf("(%s + %s) %% 10007", pick(), pick())
	case 2:
		return fmt.Sprintf("(%s - %s) %% 10007", pick(), pick())
	case 3:
		return fmt.Sprintf("((%s %% 100) * (%s %% 100)) %% 10007", pick(), pick())
	case 4:
		return fmt.Sprintf("%s / ((%s %% 7) abs + 1)", pick(), pick())
	case 5:
		return fmt.Sprintf("(%s bitXor: %s) %% 10007", pick(), pick())
	case 6:
		return fmt.Sprintf("(%s min: %s) + (%s max: %s)", pick(), pick(), pick(), pick())
	default:
		return fmt.Sprintf("%s abs %% 4999", pick())
	}
}

func (g *progGen) boolExpr() string {
	ops := []string{"<", "<=", ">", ">=", "=", "!="}
	return fmt.Sprintf("(%s) %s (%s)", g.intExpr(), ops[g.r.Intn(len(ops))], g.intExpr())
}

func (g *progGen) stmt() {
	if g.depth > 3 {
		g.assign()
		return
	}
	switch g.r.Intn(10) {
	case 0, 1, 2, 3:
		g.assign()
	case 4, 5:
		g.ifStmt()
	case 6:
		g.loopStmt()
	case 7:
		g.vecStmt()
	case 8:
		g.blockStmt()
	default:
		g.assign()
	}
}

func (g *progGen) assign() {
	v := g.vars[g.r.Intn(len(g.vars))]
	g.line("%s: (%s)", v, g.intExpr())
}

func (g *progGen) ifStmt() {
	g.depth++
	v := g.vars[g.r.Intn(len(g.vars))]
	if g.r.Intn(2) == 0 {
		g.line("(%s) ifTrue: [ %s: (%s) ] False: [ %s: (%s) ]",
			g.boolExpr(), v, g.intExpr(), v, g.intExpr())
	} else {
		g.line("(%s) ifTrue: [ %s: (%s) ]", g.boolExpr(), v, g.intExpr())
	}
	g.depth--
}

func (g *progGen) loopStmt() {
	g.depth++
	v := g.vars[g.r.Intn(len(g.vars))]
	n := g.r.Intn(8) + 1
	switch g.r.Intn(3) {
	case 0:
		g.line("0 upTo: %d Do: [ :lv%d | %s: (%s + lv%d) %% 10007 ]", n, g.depth, v, v, g.depth)
	case 1:
		g.line("%d timesRepeat: [ %s: (%s) ]", n, v, g.intExpr())
	default:
		g.line("%d downTo: 1 Do: [ :lv%d | %s: (%s - lv%d) %% 10007 ]", n, g.depth, v, v, g.depth)
	}
	g.depth--
}

func (g *progGen) vecStmt() {
	if len(g.vecs) == 0 {
		return
	}
	vec := g.vecs[g.r.Intn(len(g.vecs))]
	v := g.vars[g.r.Intn(len(g.vars))]
	idx := fmt.Sprintf("(%s) abs %% (%s size)", g.intExpr(), vec)
	if g.r.Intn(2) == 0 {
		g.line("%s at: (%s) Put: (%s)", vec, idx, g.intExpr())
	} else {
		g.line("%s: ((%s at: (%s)) + %s) %% 10007", v, vec, idx, v)
	}
}

func (g *progGen) blockStmt() {
	v := g.vars[g.r.Intn(len(g.vars))]
	g.line("%s: ([ :bp | (bp + %s) %% 10007 ] value: (%s))", v, v, g.intExpr())
}

// generate builds a complete program with nVars locals and nStmts
// statements, returning a checksum of every variable and vector.
func (g *progGen) generate(nVars, nVecs, nStmts int) string {
	g.b.WriteString("fuzzMain = ( | ")
	for i := 0; i < nVars; i++ {
		name := fmt.Sprintf("v%d", i)
		g.vars = append(g.vars, name)
		fmt.Fprintf(&g.b, "%s <- %d. ", name, g.r.Intn(200)-100)
	}
	for i := 0; i < nVecs; i++ {
		name := fmt.Sprintf("vec%d", i)
		g.vecs = append(g.vecs, name)
		fmt.Fprintf(&g.b, "%s. ", name)
	}
	g.b.WriteString("chk <- 0 |\n")
	g.indent = "    "
	for i, vec := range g.vecs {
		g.line("%s: vector copySize: %d FillWith: %d", vec, g.r.Intn(6)+2, i)
	}
	for i := 0; i < nStmts; i++ {
		g.stmt()
	}
	for _, v := range g.vars {
		g.line("chk: ((chk * 31) + %s) %% 999983", v)
	}
	for _, vec := range g.vecs {
		g.line("%s do: [ :e | chk: ((chk * 31) + e) %% 999983 ]", vec)
	}
	g.b.WriteString("    chk ).\n")
	return g.b.String()
}

// TestDifferentialRandomPrograms cross-checks all six compiler
// configurations on generated programs: any disagreement is a
// miscompilation in one of them. Each run also goes through the
// register-allocation oracles (validator, allocated vs raw) and the
// fusion oracle (fused vs unfused).
func TestDifferentialRandomPrograms(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	for seed := int64(0); seed < int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := newProgGen(seed)
			src := g.generate(4, 2, 12)
			var ref int64
			var refCfg string
			for i, cfg := range Configs() {
				cfg := cfg
				run := func() *Result {
					sys, err := NewSystem(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := sys.LoadSource(src); err != nil {
						t.Fatalf("seed %d does not parse: %v\n%s", seed, err, src)
					}
					res, err := sys.Call("fuzzMain")
					if err != nil {
						t.Fatalf("[%s] seed %d: %v\n%s", cfg.Name, seed, err, src)
					}
					return res
				}
				// Under the two presets that shape code most differently
				// (everything out of line; everything inlined) every
				// allocation is checked, and the run must be bit-identical
				// to one on un-allocated code and to one on unfused code.
				var res *Result
				if cfg.Name == ST80.Name || cfg.Name == NewSELF.Name {
					var raw *Result
					WithCheckedAssembly(t, func() { res = run() })
					WithRawAssembly(func() { raw = run() })
					if raw.Value.I() != res.Value.I() || raw.Run != res.Run || raw.Compile != res.Compile {
						t.Errorf("seed %d [%s]: register allocation changed the run:\nallocated: %d %+v\nraw:       %d %+v\n%s",
							seed, cfg.Name, res.Value.I(), res.Run, raw.Value.I(), raw.Run, src)
					}
					cfg.NoSuperinstructions = true
					if plain := run(); plain.Value.I() != res.Value.I() || plain.Run != res.Run || plain.Compile != res.Compile {
						t.Errorf("seed %d [%s]: fusion changed the run:\nfused:   %d %+v\nunfused: %d %+v\n%s",
							seed, cfg.Name, res.Value.I(), res.Run, plain.Value.I(), plain.Run, src)
					}
				} else {
					res = run()
				}
				if i == 0 {
					ref, refCfg = res.Value.I(), cfg.Name
				} else if res.Value.I() != ref {
					t.Errorf("seed %d: %s computed %d but %s computed %d\n%s",
						seed, cfg.Name, res.Value.I(), refCfg, ref, src)
				}
			}
		})
	}
}

// TestDifferentialWithFacts also crosses the §7 comparison-facts
// extension against the baseline on vector-heavy programs.
func TestDifferentialWithFacts(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 5
	}
	facts := NewSELF
	facts.Name = "new SELF + facts"
	facts.ComparisonFacts = true
	for seed := int64(100); seed < int64(100+n); seed++ {
		g := newProgGen(seed)
		src := g.generate(3, 3, 10)
		var ref int64
		for i, cfg := range []Config{NewSELF, facts, NewSELFExtended} {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.LoadSource(src); err != nil {
				t.Fatal(err)
			}
			res, err := sys.Call("fuzzMain")
			if err != nil {
				t.Fatalf("[%s] seed %d: %v\n%s", cfg.Name, seed, err, src)
			}
			if i == 0 {
				ref = res.Value.I()
			} else if res.Value.I() != ref {
				t.Errorf("seed %d: %s computed %d, want %d\n%s", seed, cfg.Name, res.Value.I(), ref, src)
			}
		}
	}
}
