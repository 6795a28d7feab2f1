package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"selfgo"
)

// Runner measures (benchmark, configuration) pairs, caching results so
// the different tables share the underlying runs.
type Runner struct {
	cache    map[string]*Measurement
	Progress io.Writer // optional: one line per fresh measurement
}

// NewRunner returns an empty measurement cache.
func NewRunner() *Runner {
	return &Runner{cache: map[string]*Measurement{}}
}

// Get measures b under cfg (cached).
func (r *Runner) Get(b Benchmark, cfg selfgo.Config) (*Measurement, error) {
	key := b.Name + "\x00" + cfg.Name
	if m, ok := r.cache[key]; ok {
		return m, nil
	}
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, "running %-12s under %s...\n", b.Name, cfg.Name)
	}
	m, err := Run(b, cfg)
	if err != nil {
		return nil, err
	}
	r.cache[key] = m
	return m, nil
}

// Table is a rendered experiment table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	line := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i]+2, c)
			}
		}
		b.WriteString("\n")
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b.WriteString(n)
		b.WriteString("\n")
	}
	return b.String()
}

// speedConfigs are the columns of the speed tables, in the paper's
// order.
func speedConfigs() []selfgo.Config {
	return []selfgo.Config{selfgo.ST80, selfgo.OldSELF89, selfgo.OldSELF90, selfgo.NewSELF}
}

// groupFor returns the benchmarks whose numbers enter a group summary.
// Per §6, puzzle was not rewritten but is included in the stanford-oo
// group "in the interest of fairness".
func groupFor(group string) []Benchmark {
	bs := ByGroup(group)
	if group == "stanford-oo" {
		if pz, ok := ByName("puzzle"); ok {
			bs = append(bs, pz)
		}
	}
	return bs
}

// pctOfC returns the benchmark's speed under cfg as a percentage of
// the optimized-C stand-in (higher is better).
func (r *Runner) pctOfC(b Benchmark, cfg selfgo.Config) (float64, error) {
	mc, err := r.Get(b, selfgo.OptimizedC)
	if err != nil {
		return 0, err
	}
	m, err := r.Get(b, cfg)
	if err != nil {
		return 0, err
	}
	if m.Cycles == 0 {
		return 0, fmt.Errorf("%s under %s ran zero cycles", b.Name, cfg.Name)
	}
	return 100 * float64(mc.Cycles) / float64(m.Cycles), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(p*float64(len(s)-1) + 0.5)
	return s[idx]
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	return
}

// SpeedSummaryTable regenerates the §6.1 table "Speed of Compiled Code
// (as a percentage of optimized C), median (min – max)".
func (r *Runner) SpeedSummaryTable() (*Table, error) {
	groups := []string{"small", "stanford", "stanford-oo", "richards"}
	t := &Table{
		Title:  "Speed of Compiled Code (as a percentage of optimized C) — median (min–max)  [E1, §6.1]",
		Header: append([]string{""}, groups...),
	}
	for _, cfg := range speedConfigs() {
		row := []string{cfg.Name}
		for _, g := range groups {
			var pcts []float64
			for _, b := range groupFor(g) {
				p, err := r.pctOfC(b, cfg)
				if err != nil {
					return nil, err
				}
				pcts = append(pcts, p)
			}
			if len(pcts) == 1 {
				row = append(row, fmt.Sprintf("%.0f%%", pcts[0]))
			} else {
				lo, hi := minMax(pcts)
				row = append(row, fmt.Sprintf("%.0f%% (%.0f-%.0f)", median(pcts), lo, hi))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: ST-80 ~9-10%, old SELF-89 19-28%, old SELF-90 14-19%, new SELF 21-42% (richards 21%);",
		"the 1991 reprint notes the refined compiler later exceeded 60% of optimized C.")
	return t, nil
}

// SpeedTable regenerates Appendix A: per-benchmark speed as % of C.
func (r *Runner) SpeedTable() (*Table, error) {
	t := &Table{
		Title:  "Compiled Code Speed (as a percentage of optimized C)  [E3, Appendix A]",
		Header: []string{"benchmark", "ST-80", "old SELF-89", "old SELF-90", "new SELF"},
	}
	for _, b := range All() {
		row := []string{b.Name}
		for _, cfg := range speedConfigs() {
			p, err := r.pctOfC(b, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f%%", p))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// sizeConfigs are the columns of the code-size and compile-time tables.
func sizeConfigs() []selfgo.Config {
	return []selfgo.Config{selfgo.OptimizedC, selfgo.OldSELF90, selfgo.NewSELF}
}

// CodeSizeTable regenerates Appendix B: compiled code size in
// kilobytes.
func (r *Runner) CodeSizeTable() (*Table, error) {
	t := &Table{
		Title:  "Compiled Code Size (in kilobytes)  [E4, Appendix B]",
		Header: []string{"benchmark", "optimized C", "old SELF-90", "new SELF"},
	}
	for _, b := range All() {
		row := []string{b.Name}
		for _, cfg := range sizeConfigs() {
			m, err := r.Get(b, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", float64(m.CodeBytes)/1024))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: new SELF ~4x optimized C and consistently below old SELF-90 (failure blocks and",
		"type tests eliminated outweigh splitting's copies).")
	return t, nil
}

// CompileTimeTable regenerates Appendix C: compile time.
func (r *Runner) CompileTimeTable() (*Table, error) {
	t := &Table{
		Title:  "Compile Time (in milliseconds of CPU time)  [E5, Appendix C]",
		Header: []string{"benchmark", "optimized C", "old SELF-90", "new SELF", "new SELF nodes built/kept"},
	}
	for _, b := range All() {
		row := []string{b.Name}
		for _, cfg := range sizeConfigs() {
			m, err := r.Get(b, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", float64(m.CompileTime)/float64(time.Millisecond)))
		}
		m, err := r.Get(b, selfgo.NewSELF) // measured for its column above
		if err != nil {
			return nil, err
		}
		row = append(row, fmt.Sprintf("%d/%d", m.NodesBuilt, m.NodesKept))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: new SELF one to two orders of magnitude slower to compile than old SELF-90,",
		"with puzzle the worst case (362s vs 6.9s). built/kept: IR nodes the compiler",
		"built against those that survived into code; the rest are the loop bodies",
		"iterative type analysis re-simulates and discards (§5.1).")
	return t, nil
}

// CompileSummaryTable regenerates the §6.2/§6.3 table "Compile Time and
// Code Size, median / 75%-ile / max".
func (r *Runner) CompileSummaryTable() (*Table, error) {
	groups := []struct {
		name    string
		benches []Benchmark
	}{
		{"small", ByGroup("small")},
		{"stanford+oo", withoutPuzzle(append(ByGroup("stanford"), ByGroup("stanford-oo")...))},
		{"puzzle", mustGroup("puzzle")},
		{"richards", mustGroup("richards")},
	}
	t := &Table{
		Title:  "Compile Time and Code Size — median / 75%-ile / max  [E2, §6.2-§6.3]",
		Header: []string{"", "small", "stanford+oo", "puzzle", "richards"},
	}
	fmt3 := func(xs []float64, format string) string {
		if len(xs) == 1 {
			return fmt.Sprintf(format, xs[0])
		}
		_, hi := minMax(xs)
		return fmt.Sprintf(format+" / "+format+" / "+format, median(xs), percentile(xs, 0.75), hi)
	}
	for _, metric := range []string{"compile time (ms)", "code size (kB)"} {
		t.Rows = append(t.Rows, []string{metric, "", "", "", ""})
		for _, cfg := range sizeConfigs() {
			row := []string{"  " + cfg.Name}
			for _, g := range groups {
				var xs []float64
				for _, b := range g.benches {
					m, err := r.Get(b, cfg)
					if err != nil {
						return nil, err
					}
					if metric == "compile time (ms)" {
						xs = append(xs, float64(m.CompileTime)/float64(time.Millisecond))
					} else {
						xs = append(xs, float64(m.CodeBytes)/1024)
					}
				}
				row = append(row, fmt3(xs, "%.1f"))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

func withoutPuzzle(bs []Benchmark) []Benchmark {
	var out []Benchmark
	for _, b := range bs {
		if b.Name != "puzzle" {
			out = append(out, b)
		}
	}
	return out
}

func mustGroup(name string) []Benchmark {
	b, _ := ByName(name)
	return []Benchmark{b}
}

// AblationTable shows what each technique buys (A1): new SELF with one
// optimization removed at a time, plus the two forward-looking
// variants (multi-version loops; §6.1's call-site miss handlers).
func (r *Runner) AblationTable() (*Table, error) {
	variants := []selfgo.Config{selfgo.NewSELF}
	mk := func(name string, mod func(*selfgo.Config)) {
		c := selfgo.NewSELF
		c.Name = name
		mod(&c)
		variants = append(variants, c)
	}
	mk("- extended splitting", func(c *selfgo.Config) { c.ExtendedSplitting = false })
	mk("- range analysis", func(c *selfgo.Config) { c.RangeAnalysis = false })
	mk("- iterative loops", func(c *selfgo.Config) { c.IterativeLoops = false })
	mk("- type analysis", func(c *selfgo.Config) { c.TypeAnalysis = false; c.IterativeLoops = false; c.ExtendedSplitting = false })
	mk("+ multi-version loops", func(c *selfgo.Config) { c.MultiVersionLoops = true })
	mk("+ comparison facts (§7)", func(c *selfgo.Config) { c.ComparisonFacts = true })
	mk("+ IC miss handlers", func(c *selfgo.Config) { c.CallSiteICMissHandlers = true })
	mk("+ polymorphic ICs", func(c *selfgo.Config) { c.PolymorphicInlineCaches = true })

	names := []string{"sumTo", "sieve", "atAllPut", "quick", "bubble-oo", "richards"}
	t := &Table{
		Title:  "Ablation: speed as % of optimized C, new SELF variants  [A1]",
		Header: append([]string{"variant"}, names...),
	}
	for _, cfg := range variants {
		row := []string{cfg.Name}
		for _, n := range names {
			b, ok := ByName(n)
			if !ok {
				return nil, fmt.Errorf("unknown benchmark %s", n)
			}
			p, err := r.pctOfC(b, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f%%", p))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"Multi-version loops were broken (disabled) in the paper's measured system; the row",
		"shows the speedup §5 predicts. IC miss handlers reproduce the §6.1 richards what-if.")
	return t, nil
}

// strategyConfigs returns new SELF under each specialization strategy.
// The names differ so the runner caches them as distinct measurements.
func strategyConfigs() []selfgo.Config {
	split := selfgo.NewSELF
	split.Name = "new SELF (split)"
	bbv := selfgo.NewSELF
	bbv.Name = "new SELF (bbv)"
	bbv.Strategy = selfgo.StrategyBBV
	both := selfgo.NewSELF
	both.Name = "new SELF (both)"
	both.Strategy = selfgo.StrategyBoth
	return []selfgo.Config{split, bbv, both}
}

// strategyBaseline is new SELF with every type-derivation pass off —
// the common no-specialization point the "tests removed" column is
// measured against for all three strategies.
func strategyBaseline() selfgo.Config {
	c := selfgo.NewSELF
	c.Name = "new SELF (no specialization)"
	c.TypeAnalysis = false
	c.RangeAnalysis = false
	c.IterativeLoops = false
	c.ExtendedSplitting = false
	return c
}

// StrategySize is the modelled code size of a measurement under its
// strategy: eager compiled bytes for split, the lazily materialized
// version bytes for bbv (a lazy code generator emits only the regions
// that actually ran), and their sum for both (versions specialize code
// that was already compiled).
func StrategySize(m *Measurement) int64 {
	switch {
	case m.Run.BBVVersions == 0:
		return int64(m.CodeBytes)
	case m.CodeBytes > 0 && strings.Contains(m.Config, "both"):
		return int64(m.CodeBytes) + m.Run.BBVVersionBytes
	default:
		return m.Run.BBVVersionBytes
	}
}

// StrategyTable is the E-BBV head-to-head: every benchmark under
// splitting, lazy basic-block versioning, and both, with executed and
// removed type-test counts, send counts, version/cap activity, and
// modelled code size.
func (r *Runner) StrategyTable() (*Table, error) {
	base := strategyBaseline()
	t := &Table{
		Title: "Specialization strategies head-to-head: splitting vs lazy basic-block versioning  [E-BBV]",
		Header: []string{"benchmark", "strategy", "cycles", "tests run", "tests removed",
			"elided ctx", "elided shape", "sends", "versions", "cap hits", "size B"},
	}
	for _, b := range All() {
		mb, err := r.Get(b, base)
		if err != nil {
			return nil, err
		}
		for _, cfg := range strategyConfigs() {
			m, err := r.Get(b, cfg)
			if err != nil {
				return nil, err
			}
			if m.Value != mb.Value {
				return nil, fmt.Errorf("%s under %s: value %d differs from baseline %d",
					b.Name, cfg.Name, m.Value, mb.Value)
			}
			strat := strings.TrimSuffix(strings.TrimPrefix(cfg.Name, "new SELF ("), ")")
			t.Rows = append(t.Rows, []string{
				b.Name, strat,
				fmt.Sprintf("%d", m.Cycles),
				fmt.Sprintf("%d", m.Run.TypeTests),
				fmt.Sprintf("%d", mb.Run.TypeTests-m.Run.TypeTests),
				fmt.Sprintf("%d", m.Run.BBVElidedCtx),
				fmt.Sprintf("%d", m.Run.BBVElidedShape),
				fmt.Sprintf("%d", m.Run.Sends),
				fmt.Sprintf("%d", m.Run.BBVVersions),
				fmt.Sprintf("%d", m.Run.BBVCapHits),
				fmt.Sprintf("%d", StrategySize(m)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"tests removed = executed type tests under new SELF with all type-derivation passes off,",
		"minus the strategy's executed tests. size: eager compiled bytes (split), lazily",
		"materialized version bytes (bbv), or their sum (both).")
	return t, nil
}

// JSON dumps every cached measurement as machine-readable records,
// measuring any (benchmark, config) pairs not yet in the cache for the
// standard table set first.
func (r *Runner) JSON() ([]byte, error) {
	if _, err := r.AllTables(); err != nil {
		return nil, err
	}
	type rec struct {
		Bench        string  `json:"bench"`
		Group        string  `json:"group"`
		Config       string  `json:"config"`
		Value        int64   `json:"value"`
		Cycles       int64   `json:"cycles"`
		PctOfC       float64 `json:"pct_of_c"`
		Sends        int64   `json:"sends"`
		ICHits       int64   `json:"ic_hits"`
		ICMisses     int64   `json:"ic_misses"`
		TypeTests    int64   `json:"type_tests"`
		OvflChecks   int64   `json:"overflow_checks"`
		BoundsChecks int64   `json:"bounds_checks"`
		CompileMs    float64 `json:"compile_ms"`
		CodeBytes    int     `json:"code_bytes"`
		Methods      int     `json:"methods"`
	}
	var keys []string
	for k := range r.cache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []rec
	for _, k := range keys {
		m := r.cache[k]
		pct := 0.0
		if b, ok := ByName(m.Bench); ok {
			if mc, err := r.Get(b, selfgo.OptimizedC); err == nil && m.Cycles > 0 {
				pct = 100 * float64(mc.Cycles) / float64(m.Cycles)
			}
		}
		out = append(out, rec{
			Bench: m.Bench, Group: m.Group, Config: m.Config,
			Value: m.Value, Cycles: m.Cycles, PctOfC: pct,
			Sends: m.Run.Sends, ICHits: m.Run.ICHits, ICMisses: m.Run.ICMisses,
			TypeTests: m.Run.TypeTests, OvflChecks: m.Run.OvflChecks,
			BoundsChecks: m.Run.BoundsChecks,
			CompileMs:    float64(m.CompileTime) / float64(time.Millisecond),
			CodeBytes:    m.CodeBytes, Methods: m.Methods,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// GuardRecord pins one (benchmark, config) point of the §6.1 speed
// table: the check value and the modelled cycle count. BENCH_guard.json
// holds these records so that a test can prove that
// infrastructure changes (cache sharing, VM refactors) do not drift
// the cost model or execution semantics.
type GuardRecord struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`
	Value  int64  `json:"value"`
	Cycles int64  `json:"cycles"`
}

// GuardRecords measures every benchmark under the §6.1 configurations
// (the four speed columns plus the optimized-C baseline) and returns
// the pinned records.
func (r *Runner) GuardRecords() ([]GuardRecord, error) {
	configs := append(speedConfigs(), selfgo.OptimizedC)
	var out []GuardRecord
	for _, b := range All() {
		for _, cfg := range configs {
			m, err := r.Get(b, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, GuardRecord{Bench: b.Name, Config: cfg.Name, Value: m.Value, Cycles: m.Cycles})
		}
	}
	return out, nil
}

// AllTables renders every experiment table in order.
func (r *Runner) AllTables() (string, error) {
	var parts []string
	for _, f := range []func() (*Table, error){
		r.SpeedSummaryTable, r.CompileSummaryTable, r.SpeedTable,
		r.CodeSizeTable, r.CompileTimeTable, r.AblationTable,
	} {
		t, err := f()
		if err != nil {
			return "", err
		}
		parts = append(parts, t.String())
	}
	return strings.Join(parts, "\n"), nil
}
