package bench

import (
	"fmt"
	"strings"
	"testing"

	"selfgo"
)

// fastRunner pre-seeds a Runner with synthetic measurements so table
// formatting can be tested without running the benchmarks.
func fastRunner() *Runner {
	r := NewRunner()
	cfgs := selfgo.Configs()
	for i, b := range All() {
		for j, cfg := range cfgs {
			m := &Measurement{
				Bench:  b.Name,
				Group:  b.Group,
				Config: cfg.Name,
				Value:  1,
				Cycles: int64(1000 * (j + 1) * (i + 1)),
				// Fake compile data.
				CodeBytes: 1024 * (j + 1),
			}
			r.cache[b.Name+"\x00"+cfg.Name] = m
		}
	}
	return r
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"row1", "42"}, {"longer-row", "7"}},
		Notes:  []string{"note"},
	}
	s := tb.String()
	for _, want := range []string{"demo", "row1", "longer-row", "note", "42"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestSpeedSummaryTableShape(t *testing.T) {
	r := fastRunner()
	tb, err := r.SpeedSummaryTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 { // ST-80, old89, old90, new SELF
		t.Errorf("rows = %d", len(tb.Rows))
	}
	if len(tb.Header) != 5 { // label + 4 groups
		t.Errorf("header = %v", tb.Header)
	}
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			if !strings.Contains(cell, "%") {
				t.Errorf("cell %q has no percent", cell)
			}
		}
	}
}

func TestAppendixTablesShape(t *testing.T) {
	r := fastRunner()
	for name, gen := range map[string]func() (*Table, error){
		"speed":   r.SpeedTable,
		"size":    r.CodeSizeTable,
		"compile": r.CompileTimeTable,
	} {
		tb, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tb.Rows) != len(All()) {
			t.Errorf("%s: %d rows, want %d", name, len(tb.Rows), len(All()))
		}
	}
}

func TestCompileSummaryShape(t *testing.T) {
	r := fastRunner()
	tb, err := r.CompileSummaryTable()
	if err != nil {
		t.Fatal(err)
	}
	// 2 metric headers + 3 configs each.
	if len(tb.Rows) != 8 {
		t.Errorf("rows = %d, want 8", len(tb.Rows))
	}
}

// TestAblationTableShape runs the ablation for real: new SELF and its
// eight variants over six programs, every cell a percentage of
// optimized C.
func TestAblationTableShape(t *testing.T) {
	tb, err := NewRunner().AblationTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 9 || len(tb.Header) != 7 {
		t.Fatalf("%d rows under header %v, want 9 variants x 6 programs", len(tb.Rows), tb.Header)
	}
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			var pct float64
			if n, err := fmt.Sscanf(cell, "%f%%", &pct); n != 1 || err != nil || !strings.HasSuffix(cell, "%") || pct <= 0 {
				t.Errorf("%s: cell %q is not a percentage", row[0], cell)
			}
		}
	}
}

func TestGroupForIncludesPuzzleInOO(t *testing.T) {
	names := map[string]bool{}
	for _, b := range groupFor("stanford-oo") {
		names[b.Name] = true
	}
	if !names["puzzle"] {
		t.Error("stanford-oo group summary must include puzzle (§6)")
	}
	if len(names) != 8 {
		t.Errorf("stanford-oo group has %d entries, want 8", len(names))
	}
}

func TestStatHelpers(t *testing.T) {
	xs := []float64{3, 1, 2}
	if median(xs) != 2 {
		t.Errorf("median = %v", median(xs))
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("even median")
	}
	lo, hi := minMax(xs)
	if lo != 1 || hi != 3 {
		t.Errorf("minMax = %v %v", lo, hi)
	}
	if p := percentile([]float64{1, 2, 3, 4}, 0.75); p != 3 {
		t.Errorf("p75 = %v", p)
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 21 {
		t.Errorf("registry has %d benchmarks, want 21", len(all))
	}
	seen := map[string]bool{}
	groups := map[string]int{}
	for _, b := range all {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		groups[b.Group]++
		if b.Source == "" || b.Entry == "" {
			t.Errorf("%s: empty source or entry", b.Name)
		}
	}
	want := map[string]int{"stanford": 8, "stanford-oo": 7, "small": 5, "richards": 1}
	for g, n := range want {
		if groups[g] != n {
			t.Errorf("group %s has %d benchmarks, want %d", g, groups[g], n)
		}
	}
	if _, ok := ByName("richards"); !ok {
		t.Error("ByName(richards) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
}

func TestRunnerCaches(t *testing.T) {
	r := NewRunner()
	b, _ := ByName("sumTo")
	m1, err := r.Get(b, selfgo.NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.Get(b, selfgo.NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("runner did not cache")
	}
}

func TestRunRejectsWrongExpectation(t *testing.T) {
	b := Benchmark{
		Name: "bad", Group: "small", Entry: "go",
		Source: `go = ( 41 ).`, Expect: 42, HasExpect: true,
	}
	if _, err := Run(b, selfgo.NewSELF); err == nil {
		t.Error("expected check-value mismatch error")
	}
}

var _ = fmt.Sprintf

func TestJSONOutput(t *testing.T) {
	r := fastRunner()
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"bench"`, `"pct_of_c"`, `"cycles"`, "richards", "sumTo"} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}
