package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"selfgo/internal/bench"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestSliceMedian(t *testing.T) {
	got := summarize([]float64{524, 275, 400, 410, 390, 405, 395, 402})
	if !near(got.med, 401) || got.min != 275 || got.max != 524 {
		t.Fatalf("summarize = %+v", got)
	}
	if z := summarize(nil); z != (summary{}) {
		t.Fatalf("summarize(nil) = %+v", z)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 100}); !near(g, 10) {
		t.Fatalf("geomean(1,100) = %v", g)
	}
	// One long program moves the geometric mean far less than the mean.
	if g := geomean([]float64{1, 1, 1, 1000}); !near(g, math.Pow(1000, 0.25)) {
		t.Fatalf("geomean = %v", g)
	}
	if g := geomean([]float64{0, -1}); g != 0 {
		t.Fatalf("geomean of non-positive = %v", g)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n     int
		label string
	}{{99, ""}, {100, "90"}, {199, "90"}, {200, "95"}, {999, "95"}, {1000, "99"}, {9999, "99"}, {10000, "99.9"}}
	for _, c := range cases {
		label, q, ok := tailPercentile(c.n)
		if label != c.label || ok != (c.label != "") {
			t.Errorf("tailPercentile(%d) = %q, %v; want %q", c.n, label, ok, c.label)
		}
		if ok && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = p%s leaves fewer than ten samples beyond it", c.n, label)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "unattributed", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "load", Start: 10, End: 30},
		{ID: 2, Parent: 0, Layer: "vm", Start: 25, End: 60},   // overlaps span 1 by 5
		{ID: 3, Parent: 2, Layer: "core", Start: 25, End: 40}, // nested in span 2
		{ID: 4, Parent: 0, Layer: "obj", Start: 90, End: 120}, // runs past its parent: clipped
	}
	self := selfTimes(spans)
	want := []int64{100 - (50 + 10), 20, 35 - 15, 15, 30}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	by := layerSelf(spans)
	if by["unattributed"] != 40 || by["vm"] != 20 || by["core"] != 15 {
		t.Fatalf("layerSelf = %v", by)
	}
}

func TestTracerNilAndSynthetic(t *testing.T) {
	var off *tracer
	id := off.begin("x", "vm", -1, 0)
	off.end(id)
	off.synthetic("y", "core", id, 0, 5)

	tr := newTracer()
	root := tr.begin("op", "unattributed", -1, 7)
	call := tr.begin("call", "vm", root, 7)
	tr.end(call)
	tr.synthetic("compile", "core", call, 7, 0)
	tr.end(root)
	if len(tr.spans) != 3 || tr.spans[2].Parent != call || !tr.spans[2].Synthetic || tr.spans[1].Op != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	draw := func(seed int64, hot bool) []exprCase {
		s := newServe(runConfig{seed: seed}, hot)
		g := s.generator(3, rand.New(rand.NewSource(seed)))
		out := make([]exprCase, 500)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	for _, hot := range []bool{true, false} {
		a, b, c := draw(5, hot), draw(5, hot), draw(6, hot)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("hot=%v: same seed gave different sequences", hot)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("hot=%v: different seeds gave the same sequence", hot)
		}
	}
	seen := map[string]bool{}
	s := newServe(runConfig{seed: 5}, false)
	for stream := int64(0); stream < 4; stream++ {
		g := s.generator(stream, rand.New(rand.NewSource(1)))
		for i := 0; i < 2000; i++ {
			e := g.next()
			if e.N < 100 || e.N > 400 {
				t.Fatalf("N = %d out of [100, 400]", e.N)
			}
			if seen[e.text()] {
				t.Fatalf("churn repeated %q", e.text())
			}
			seen[e.text()] = true
		}
	}
	if got := (exprCase{K: 7, N: 10}).want(); got != 52 {
		t.Fatalf("want() = %d", got)
	}
}

func TestRoundOrderFromSeed(t *testing.T) {
	order := func(seed int64) []int { return rand.New(rand.NewSource(seed*16 + 0)).Perm(21) }
	if !reflect.DeepEqual(order(3), order(3)) || reflect.DeepEqual(order(3), order(4)) {
		t.Fatal("round order must be a function of the seed")
	}
}

func TestWindowMetrics(t *testing.T) {
	// Two programs, two slices of one second; program 1 takes ten times
	// as long, and the second slice runs at half the rate.
	var w window
	add := func(end, dur int64, prog int, ok bool) {
		w.samples = append(w.samples, sample{end: end, dur: dur, prog: prog, ok: ok})
	}
	for i := int64(1); i <= 4; i++ {
		add(i*250e6, 1e6, 0, true)
		add(i*250e6, 10e6, 1, true)
	}
	for i := int64(1); i <= 2; i++ {
		add(1e9+i*500e6, 2e6, 0, true)
		add(1e9+i*500e6, 40e6, 1, true)
	}
	add(1.9e9, 5e5, 0, false)                                    // a failed op counts for nothing
	add(2.5e9, 5e5, 0, true)                                     // finished after the last cut
	w.cuts = []cut{{0, 0}, {1e9, 8e6}, {1e9, 50e6}, {2e9, 54e6}} // the middle slice is a pause
	m, info := metrics{}, metrics{}
	windowMetrics(w, 2, m, info)
	if v := m["ops_per_s"].Value; !near(v, 8) { // the faster slice
		t.Errorf("ops_per_s = %v", v)
	}
	if v := info["ops_per_s.median_slice"].Value; !near(v, 6) {
		t.Errorf("ops_per_s.median_slice = %v", v)
	}
	if v := info["ops_per_s.spread"].Value; !near(v, (8.0-4.0)/8) {
		t.Errorf("ops_per_s.spread = %v", v)
	}
	if v := m["op_min_ms"].Value; !near(v, math.Sqrt(1*10)) {
		t.Errorf("op_min_ms = %v", v)
	}
	// halves: sqrt(1*10) and sqrt(2*40)
	if v := info["op_min_ms.spread"].Value; !near(v, (math.Sqrt(80)-math.Sqrt(10))/math.Sqrt(10)) {
		t.Errorf("op_min_ms.spread = %v", v)
	}
	// per-program medians: 1 ms (1,1,1,1,2,2) and 10 ms (10 x4, 40 x2)
	if v := info["op_p50_ms"].Value; !near(v, math.Sqrt(1*10)) {
		t.Errorf("op_p50_ms = %v", v)
	}
	if v := m["alloc_mb_per_op"].Value; !near(v, 12.0/12) { // the pause's 42 MB are not the window's
		t.Errorf("alloc_mb_per_op = %v", v)
	}
	if v := info["samples"].Value; v != 12 {
		t.Errorf("samples = %v", v)
	}

	w.allocMark.ops, w.allocMark.alloc = 4, 6e6
	windowMetrics(w, 2, m, info)
	if v := m["alloc_mb_per_op"].Value; !near(v, 1.5) {
		t.Errorf("alloc_mb_per_op over the marked ops = %v", v)
	}
}

func TestCompareRow(t *testing.T) {
	rate := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lat := metricSpec{Name: "op_min_ms", Better: "lower", Bound: 0.10}
	cases := []struct {
		m            metricSpec
		a, b, sa, sb float64
		verdict      string
	}{
		{rate, 100, 95, 0.02, 0.03, verdictOK},
		{rate, 100, 85, 0.02, 0.03, verdictBreach},
		{rate, 100, 120, 0.02, 0.03, verdictOK},
		{rate, 100, 99, 0.02, 0.30, verdictUnresolved},
		{rate, 100, 80, 0.50, 0.50, verdictBreach},
		{lat, 1.0, 1.05, 0, 0, verdictOK},
		{lat, 1.0, 1.2, 0, 0, verdictBreach},
		{lat, 1.0, 0.5, 0, 0, verdictOK},
	}
	for _, c := range cases {
		if _, v := compareRow(c.m, c.a, c.b, c.sa, c.sb); v != c.verdict {
			t.Errorf("%s %v -> %v (spread %v, %v): %s, want %s", c.m.Name, c.a, c.b, c.sa, c.sb, v, c.verdict)
		}
	}
}

func TestOracleCoversCorpus(t *testing.T) {
	refs, err := loadOracle("..", bench.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 21 {
		t.Fatalf("%d references, want 21", len(refs))
	}
	r := refs["sieve"]
	if r.checkCold(r.Value, r.Cycles) != nil || r.checkCold(r.Value+1, r.Cycles) == nil || r.checkCold(r.Value, r.Cycles+1) == nil {
		t.Fatal("checkCold must accept exactly the guard's row")
	}
	if r.checkWarm(r.Value, r.Cycles-2, r.Cycles-2) != nil || r.checkWarm(r.Value, r.Cycles-2, r.Cycles-3) == nil || r.checkWarm(r.Value, r.Cycles+1, r.Cycles+1) == nil {
		t.Fatal("checkWarm must hold warm cycles to the first warm lap and below the guard")
	}
	for _, names := range [][]string{loopPrograms, sendPrograms, coldWarmup} {
		for _, n := range names {
			if _, ok := refs[n]; !ok {
				t.Errorf("workload names unknown program %q", n)
			}
		}
	}
}

func TestSpecNamesTheWorkloads(t *testing.T) {
	s, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloadDefs))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
	}
}

// TestQuickSmoke runs every workload both ways under -quick and checks
// that each prints exactly the metrics BENCHMARK.json promises, with
// their units, and that no op failed.
func TestQuickSmoke(t *testing.T) {
	s, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloadDefs {
		for trace, want := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
			doc, err := runWorkload(runConfig{root: "..", workload: def.name, seed: 1, seconds: 0.3, trace: trace == 1, quick: true})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", def.name, trace, err)
			}
			if doc.Failed != 0 || doc.Attempted == 0 {
				t.Errorf("%s trace=%d: %d of %d ops failed: %v", def.name, trace, doc.Failed, doc.Attempted, doc.Failures)
			}
			var got, wantNames []string
			for k := range doc.Metrics {
				got = append(got, k)
			}
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				if u := doc.Metrics[m.Name].Unit; u != m.Unit {
					t.Errorf("%s trace=%d: %s has unit %q, BENCHMARK.json says %q", def.name, trace, m.Name, u, m.Unit)
				}
			}
			sort.Strings(got)
			sort.Strings(wantNames)
			if !reflect.DeepEqual(got, wantNames) {
				t.Errorf("%s trace=%d: metrics %v, want %v", def.name, trace, got, wantNames)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(doc.contractLine()), &line); err != nil || len(line) != 4 {
				t.Errorf("%s trace=%d: contract line %s", def.name, trace, doc.contractLine())
			}
			if trace == 1 {
				sum := 0.0
				for _, l := range doc.Layers {
					sum += l.SelfUS
				}
				if op := doc.Metrics["traced_op_us"].Value; math.Abs(sum-op) > 1e-6*op {
					t.Errorf("%s: layer rows sum to %v us, traced op is %v us", def.name, sum, op)
				}
			}
		}
	}
}
