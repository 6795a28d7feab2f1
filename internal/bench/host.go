// Host-speed benchmark rail: while BENCH_guard.json pins the MODELLED
// quantities (cycles, instrs — the paper's numbers), this file measures
// how fast the host actually executes them, so host-performance claims
// about the interpreter are provable. `selfbench -hostbench` emits
// BENCH_host.json; the committed file carries before/after records so
// every future PR has a trajectory to compare against.
package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"selfgo"
)

// HostRecord is one benchmark's host-speed measurement under one
// compiler configuration: wall-clock per run, modelled (guest)
// instructions retired per wall-clock second, and Go allocation
// traffic per run. Guest quantities are fixed by the cost-model guard;
// this record tracks the host-side cost of executing them.
type HostRecord struct {
	Bench              string  `json:"bench"`
	Group              string  `json:"group"`
	Config             string  `json:"config"`
	NsPerOp            int64   `json:"nsPerOp"`
	GuestInstrs        int64   `json:"guestInstrs"`        // modelled instrs per run
	GuestMInstrsPerSec float64 `json:"guestMInstrsPerSec"` // million guest instrs / wall second
	AllocsPerOp        int64   `json:"allocsPerOp"`        // Go allocations per run (steady state)
	BytesPerOp         int64   `json:"bytesPerOp"`         // Go bytes allocated per run

	// Tier-schedule fields, present only for non-default schedules
	// (eager optimizing records keep them empty so files from before
	// tiering still match as geomean baselines). Compile counts are per
	// tier; PromoteNsMean is the mean hot-trigger-to-install latency of
	// the promotions the warm-up performed.
	TierMode           string `json:"tierMode,omitempty"`
	BaselineCompiles   int    `json:"baselineCompiles,omitempty"`
	OptimizingCompiles int    `json:"optimizingCompiles,omitempty"`
	DegradedCompiles   int    `json:"degradedCompiles,omitempty"`
	Promotions         int64  `json:"promotions,omitempty"`
	PromoteNsMean      int64  `json:"promoteNsMean,omitempty"`
}

// HostFile is the schema of BENCH_host.json. Records holds the current
// measurements; Baseline, when present, the measurements from before
// the change being evaluated (`selfbench -hostbench -hostbase old.json`
// copies the old file's records there and computes the geomean
// speedup of guest-instrs/sec across matching records).
type HostFile struct {
	Note           string       `json:"note"`
	Records        []HostRecord `json:"records"`
	Baseline       []HostRecord `json:"baseline,omitempty"`
	GeomeanSpeedup float64      `json:"geomeanSpeedup,omitempty"`
}

// HostBenchOne measures one benchmark under one configuration with
// testing.Benchmark: the system is warmed (code compiled, inline
// caches filled, result checked) before timing, so the measurement is
// steady-state interpretation, not compilation.
func HostBenchOne(cfg selfgo.Config, b Benchmark) (*HostRecord, error) {
	return HostBenchOneMode(cfg, b, selfgo.ModeOpt, 0)
}

// HostBenchOneMode is HostBenchOne under a tier schedule. For
// non-default schedules the warm-up additionally drains background
// promotions (so adaptive mode is timed on its promoted steady state)
// and the record carries the per-tier compile counts and promotion
// latency.
func HostBenchOneMode(cfg selfgo.Config, b Benchmark, mode selfgo.TierMode, threshold int64) (*HostRecord, error) {
	sys, err := selfgo.NewTieredSystem(cfg, mode, threshold)
	if err != nil {
		return nil, err
	}
	if err := sys.LoadSource(b.Source); err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	warm, err := sys.Call(b.Entry)
	if err != nil {
		return nil, fmt.Errorf("%s under %s: %w", b.Name, cfg.Name, err)
	}
	if b.HasExpect && warm.Value.I() != b.Expect {
		return nil, fmt.Errorf("%s under %s: got %d, want %d", b.Name, cfg.Name, warm.Value.I(), b.Expect)
	}
	if mode != selfgo.ModeOpt {
		// Let in-flight promotions land and take another warm lap so
		// the timed loop runs the promoted code. Drain-and-lap twice:
		// hotness accrues across laps, so a method that first crosses
		// the threshold during the second lap is promoted too.
		for i := 0; i < 2; i++ {
			sys.DrainPromotions()
			if warm, err = sys.Call(b.Entry); err != nil {
				return nil, fmt.Errorf("%s under %s (steady): %w", b.Name, cfg.Name, err)
			}
		}
	}
	instrs := warm.Run.Instrs

	var failed error
	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			if _, err := sys.Call(b.Entry); err != nil {
				failed = err
				tb.FailNow()
			}
			// Iterations are request boundaries: recycle the arena so
			// steady-state allocation traffic reflects the serving
			// shape (vectors and clones from reused chunks, not fresh
			// Go heap every lap).
			sys.ResetArena()
		}
	})
	if failed != nil {
		return nil, fmt.Errorf("%s under %s: %w", b.Name, cfg.Name, failed)
	}
	ns := r.NsPerOp()
	rec := &HostRecord{
		Bench:       b.Name,
		Group:       b.Group,
		Config:      cfg.Name,
		NsPerOp:     ns,
		GuestInstrs: instrs,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if ns > 0 {
		rec.GuestMInstrsPerSec = float64(instrs) / (float64(ns) / 1e9) / 1e6
	}
	if mode != selfgo.ModeOpt {
		rec.TierMode = mode.String()
		tiers := sys.TierCounts()
		rec.BaselineCompiles = tiers[selfgo.TierBaseline.String()]
		rec.OptimizingCompiles = tiers[selfgo.TierOptimizing.String()]
		rec.DegradedCompiles = tiers[selfgo.TierDegraded.String()]
		ps := sys.PromotionStats()
		rec.Promotions = ps.Installed
		rec.PromoteNsMean = ps.MeanLatency.Nanoseconds()
	}
	return rec, nil
}

// HostBench measures benches under cfg, in order.
func HostBench(cfg selfgo.Config, benches []Benchmark, progress func(r *HostRecord)) ([]HostRecord, error) {
	return HostBenchMode(cfg, benches, selfgo.ModeOpt, 0, progress)
}

// HostBenchMode measures benches under cfg and a tier schedule.
func HostBenchMode(cfg selfgo.Config, benches []Benchmark, mode selfgo.TierMode, threshold int64, progress func(r *HostRecord)) ([]HostRecord, error) {
	out := make([]HostRecord, 0, len(benches))
	for _, b := range benches {
		rec, err := HostBenchOneMode(cfg, b, mode, threshold)
		if err != nil {
			return nil, err
		}
		if progress != nil {
			progress(rec)
		}
		out = append(out, *rec)
	}
	return out, nil
}

// HostAllocGuard compares freshly measured records against a committed
// baseline and reports an error if host allocation traffic regressed:
// more than 10% above the baseline's allocsPerOp or bytesPerOp, beyond
// a small absolute slack that keeps near-zero baselines (an arena-hit
// benchmark allocates single-digit objects per run) from tripping on
// scheduler noise. Records match on (bench, config, tier mode);
// measured records with no baseline are skipped — the guard pins known
// points, it does not freeze the benchmark set.
func HostAllocGuard(baseline, measured []HostRecord) error {
	key := func(r HostRecord) string { return r.Bench + "\x00" + r.Config + "\x00" + r.TierMode }
	base := map[string]HostRecord{}
	for _, r := range baseline {
		base[key(r)] = r
	}
	const (
		slackAllocs = 64   // absolute allocs/op ignored before the ratio applies
		slackBytes  = 8192 // absolute bytes/op ignored before the ratio applies
	)
	limit := func(b, slack int64) int64 { return b + b/10 + slack }
	var bad []string
	matched := 0
	for _, r := range measured {
		b, ok := base[key(r)]
		if !ok {
			continue
		}
		matched++
		if r.AllocsPerOp > limit(b.AllocsPerOp, slackAllocs) {
			bad = append(bad, fmt.Sprintf("%s/%s: allocsPerOp %d > baseline %d (+10%%)",
				r.Bench, r.Config, r.AllocsPerOp, b.AllocsPerOp))
		}
		if r.BytesPerOp > limit(b.BytesPerOp, slackBytes) {
			bad = append(bad, fmt.Sprintf("%s/%s: bytesPerOp %d > baseline %d (+10%%)",
				r.Bench, r.Config, r.BytesPerOp, b.BytesPerOp))
		}
	}
	if matched == 0 {
		return fmt.Errorf("alloc guard: no measured record matches the baseline file")
	}
	if len(bad) > 0 {
		return fmt.Errorf("host allocation regression:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// HostGeomeanSpeedup returns the geometric mean over matching
// (bench, config, tier-mode) triples of after/before
// guest-instrs-per-second — >1 means the interpreter got faster. Zero
// when nothing matches. Eager records carry an empty TierMode, so
// files written before tiering existed still match.
func HostGeomeanSpeedup(before, after []HostRecord) float64 {
	key := func(r HostRecord) string { return r.Bench + "\x00" + r.Config + "\x00" + r.TierMode }
	base := map[string]HostRecord{}
	for _, r := range before {
		base[key(r)] = r
	}
	logSum, n := 0.0, 0
	for _, r := range after {
		b, ok := base[key(r)]
		if !ok || b.GuestMInstrsPerSec <= 0 || r.GuestMInstrsPerSec <= 0 {
			continue
		}
		logSum += math.Log(r.GuestMInstrsPerSec / b.GuestMInstrsPerSec)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
