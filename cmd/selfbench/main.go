// Command selfbench regenerates the performance tables of Chambers &
// Ungar (PLDI'90) §6 and Appendices A-C on the selfgo reproduction.
//
// Usage:
//
//	selfbench                          # every table
//	selfbench -table speed-summary     # §6.1 speed table
//	selfbench -table compile-summary   # §6.2/§6.3 compile time & code size
//	selfbench -table speed             # Appendix A
//	selfbench -table size              # Appendix B
//	selfbench -table compile           # Appendix C
//	selfbench -table ablation          # per-technique ablation
//	selfbench -table guard             # §6.1 guard records (JSON) for BENCH_guard.json
//	selfbench -bench richards          # one benchmark across all systems
//	selfbench -workers 8               # concurrent VMs against one shared code cache
//	selfbench -tier adaptive -promote 50 -bench richards   # adaptive-mode measurement
//	selfbench -list                    # list benchmarks
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"selfgo"
	"selfgo/internal/bench"
	"selfgo/internal/cli"
)

func main() {
	table := flag.String("table", "all", "table to print: all, speed-summary, compile-summary, speed, size, compile, ablation, strategy, guard, json")
	one := flag.String("bench", "", "run a single benchmark across every system")
	list := flag.Bool("list", false, "list benchmarks and exit")
	quiet := flag.Bool("q", false, "suppress progress output")
	workers := flag.Int("workers", 0, "run benchmarks on N concurrent VMs sharing one code cache")
	reps := flag.Int("reps", 4, "with -workers: benchmark runs per worker")
	configName := flag.String("config", "new", "compiler config (new, new-multi, old89, old90, st80, c); used by -workers and -tier")
	tierName := flag.String("tier", "opt", "tier schedule: opt (eager optimizing), baseline, adaptive")
	strategyName := flag.String("strategy", "split", "specialization strategy for -workers/-bench/-tier runs: split, bbv, both")
	promote := flag.Int64("promote", 0, "adaptive promotion threshold (invocations+backedges; 0 = default)")
	assertPromoted := flag.Bool("assert-promoted", false, "with -tier adaptive: exit nonzero unless every measured benchmark installs >= 1 promotion")
	timeout := flag.Duration("timeout", 0, "with -workers: wall-clock limit per benchmark measurement (e.g. 30s)")
	fuel := flag.Int64("fuel", 0, "with -workers: instruction budget per benchmark run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeMemProfile(*memprofile)
	}

	strat, err := selfgo.StrategyByName(*strategyName)
	if err != nil {
		fatal(err)
	}
	// loadCfg resolves -config with -strategy applied (and the name
	// suffixed so strategy-distinct runs never collide in caches or
	// output labels).
	loadCfg := func() (selfgo.Config, error) {
		cfg, err := cli.ConfigByName(*configName)
		if err != nil {
			return cfg, err
		}
		if strat != selfgo.StrategySplit {
			cfg.Strategy = strat
			cfg.Name = fmt.Sprintf("%s (%s)", cfg.Name, strat)
		}
		return cfg, nil
	}

	if *list {
		for _, b := range bench.All() {
			safe := ""
			if b.ParallelSafe {
				safe = " parallel-safe"
			}
			fmt.Printf("%-12s [%s]%s\n", b.Name, b.Group, safe)
		}
		return
	}

	if *workers > 0 {
		cfg, err := loadCfg()
		if err != nil {
			fatal(err)
		}
		lim := bench.Limits{Timeout: *timeout, Budget: selfgo.Budget{MaxInstrs: *fuel}}
		if err := runWorkers(cfg, *workers, *reps, *one, lim); err != nil {
			fatal(err)
		}
		return
	}

	mode, err := selfgo.TierModeByName(*tierName)
	if err != nil {
		fatal(err)
	}

	if mode != selfgo.ModeOpt {
		cfg, err := loadCfg()
		if err != nil {
			fatal(err)
		}
		if err := runTiered(cfg, mode, *promote, *one, *assertPromoted, *quiet); err != nil {
			fatal(err)
		}
		return
	}

	r := bench.NewRunner()
	if !*quiet {
		r.Progress = os.Stderr
	}

	if *one != "" {
		b, ok := bench.ByName(*one)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q (try -list)", *one))
		}
		fmt.Printf("%s [%s]\n", b.Name, b.Group)
		fmt.Printf("%-32s %12s %10s %10s %10s %12s %10s\n",
			"system", "cycles", "sends", "tests", "ovfl", "compile", "code kB")
		for _, cfg := range selfgo.Configs() {
			m, err := r.Get(b, cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-32s %12d %10d %10d %10d %12s %9.1f\n",
				cfg.Name, m.Cycles, m.Run.Sends, m.Run.TypeTests, m.Run.OvflChecks,
				m.CompileTime.Round(10*time.Microsecond), float64(m.CodeBytes)/1024)
		}
		return
	}

	emit := func(f func() (*bench.Table, error)) {
		t, err := f()
		if err != nil {
			fatal(err)
		}
		fmt.Println(t.String())
	}
	switch *table {
	case "guard":
		recs, err := r.GuardRecords()
		if err != nil {
			fatal(err)
		}
		data, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case "json":
		data, err := r.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case "all":
		out, err := r.AllTables()
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	case "speed-summary":
		emit(r.SpeedSummaryTable)
	case "compile-summary":
		emit(r.CompileSummaryTable)
	case "speed":
		emit(r.SpeedTable)
	case "size":
		emit(r.CodeSizeTable)
	case "compile":
		emit(r.CompileTimeTable)
	case "ablation":
		emit(r.AblationTable)
	case "strategy":
		emit(r.StrategyTable)
	default:
		fatal(fmt.Errorf("unknown table %q", *table))
	}
}

// runWorkers runs the parallel-safe benchmarks (or the one named by
// filter) on `workers` concurrent VMs sharing a single world and code
// cache, printing throughput and the shared cache's counters. It fails
// if any run computes a wrong value or if any (method, receiver map)
// customization was compiled more than once — the single-flight
// compile-once guarantee, asserted from the cache counters.
func runWorkers(cfg selfgo.Config, workers, reps int, filter string, lim bench.Limits) error {
	benches := bench.ParallelSafe()
	if filter != "" {
		b, ok := bench.ByName(filter)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (try -list)", filter)
		}
		benches = []bench.Benchmark{b}
	}
	fmt.Printf("concurrent benchmarks: %d workers x %d reps, config %q, shared code cache\n\n", workers, reps, cfg.Name)
	fmt.Printf("%-12s %12s %10s %10s %8s %8s %8s %8s %8s %14s\n",
		"benchmark", "value", "wall ms", "runs/s", "compiled", "hits", "misses", "waits", "evicted", "compile-once")
	bad := false
	for _, b := range benches {
		m, err := bench.RunConcurrentLimits(b, cfg, workers, reps, lim)
		if err != nil {
			return err
		}
		once := "OK"
		if !m.CompileOnce() {
			once = "VIOLATED"
			bad = true
		}
		fmt.Printf("%-12s %12d %10.1f %10.0f %8d %8d %8d %8d %8d %14s\n",
			m.Bench, m.Value, float64(m.Elapsed)/float64(time.Millisecond), m.RunsPerSec(),
			m.Methods, m.Cache.Hits, m.Cache.Misses, m.Cache.Waits, m.Cache.Evicted, once)
	}
	if bad {
		return fmt.Errorf("compile-once violated: some customization was compiled more than once")
	}
	fmt.Printf("\ncompile-once holds: every (method, receiver map) customization was compiled exactly once.\n")
	return nil
}

// runTiered measures every benchmark (or the one named by filter)
// under a non-default tier schedule, printing the cold-vs-steady
// modelled cost and the promotion activity. With assertPromoted, it
// fails unless each measured benchmark installed at least one
// promotion — the CI smoke check for adaptive mode.
func runTiered(cfg selfgo.Config, mode selfgo.TierMode, threshold int64, filter string, assertPromoted, quiet bool) error {
	benches := bench.All()
	if filter != "" {
		b, ok := bench.ByName(filter)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (try -list)", filter)
		}
		benches = []bench.Benchmark{b}
	}
	if !quiet {
		fmt.Printf("tier schedule %q, config %q, promotion threshold %d\n\n", mode, cfg.Name, threshold)
	}
	fmt.Printf("%-12s %12s %14s %14s %10s %10s %10s %12s\n",
		"benchmark", "value", "cold cycles", "steady cycles", "promoted", "fails", "discards", "mean promote")
	for _, b := range benches {
		m, err := bench.RunTiered(b, cfg, mode, threshold)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %12d %14d %14d %10d %10d %10d %12s\n",
			m.Bench, m.Value, m.FirstRun.Cycles, m.SteadyRun.Cycles,
			m.Promotions.Installed, m.Promotions.Fails, m.Promotions.Discards,
			m.Promotions.MeanLatency.Round(time.Microsecond))
		if assertPromoted && mode == selfgo.ModeAdaptive && m.Promotions.Installed < 1 {
			return fmt.Errorf("%s: adaptive run installed no promotions (RunStats promotions=%d)",
				m.Bench, m.FirstRun.Promotions)
		}
	}
	return nil
}

func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfbench:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "selfbench:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "selfbench:", err)
	os.Exit(1)
}
