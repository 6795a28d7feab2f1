package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart is as close to process start as Go code gets; the first
// set-up of a run is timed from here.
var processStart = time.Now()

// runConfig is one process's instructions.
type runConfig struct {
	root     string // the checkout: BENCHMARK.json, BENCH_guard.json, benchmark/out
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
}

// workload is one named set of inputs. Both kinds (corpus programs run
// in process, expressions served over loopback) offer the same four
// steps to the driver below.
type workload interface {
	// setup builds everything the timed ops need — systems or servers,
	// loaded sources, warm-up laps with their results checked — and
	// replaces whatever an earlier setup built.
	setup() error
	// window runs ops untraced for cfg.seconds and returns every sample
	// with the slice boundaries.
	window(rng *rand.Rand) window
	// traced runs the reference and traced passes and fills the
	// per-layer part of doc.
	traced(rng func() *rand.Rand, p probes, doc *runDoc) error
	// programs is how many kinds of op the workload has; op_p50_ms is a
	// geometric mean over them.
	programs() int
	// failures lists the ops that went wrong so far.
	failures() []string
	close()
}

// workloadDef names a workload and says why it exists; the same text is
// in BENCHMARK.json and a test keeps the two equal.
type workloadDef struct {
	name, why string
	build     func(cfg runConfig) workload
}

var (
	loopPrograms = []string{"sieve", "sumTo", "sumFromTo", "sumToConst", "atAllPut", "bubble"}
	sendPrograms = []string{"towers", "tree", "richards", "queens", "perm", "towers-oo", "tree-oo", "queens-oo", "perm-oo"}
)

var workloadDefs = []workloadDef{
	{"corpus.cold", "fresh system, load and first call of all 21 programs: compilation is ~60% of the time here and ~0% elsewhere, so compiler cost shows only here",
		func(cfg runConfig) workload { return newCorpus(cfg, true, false, nil) }},
	{"loops.warm", "warm calls of the six send-free loop programs: pure vm dispatch, the control on which send/activation work must show no change",
		func(cfg runConfig) workload { return newCorpus(cfg, false, false, loopPrograms) }},
	{"sends.warm", "warm calls of nine send/closure/allocation-heavy programs: time is in sends, activations and obj allocation, and alloc_mb_per_op is large only here",
		func(cfg runConfig) workload { return newCorpus(cfg, false, true, sendPrograms) }},
	{"serve.hot", "2 closed-loop clients POST 8 repeated expressions through router and replica: every request is a cache read, so wire, server and router dominate",
		func(cfg runConfig) workload { return newServe(cfg, true) }},
	{"serve.churn", "same topology, every expression never seen before: parse, intern miss, compile, insert and an LRU eviction per request, the cache's write side",
		func(cfg runConfig) workload { return newServe(cfg, false) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// Set-up is repeated, up to maxSetups times, stopping after minSetups
// once setupBudget is spent (the send-heavy programs take most of a
// second to warm, the serving fleet a few hundredths). setup_s is the
// fastest repeat, for the reason windowMetrics gives: the box's noise
// only ever slows.
const (
	minSetups   = 3
	maxSetups   = 20
	setupBudget = 2 * time.Second
)

// runWorkload is one process's work: set up, then either the untraced
// timed window (end-to-end metrics) or the traced pass (per-layer
// metrics).
func runWorkload(cfg runConfig) (*runDoc, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	doc := &runDoc{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick,
		Metrics: metrics{}, Info: metrics{}}
	if cfg.trace {
		doc.Trace = 1
	}
	w := def.build(cfg)
	defer w.close()

	reps := maxSetups
	if cfg.quick || cfg.trace {
		reps = 1
	}
	var setups []float64
	start := processStart
	for i := 0; i < reps; i++ {
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		now := time.Now()
		setups = append(setups, now.Sub(start).Seconds())
		if len(setups) >= minSetups && now.Sub(processStart) >= setupBudget {
			break
		}
		start = now
	}
	s := summarize(setups)
	doc.Info.set("setup_s.median", s.med, "s")
	doc.Info.set("setup_s.max", s.max, "s")
	doc.Info.set("setup_s.first", setups[0], "s")
	doc.Info.set("setup_s.spread", (s.med-s.min)/s.min, "share")
	doc.Info.set("setup_s.reps", float64(len(setups)), "count")

	// The spin loop runs after set-up so that its ~50 ms are not part of
	// the first set-up's time.
	calib := calibrate()
	doc.Env = newEnv(cfg.root, calib)

	// Each phase draws from its own stream of the seed, so the same seed
	// gives the same op sequence whatever ran before.
	stream := func(n int64) *rand.Rand { return rand.New(rand.NewSource(cfg.seed*16 + n)) }
	if cfg.trace {
		p := runProbes(calib)
		if err := w.traced(func() *rand.Rand { return stream(1) }, p, doc); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", cfg.workload, err)
		}
		doc.Info.set("setup_s", s.min, "s")
	} else {
		runtime.GC() // the torn-down set-ups' garbage is not the window's to collect
		win := w.window(stream(0))
		windowMetrics(win, w.programs(), doc.Metrics, doc.Info)
		doc.Metrics.set("setup_s", s.min, "s")
		doc.count(win.samples)
	}
	doc.Failures = w.failures()
	doc.Failed = doc.Attempted - doc.OK
	doc.Info.set("peak_rss_mb", peakRSSMB(), "MB")
	return doc, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, from
// /proc/self/status; 0 when it is not there.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func tracePath(root, workload string) string {
	return filepath.Join(root, "benchmark", "out", "trace-"+workload+".json")
}
