package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"selfgo"
	"selfgo/internal/bench"
	"selfgo/internal/vm"
)

// quickSkip is left out under -quick: the six programs whose cold op
// takes longest, so a smoke run of every workload stays in seconds.
var quickSkip = map[string]bool{"puzzle": true, "towers": true, "tree": true, "intmm": true, "intmm-oo": true, "quick-oo": true}

// coldWarmup is what corpus.cold's set-up runs once before timing: a
// few cheap programs, enough to page in the compiler and grow the heap.
var coldWarmup = []string{"sieve", "sumTo", "atAllPut", "perm-oo", "tree-oo"}

// corpus runs the paper's benchmark programs in process. cold: an op is
// a fresh system, the program's source load and its first call. warm:
// an op is one more call on a system that already compiled and ran the
// program, then the arena reset that marks a request boundary.
type corpus struct {
	cfg   runConfig
	cold  bool
	heavy bool // warm and send-heavy: vm.send_share must be high, not low
	progs []bench.Benchmark
	refs  map[string]reference

	// warm only, one entry per program
	systems    []*selfgo.System
	warmCycles []int64
	compiled   []time.Duration // compile time the system had spent by the previous op

	failed []string
}

func newCorpus(cfg runConfig, cold, heavy bool, names []string) *corpus {
	c := &corpus{cfg: cfg, cold: cold, heavy: heavy}
	for _, b := range bench.All() {
		if cfg.quick && quickSkip[b.Name] {
			continue
		}
		if names == nil || slices.Contains(names, b.Name) {
			c.progs = append(c.progs, b)
		}
	}
	return c
}

func (c *corpus) programs() int      { return len(c.progs) }
func (c *corpus) failures() []string { return c.failed }
func (c *corpus) close()             {}

func (c *corpus) fail(prog string, err error) {
	if len(c.failed) < 20 {
		c.failed = append(c.failed, prog+": "+err.Error())
	}
}

func (c *corpus) setup() error {
	refs, err := loadOracle(c.cfg.root, bench.All())
	if err != nil {
		return err
	}
	c.refs = refs
	if c.cold {
		for _, name := range coldWarmup {
			b, _ := bench.ByName(name)
			if r := coldOp(b, refs[name], nil, 0); r.err != nil {
				return fmt.Errorf("warm-up %s: %w", name, r.err)
			}
		}
		return nil
	}
	c.systems = make([]*selfgo.System, len(c.progs))
	c.warmCycles = make([]int64, len(c.progs))
	c.compiled = make([]time.Duration, len(c.progs))
	for i, b := range c.progs {
		sys, err := selfgo.NewSystem(selfgo.NewSELF)
		if err != nil {
			return err
		}
		if err := sys.LoadSource(b.Source); err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		first, err := sys.Call(b.Entry)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		if err := refs[b.Name].checkCold(first.Value.I(), first.Run.Cycles); err != nil {
			return fmt.Errorf("%s first call: %w", b.Name, err)
		}
		sys.ResetArena()
		second, err := sys.Call(b.Entry)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		if err := refs[b.Name].checkWarm(second.Value.I(), second.Run.Cycles, second.Run.Cycles); err != nil {
			return fmt.Errorf("%s second call: %w", b.Name, err)
		}
		sys.ResetArena()
		c.systems[i], c.warmCycles[i], c.compiled[i] = sys, second.Run.Cycles, second.CompileTime
	}
	return nil
}

// opResult is what one corpus op leaves behind for the layer metrics.
type opResult struct {
	dur     time.Duration // the whole op
	call    time.Duration // the Call alone
	compile time.Duration // compiler time the op caused
	run     selfgo.RunStats
	methods int // methods and blocks the op compiled
	bytes   int // modelled code bytes it produced
	log     []selfgo.MethodCompile
	abandon int64 // arena epochs abandoned to the GC
	err     error
}

// coldOp is corpus.cold's op. Every call into a layer sits in a span;
// compile time is known only as a counter, so it becomes a synthetic
// child of the Call it happened in.
func coldOp(b bench.Benchmark, ref reference, tr *tracer, op int) (r opResult) {
	t0 := time.Now()
	root := tr.begin("op:"+b.Name, "unattributed", -1, op)
	defer func() {
		tr.end(root)
		r.dur = time.Since(t0)
	}()

	s := tr.begin("selfgo.NewSystem", "load", root, op)
	sys, err := selfgo.NewSystem(selfgo.NewSELF)
	tr.end(s)
	if err != nil {
		r.err = err
		return r
	}
	s = tr.begin("selfgo.LoadSource", "load", root, op)
	err = sys.LoadSource(b.Source)
	tr.end(s)
	if err != nil {
		r.err = err
		return r
	}
	s = tr.begin("selfgo.Call#1", "vm", root, op)
	c0 := time.Now()
	res, err := sys.Call(b.Entry)
	r.call = time.Since(c0)
	tr.end(s)
	if err != nil {
		r.err = err
		return r
	}
	tr.synthetic("core.compile", "core", s, op, res.CompileTime)
	r.compile, r.run = res.CompileTime, res.Run
	r.methods, r.bytes = res.Compile.Methods, res.Compile.CodeBytes
	if tr != nil {
		r.log = sys.CompileLog()
	}
	_, r.abandon = sys.ArenaStats()
	r.err = ref.checkCold(res.Value.I(), res.Run.Cycles)
	return r
}

// warmOp is the op of loops.warm and sends.warm.
func (c *corpus) warmOp(i int, tr *tracer, op int) (r opResult) {
	b, sys := c.progs[i], c.systems[i]
	t0 := time.Now()
	root := tr.begin("op:"+b.Name, "unattributed", -1, op)
	s := tr.begin("selfgo.Call", "vm", root, op)
	res, err := sys.Call(b.Entry)
	r.call = time.Since(t0)
	tr.end(s)
	s2 := tr.begin("selfgo.ResetArena", "obj", root, op)
	sys.ResetArena()
	tr.end(s2)
	if err == nil {
		r.compile = res.CompileTime - c.compiled[i]
		tr.synthetic("core.compile", "core", s, op, r.compile)
	}
	tr.end(root)
	r.dur = time.Since(t0)
	if err != nil {
		r.err = err
		return r
	}
	c.compiled[i] = res.CompileTime
	r.run = res.Run
	r.err = c.refs[b.Name].checkWarm(res.Value.I(), res.Run.Cycles, c.warmCycles[i])
	return r
}

func (c *corpus) op(i int, tr *tracer, op int) opResult {
	if c.cold {
		return coldOp(c.progs[i], c.refs[c.progs[i].Name], tr, op)
	}
	return c.warmOp(i, tr, op)
}

// round runs every program once in an order drawn from rng.
func (c *corpus) round(rng *rand.Rand, tr *tracer, t0 time.Time, nextOp *int, each func(prog int, r opResult)) []sample {
	out := make([]sample, 0, len(c.progs))
	for _, i := range rng.Perm(len(c.progs)) {
		r := c.op(i, tr, *nextOp)
		*nextOp++
		if r.err != nil {
			c.fail(c.progs[i].Name, r.err)
		}
		out = append(out, sample{end: int64(time.Since(t0)), dur: int64(r.dur), prog: i, ok: r.err == nil})
		if each != nil {
			each(i, r)
		}
	}
	return out
}

// window runs whole rounds for cfg.seconds. A slice ends at the first
// round boundary at or after each nSlices-th of the window, so slices
// hold whole rounds and are comparable; a round longer than that is a
// slice by itself. Every round allocates the same, so alloc_mb_per_op
// needs no mark.
func (c *corpus) window(rng *rand.Rand) window {
	total := time.Duration(c.cfg.seconds * float64(time.Second))
	t0 := time.Now()
	cuts := []cut{markCut(t0)}
	var samples []sample
	next, rounds, op := 1, 0, 0
	for {
		samples = append(samples, c.round(rng, nil, t0, &op, nil)...)
		rounds++
		el := time.Since(t0)
		// Another round is started only if at least half of it fits.
		done := el+el/time.Duration(2*rounds) >= total
		if done || el >= total*time.Duration(next)/nSlices {
			cuts = append(cuts, markCut(t0))
			for el >= total*time.Duration(next)/nSlices {
				next++
			}
		}
		if done {
			return window{samples: samples, cuts: cuts}
		}
	}
}

// traced runs the same rounds twice, first untraced as the reference,
// then with a span around every call into a layer. Timings come from
// every round; exact counts from the first traced round only, so they
// do not depend on how many rounds fitted.
func (c *corpus) traced(rng func() *rand.Rand, p probes, doc *runDoc) error {
	budget := time.Duration(0.4 * c.cfg.seconds * float64(time.Second))

	var ms0, ms1 runtime.MemStats
	var refSamples []sample
	var refAllocs int64
	rounds, op := 0, 0
	r, t0 := rng(), time.Now()
	runtime.ReadMemStats(&ms0)
	for el := time.Duration(0); rounds == 0 || el+el/time.Duration(rounds) <= budget; el = time.Since(t0) {
		refSamples = append(refSamples, c.round(r, nil, t0, &op, func(_ int, o opResult) { refAllocs += o.run.Allocs })...)
		rounds++
	}
	runtime.ReadMemStats(&ms1)

	tr := newTracer()
	var samples []sample
	var all, first agg
	rows := make([]programRow, len(c.progs))
	r, t0 = rng(), time.Now()
	for i := 0; i < rounds; i++ {
		samples = append(samples, c.round(r, tr, t0, &op, func(prog int, o opResult) {
			all.add(o)
			if i == 0 {
				first.add(o)
				rows[prog] = newProgramRow(c.progs[prog].Name, o)
			}
		})...)
	}
	if err := tr.write(tracePath(c.cfg.root, c.cfg.workload)); err != nil {
		return err
	}

	doc.count(refSamples)
	doc.count(samples)
	doc.Programs = rows
	af, err := c.assembleFuseUS()
	if err != nil {
		return err
	}
	hostBytes := 0.0
	if refAllocs > 0 {
		hostBytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(refAllocs)
	}
	ops := float64(len(samples))
	selfUS := map[string]float64{}
	for layer, ns := range layerSelf(tr.spans) {
		selfUS[layer] = float64(ns) / 1e3 / ops
	}
	tracedMin, _ := opTimeMS(samples, len(c.progs), 0)
	refMin, _ := opTimeMS(refSamples, len(c.progs), 0)
	var opNS int64 // the traced op time is the root spans', which is what the rows sum to
	for _, sp := range tr.spans {
		if sp.Parent < 0 {
			opNS += sp.End - sp.Start
		}
	}
	fillLayerMetrics(doc, p, layerInputs{
		all: all, first: first, selfUS: selfUS, opUS: float64(opNS) / 1e3 / ops,
		runNS:       float64(all.call - all.compile),
		tracedMinMS: tracedMin, refMinMS: refMin,
		assembleFuseUS: af, hostBytesPerAlloc: hostBytes,
	})
	c.contrasts(doc)
	return nil
}

// agg sums what ops report.
type agg struct {
	dur, call, compile time.Duration
	run                selfgo.RunStats
	methods, bytes     int
	passEvents         map[string]int64
	abandons           int64
	ops                int
}

func (a *agg) add(o opResult) {
	a.ops++
	a.dur += o.dur
	a.call += o.call
	a.compile += o.compile
	a.methods += o.methods
	a.bytes += o.bytes
	a.abandons += o.abandon
	a.run.Instrs += o.run.Instrs
	a.run.Sends += o.run.Sends
	a.run.Calls += o.run.Calls
	a.run.BlockValues += o.run.BlockValues
	a.run.ICHits += o.run.ICHits
	a.run.ICMisses += o.run.ICMisses
	a.run.Allocs += o.run.Allocs
	for _, e := range o.log {
		a.addPasses(e.Stats.Passes)
	}
}

func (a *agg) addPasses(passes []selfgo.PassStat) {
	if a.passEvents == nil {
		a.passEvents = map[string]int64{}
	}
	for _, p := range passes {
		a.passEvents[p.Name] += int64(p.Events)
	}
}

func newProgramRow(name string, o opResult) programRow {
	row := programRow{Program: name, OpMS: float64(o.dur) / 1e6, Instrs: o.run.Instrs}
	if o.dur > 0 {
		row.CompileShare = float64(o.compile) / float64(o.dur)
	}
	if o.run.Instrs > 0 {
		row.SendsPerK = 1000 * float64(o.run.Sends+o.run.Calls+o.run.BlockValues) / float64(o.run.Instrs)
	}
	if run := o.call - o.compile; run > 0 {
		row.MInstrPerS = float64(o.run.Instrs) / run.Seconds() / 1e6
	}
	return row
}

// assembleFuseUS times vm.Assemble + vm.Fuse directly on each program's
// entry-method graph and returns the mean per program.
func (c *corpus) assembleFuseUS() (float64, error) {
	var total time.Duration
	for _, b := range c.progs {
		sys, err := selfgo.NewSystem(selfgo.NewSELF)
		if err != nil {
			return 0, err
		}
		if err := sys.LoadSource(b.Source); err != nil {
			return 0, err
		}
		d, err := assembleFuse(sys, b.Entry)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", b.Name, err)
		}
		total += d
	}
	return float64(total) / 1e3 / float64(len(c.progs)), nil
}

func assembleFuse(sys *selfgo.System, entry string) (time.Duration, error) {
	g, _, err := sys.GraphFor(entry)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	vm.Fuse(vm.Assemble(g))
	return time.Since(t0), nil
}

// contrasts asserts what this workload must isolate. The thresholds on
// vm.send_share (at most 0.2 on loops.warm, at least 0.6 on sends.warm)
// are the two local halves of "sends.warm's send share is at least 3x
// loops.warm's".
func (c *corpus) contrasts(doc *runDoc) {
	share := doc.Metrics["core.compile_share"].Value
	send := doc.Metrics["vm.send_share"].Value
	switch {
	case c.cold:
		doc.contrast("core.compile_share >= 0.5", share >= 0.5, share)
	case !c.heavy:
		doc.contrast("core.compile_share <= 0.02", share <= 0.02, share)
		doc.contrast("vm.send_share <= 0.2", send <= 0.2, send)
	default:
		doc.contrast("core.compile_share <= 0.02", share <= 0.02, share)
		doc.contrast("vm.send_share >= 0.6", send >= 0.6, send)
	}
}

func (d *runDoc) contrast(name string, ok bool, got float64) {
	d.Contrasts = append(d.Contrasts, contrast{Name: name, OK: ok, Detail: fmt.Sprintf("measured %.4g", got)})
}
