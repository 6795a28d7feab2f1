package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"time"

	"selfgo"
	"selfgo/internal/bench"
	"selfgo/internal/codecache"
	"selfgo/internal/core"
	"selfgo/internal/lexer"
	"selfgo/internal/obj"
	"selfgo/internal/parser"
	"selfgo/internal/vm"
	"selfgo/internal/wire"
)

// probes are the layer costs taken on fixed inputs, the same in every
// traced process whatever its workload: they cost milliseconds, and a
// layer's unit cost is then at hand on the workloads that do not reach
// the layer themselves.
type probes struct {
	calibNS          float64
	lexerMtokPerS    float64
	parserMBPerS     float64
	cacheHitNS       float64
	cacheMissEvictNS float64
	wireDecodeUS     float64
	wireEncodeUS     float64
	dispatchNS       float64 // ns per guest instruction on the send-free loop programs
}

var calibSink uint64

// calibrate times a fixed pure-Go spin loop (median of five). Nothing
// should move it; it is recorded so that layer numbers from two
// machines can be compared as ratios to it.
func calibrate() float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		runs = append(runs, float64(time.Since(t0)))
	}
	return median(runs)
}

// medianOf runs f reps times and returns the median of what it reports.
func medianOf(reps int, f func() float64) float64 {
	out := make([]float64, reps)
	for i := range out {
		out[i] = f()
	}
	return median(out)
}

func runProbes(calibNS float64) probes {
	p := probes{calibNS: calibNS}
	all := bench.All()

	p.lexerMtokPerS = medianOf(5, func() float64 {
		toks := 0
		t0 := time.Now()
		for _, b := range all {
			toks += len(lexer.All(b.Source))
		}
		return float64(toks) / time.Since(t0).Seconds() / 1e6
	})
	p.parserMBPerS = medianOf(5, func() float64 {
		n := 0
		t0 := time.Now()
		for _, b := range all {
			if _, err := parser.ParseFile(b.Source); err != nil {
				panic("corpus source does not parse: " + err.Error()) // the corpus is fixed: a bug, not an input
			}
			n += len(b.Source)
		}
		return float64(n) / time.Since(t0).Seconds() / 1e6
	})

	// A cache of its own with a compile function that costs nothing:
	// what is left is the cache's own read path (a hit) and write path
	// (a miss that inserts, then the invalidation that evicts it).
	const cacheOps = 100_000
	cache := codecache.New[int]()
	keys := make([]codecache.Key, 64)
	for i := range keys {
		keys[i] = codecache.Key{Meth: &obj.Method{Sel: "probe" + strconv.Itoa(i)}}
		cache.Get(keys[i], func() (int, error) { return i, nil })
	}
	p.cacheHitNS = medianOf(5, func() float64 {
		t0 := time.Now()
		for i := 0; i < cacheOps; i++ {
			cache.Get(keys[i%len(keys)], nil)
		}
		return float64(time.Since(t0)) / cacheOps
	})
	fresh := codecache.Key{Meth: &obj.Method{Sel: "probeFresh"}}
	p.cacheMissEvictNS = medianOf(5, func() float64 {
		t0 := time.Now()
		for i := 0; i < cacheOps; i++ {
			cache.Get(fresh, func() (int, error) { return i, nil })
			cache.Invalidate(fresh)
		}
		return float64(time.Since(t0)) / cacheOps
	})

	const wireOps = 2000
	bodies := make([][]byte, len(hotCases))
	for i, c := range hotCases {
		bodies[i] = c.body()
	}
	p.wireDecodeUS = medianOf(5, func() float64 {
		t0 := time.Now()
		for i := 0; i < wireOps; i++ {
			if _, err := wire.DecodeEvalRequest(bytes.NewReader(bodies[i%len(bodies)]), wire.Limits{}); err != nil {
				panic("hot request body does not decode: " + err.Error())
			}
		}
		return float64(time.Since(t0)) / 1e3 / wireOps
	})
	res := wire.NewResult(obj.Int(hotCases[0].want()), vm.RunStats{Instrs: 1234, Cycles: 5678}, vm.CompileRecord{}, time.Millisecond)
	p.wireEncodeUS = medianOf(5, func() float64 {
		t0 := time.Now()
		for i := 0; i < wireOps; i++ {
			enc := json.NewEncoder(io.Discard) // indented, as the server writes it
			enc.SetIndent("", "  ")
			_ = enc.Encode(res)
		}
		return float64(time.Since(t0)) / 1e3 / wireOps
	})

	p.dispatchNS = dispatchProbe()
	return p
}

// dispatchProbe is ns per guest instruction over warm laps of the
// send-free loop programs: what an instruction costs when nothing but
// dispatch happens. vm.send_ns charges a workload's time beyond this
// rate to its sends.
func dispatchProbe() float64 {
	var ns, instrs float64
	for _, name := range loopPrograms {
		b, _ := bench.ByName(name)
		sys, err := selfgo.NewSystem(selfgo.NewSELF)
		if err == nil {
			err = sys.LoadSource(b.Source)
		}
		if err != nil {
			panic("loop program does not load: " + err.Error())
		}
		var n int64
		lap := func() float64 {
			t0 := time.Now()
			res, err := sys.Call(b.Entry)
			d := time.Since(t0)
			sys.ResetArena()
			if err != nil {
				panic("loop program does not run: " + err.Error())
			}
			n = res.Run.Instrs
			return float64(d)
		}
		lap()
		lap()
		ns += medianOf(7, lap)
		instrs += float64(n)
	}
	return ns / instrs
}

// layerOrder is the order of the self-time table and of the self_us.*
// metrics. "load" is NewSystem + LoadSource (lexer, parser and the obj
// world load, which cannot be told apart from outside); "nethttp" is
// the standard library's client, server and loopback socket between
// the benchmark and a handler.
var layerOrder = []string{"load", "core", "vm", "obj", "wire", "server", "nethttp", "router", "unattributed"}

// layerInputs is what a traced pass hands over for the per-layer
// metrics; serving fields stay zero on corpus workloads.
type layerInputs struct {
	all, first agg                // every traced op; the first traced block
	selfUS     map[string]float64 // layer -> self time per traced op
	opUS       float64            // traced op time the rows sum to
	runNS      float64            // guest run time behind all.run (calls minus compile)

	tracedMinMS, refMinMS float64 // op_min_ms of the traced and of the untraced pass, same ops
	assembleFuseUS        float64
	hostBytesPerAlloc     float64

	cacheMisses, cacheEvicted int64
	handlerUS, hopUS          float64
	shed, requests, failovers int64
}

// fillLayerMetrics writes every per-layer metric BENCHMARK.json names.
// A metric a workload cannot reach (the router on a corpus workload,
// the compiler on a warm one) is reported as 0.
func fillLayerMetrics(doc *runDoc, p probes, in layerInputs) {
	m := doc.Metrics
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m.set("host.calib_ns", p.calibNS, "ns")
	m.set("lexer.mtok_per_s", p.lexerMtokPerS, "Mtok/s")
	m.set("parser.mb_per_s", p.parserMBPerS, "MB/s")
	m.set("codecache.hit_ns", p.cacheHitNS, "ns")
	m.set("codecache.miss_evict_ns", p.cacheMissEvictNS, "ns")
	m.set("wire.decode_us", p.wireDecodeUS, "us")
	m.set("wire.encode_us", p.wireEncodeUS, "us")
	m.set("vm.dispatch_probe_ns_per_instr", p.dispatchNS, "ns")

	a := in.all
	ops := float64(max(a.ops, 1))
	m.set("core.compile_ms", float64(a.compile)/1e6/ops, "ms")
	m.set("core.compile_share", ratio(float64(a.compile)/1e3/ops, in.opUS), "share")
	m.set("vm.assemble_fuse_us", in.assembleFuseUS, "us")

	instrs := float64(a.run.Instrs)
	m.set("vm.dispatch_ns_per_instr", ratio(in.runNS, instrs), "ns")
	beyond := max(0, in.runNS-instrs*p.dispatchNS)
	m.set("vm.send_ns", ratio(beyond, float64(a.run.Sends+a.run.Calls+a.run.BlockValues)), "ns")
	m.set("vm.send_share", ratio(beyond, in.runNS), "share")
	m.set("vm.ic_hit_share", ratio(float64(a.run.ICHits), float64(a.run.ICHits+a.run.ICMisses)), "share")
	m.set("obj.host_bytes_per_guest_alloc", in.hostBytesPerAlloc, "B")
	m.set("obj.arena_abandons", float64(a.abandons), "count")

	// A worker VM remembers the code it ran last time and then does not
	// ask the shared cache at all, so its hit counter stays flat on warm
	// traffic: the share is taken from the misses instead.
	hitShare := 0.0
	if in.requests > 0 {
		hitShare = max(0, 1-float64(in.cacheMisses)/float64(in.requests))
	}
	m.set("codecache.hit_share", hitShare, "share")
	m.set("codecache.evicted", float64(in.cacheEvicted), "count")
	m.set("server.handler_us", in.handlerUS, "us")
	m.set("server.shed_share", ratio(float64(in.shed), float64(in.requests)), "share")
	m.set("router.hop_us", in.hopUS, "us")
	m.set("router.failovers", float64(in.failovers), "count")
	m.set("trace_overhead_share", ratio(in.tracedMinMS-in.refMinMS, in.refMinMS), "share")

	// Exact counts, from the first traced block alone.
	f := in.first
	doc.Counts = map[string]int64{
		"core.code_bytes": int64(f.bytes), "core.methods": int64(f.methods),
		"vm.guest_instrs": f.run.Instrs, "vm.guest_sends": f.run.Sends, "obj.guest_allocs": f.run.Allocs,
	}
	for _, name := range core.PassNames() {
		doc.Counts["core.pass_events."+name] = f.passEvents[name]
	}
	for k, v := range doc.Counts {
		unit := "count"
		if k == "core.code_bytes" {
			unit = "B"
		}
		m.set(k, float64(v), unit)
	}

	m.set("traced_op_us", in.opUS, "us")
	for _, layer := range layerOrder {
		us := in.selfUS[layer]
		m.set("self_us."+layer, us, "us")
		doc.Layers = append(doc.Layers, layerRow{Layer: layer, SelfUS: us, Share: ratio(us, in.opUS)})
	}
}
