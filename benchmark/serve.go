package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfgo"
	selfmetrics "selfgo/internal/metrics"
	"selfgo/internal/router"
	"selfgo/internal/server"
	"selfgo/internal/wire"
)

// exprCase is one request: sum the integers below N onto K. The text is
// the only thing the program sees; want is the generator's own
// arithmetic, the reference every reply is held against.
type exprCase struct{ K, N int64 }

func (e exprCase) text() string {
	return fmt.Sprintf("| s <- %d | 1 upTo: %d Do: [:i | s: s + i]. s", e.K, e.N)
}

// want: upTo: stops before its bound, so the loop adds 1..N-1.
func (e exprCase) want() int64 { return e.K + e.N*(e.N-1)/2 }

func (e exprCase) body() []byte {
	data, _ := json.Marshal(wire.EvalRequest{Expr: e.text()}) // a struct of strings: cannot fail
	return data
}

// hotCases are serve.hot's eight fixed expressions.
var hotCases = []exprCase{{1, 100}, {2, 150}, {3, 200}, {4, 250}, {5, 300}, {6, 350}, {7, 400}, {8, 125}}

const (
	nClients = 2 // closed-loop clients, one connection each; the box has two cores
	poolSize = 2 // the replica's worker VMs

	// Streams keep the expression sequences of a run's phases apart:
	// clients of warm-up, window, reference and traced passes, then the
	// ladder's four rungs and the assemble probe.
	maxStreams = 16
)

// generator yields a stream's requests. hot: draws from hotCases.
// churn: K is stream + maxStreams*counter above a base taken from the
// seed, so no two requests of a process share an expression; N is drawn
// from [100, 400], never a large bound. The guest's small integers
// overflow at 2^29: the base stays below 2^28, which leaves a stream
// sixteen million requests before K plus the loop's sum could reach it.
type generator struct {
	hot    bool
	rng    *rand.Rand
	stream int64
	base   int64
	issued *int64 // per stream, kept across set-ups
}

func (g *generator) next() exprCase {
	if g.hot {
		return hotCases[g.rng.Intn(len(hotCases))]
	}
	*g.issued++
	return exprCase{K: g.base + *g.issued*maxStreams + g.stream, N: 100 + g.rng.Int63n(301)}
}

// fleet is the serving topology: one replica and a router in front of
// it, both in this process, each behind its own loopback listener.
type fleet struct {
	srv                   *server.Server
	rt                    *router.Router
	replica, front        *http.Server
	replicaURL, routerURL string
	serving               sync.WaitGroup
}

func startFleet() (*fleet, error) {
	srv, err := server.New(server.Config{Compiler: selfgo.NewSELF, Mode: selfgo.ModeOpt, Pool: poolSize, Benches: []string{}})
	if err != nil {
		return nil, err
	}
	f := &fleet{srv: srv}
	listen := func(h http.Handler) (*http.Server, string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		hs := &http.Server{Handler: h}
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = hs.Serve(ln) // returns ErrServerClosed when close() stops it
		}()
		return hs, "http://" + ln.Addr().String(), nil
	}
	if f.replica, f.replicaURL, err = listen(srv.Handler()); err != nil {
		return nil, err
	}
	if f.rt, err = router.New(router.Config{Replicas: []string{f.replicaURL}}); err != nil {
		f.close()
		return nil, err
	}
	if f.front, f.routerURL, err = listen(f.rt.Handler()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() {
	if f.front != nil {
		_ = f.front.Close()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	_ = f.replica.Close()
	f.serving.Wait()
	// The router forwards through the default transport, as selfrouter does.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// client is one closed-loop caller with a connection of its own.
type client struct {
	hc  *http.Client
	url string
}

func newClient(base string) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, url: base + "/eval"}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// eval posts e and checks the reply: HTTP 200, no error body, and the
// value the generator computed.
func (c *client) eval(e exprCase) (*wire.Result, error) {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(e.body()))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return checkReply(resp.StatusCode, data, e)
}

func checkReply(status int, body []byte, e exprCase) (*wire.Result, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	var res wire.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	if res.Error != nil {
		return nil, fmt.Errorf("%s: %s", res.Error.Kind, res.Error.Message)
	}
	if res.Int != e.want() {
		return nil, fmt.Errorf("%q returned %d, want %d", e.text(), res.Int, e.want())
	}
	return &res, nil
}

// serve drives POST /eval through router and replica over loopback.
type serve struct {
	cfg     runConfig
	hot     bool
	fleet   *fleet
	clients []*client
	issued  [maxStreams]int64

	mu     sync.Mutex
	failed []string
}

func newServe(cfg runConfig, hot bool) *serve { return &serve{cfg: cfg, hot: hot} }

func (s *serve) programs() int { return 1 }

func (s *serve) failures() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

func (s *serve) fail(e exprCase, err error) {
	s.mu.Lock()
	if len(s.failed) < 20 {
		s.failed = append(s.failed, fmt.Sprintf("K=%d N=%d: %v", e.K, e.N, err))
	}
	s.mu.Unlock()
}

func (s *serve) close() {
	for _, c := range s.clients {
		c.close()
	}
	s.clients = nil
	if s.fleet != nil {
		s.fleet.close()
		s.fleet = nil
	}
}

func (s *serve) generator(stream int64, rng *rand.Rand) *generator {
	return &generator{hot: s.hot, rng: rng, stream: stream, base: (s.cfg.seed & 63) << 22, issued: &s.issued[stream]}
}

// pick returns the full count, or the smoke-run count under -quick.
func (s *serve) pick(full, quick int) int {
	if s.cfg.quick {
		return quick
	}
	return full
}

// setup starts a fresh fleet and warms it. hot: every expression is
// compiled and has run on both workers. churn: the replica's interned
// expression table (1024 entries) is filled past its cap, so that every
// timed request evicts.
func (s *serve) setup() error {
	s.close()
	f, err := startFleet()
	if err != nil {
		return err
	}
	s.fleet = f
	for i := 0; i < nClients; i++ {
		s.clients = append(s.clients, newClient(f.routerURL))
	}
	perClient := s.pick(100, 20)
	if !s.hot {
		perClient = s.pick(560, 30)
	}
	rng := rand.New(rand.NewSource(s.cfg.seed))
	before := len(s.failures())
	s.block(perClient, 0, rng, nil, nil, nil)
	if fs := s.failures(); len(fs) > before {
		return fmt.Errorf("warm-up request failed: %s", fs[before])
	}
	return nil
}

// block has every client send n requests, concurrently, and returns
// when all are answered. Streams firstStream.. feed the clients.
func (s *serve) block(n int, firstStream int64, rng *rand.Rand, tr *tracer, nextOp *atomic.Int64, each func(*wire.Result)) []sample {
	t0 := time.Now()
	out := make([][]sample, len(s.clients))
	var eachMu sync.Mutex
	var wg sync.WaitGroup
	for ci, c := range s.clients {
		gen := s.generator(firstStream+int64(ci), rand.New(rand.NewSource(rng.Int63())))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				e := gen.next()
				op := 0
				if nextOp != nil {
					op = int(nextOp.Add(1))
				}
				start := time.Now()
				id := tr.begin("client.roundtrip.via_router", "router", -1, op)
				res, err := c.eval(e)
				tr.end(id)
				d := time.Since(start)
				if err != nil {
					s.fail(e, err)
				} else if each != nil {
					eachMu.Lock()
					each(res)
					eachMu.Unlock()
				}
				out[ci] = append(out[ci], sample{end: int64(time.Since(t0)), dur: int64(d), ok: err == nil})
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// window is the closed loop: each client sends its next request when
// the last one is answered, until cfg.seconds of it have run; the
// driver goroutine only marks the slice boundaries. The client that
// receives the window's allocOps-th answer marks the heap for
// alloc_mb_per_op.
//
// serve.churn runs the window as episodes. Every never-seen expression
// grows the replica's compile log, and every request walks and copies
// that log, so the replica slows with each request it has served: left
// alone, a slice's speed would depend on how many requests the host got
// through before it. An episode is allocOps answers from a fleet that
// set-up just built; then the fleet is rebuilt, off the window's clock.
// Each episode is one slice, and all slices see the same replica state.
func (s *serve) window(rng *rand.Rand) window {
	total := time.Duration(s.cfg.seconds * float64(time.Second))
	var win window
	var answered atomic.Int64
	out := make([][]sample, len(s.clients))
	gens := make([]*generator, len(s.clients))
	for ci := range gens {
		gens[ci] = s.generator(2+int64(ci), rand.New(rand.NewSource(rng.Int63())))
	}
	t0 := time.Now() // moved forward by the time spent rebuilding, so the window's clock stops meanwhile
	win.cuts = []cut{markCut(t0)}

	// run has both clients send until the window's clock reaches until,
	// or, when quota is non-zero, that many answers are in.
	run := func(until time.Duration, quota int64) {
		var wg sync.WaitGroup
		for ci, c := range s.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(t0) < until && (quota == 0 || answered.Load() < quota) {
					e := gens[ci].next()
					start := time.Now()
					_, err := c.eval(e)
					d := time.Since(start)
					if err != nil {
						s.fail(e, err)
					}
					out[ci] = append(out[ci], sample{end: int64(time.Since(t0)), dur: int64(d), ok: err == nil})
					if answered.Add(1) == allocOps {
						win.allocMark.ops, win.allocMark.alloc = allocOps, markCut(t0).alloc
					}
				}
			}()
		}
		wg.Wait() // also orders the marking client's write before the caller's reads
		win.cuts = append(win.cuts, markCut(t0))
	}

	if s.hot {
		for k := 1; k <= nSlices; k++ {
			run(total*time.Duration(k)/nSlices, 0)
		}
	} else {
		for episode := int64(1); ; episode++ {
			run(total, episode*allocOps)
			complete := answered.Load() >= episode*allocOps
			if !complete && episode > 1 {
				// The window ended inside this episode, which so saw only
				// the replica's fast early state: not a comparable slice.
				win.cuts = win.cuts[:len(win.cuts)-1]
			}
			if !complete || time.Since(t0) >= total {
				break
			}
			pause := time.Now()
			if err := s.setup(); err != nil {
				s.fail(exprCase{}, fmt.Errorf("rebuilding the fleet between episodes: %w", err))
				out[0] = append(out[0], sample{end: int64(time.Since(t0))})
				break
			}
			t0 = t0.Add(time.Since(pause))
			win.cuts = append(win.cuts, markCut(t0))
		}
	}
	for _, o := range out {
		win.samples = append(win.samples, o...)
	}
	return win
}

// counters reads the summed value of every family in a registry's text
// exposition: the only public way to the server's and router's counts.
func counters(reg *selfmetrics.Registry) map[string]float64 {
	var buf bytes.Buffer
	_ = reg.WriteText(&buf)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// traced: a reference pass and a traced pass of the same blocks through
// the router with both clients, then the ladder that splits one
// request's time by layer.
func (s *serve) traced(rng func() *rand.Rand, p probes, doc *runDoc) error {
	budget := time.Duration(min(0.3*s.cfg.seconds, 5) * float64(time.Second))
	perBlock := s.pick(250, 25)

	var ms0, ms1 runtime.MemStats
	var refSamples []sample
	var refAllocs int64
	blocks := 0
	r, t0 := rng(), time.Now()
	runtime.ReadMemStats(&ms0)
	// A churned replica slows with every expression it has compiled (see
	// window), so a pass over it is kept to an episode's length, and the
	// fleet is rebuilt before the traced pass and before the ladder: all
	// three then meet the replica in the state the timed window's slices do.
	maxBlocks := 1 << 30
	if !s.hot {
		maxBlocks = max(1, allocOps/(perBlock*nClients))
	}
	for el := time.Duration(0); blocks == 0 || (blocks < maxBlocks && el+el/time.Duration(blocks) <= budget); el = time.Since(t0) {
		refSamples = append(refSamples, s.block(perBlock, 4, r, nil, nil, func(res *wire.Result) { refAllocs += res.Run.Allocs })...)
		blocks++
	}
	runtime.ReadMemStats(&ms1)

	if !s.hot {
		if err := s.setup(); err != nil {
			return err
		}
	}
	srv0, rt0 := counters(s.fleet.srv.Registry()), counters(s.fleet.rt.Registry())
	tr := newTracer()
	var nextOp atomic.Int64
	var samples []sample
	var first agg
	r = rng()
	for i := 0; i < blocks; i++ {
		samples = append(samples, s.block(perBlock, 6, r, tr, &nextOp, func(res *wire.Result) {
			if i == 0 {
				first.run.Instrs += res.Run.Instrs
				first.run.Sends += res.Run.Sends
				first.run.Allocs += res.Run.Allocs
			}
		})...)
	}
	srv1, rt1 := counters(s.fleet.srv.Registry()), counters(s.fleet.rt.Registry())
	delta := func(a, b map[string]float64, name string) int64 { return int64(b[name] - a[name]) }

	if !s.hot {
		if err := s.setup(); err != nil {
			return err
		}
	}
	lad, err := s.ladder(tr, int(nextOp.Load())+1, r)
	if err != nil {
		return err
	}
	if err := tr.write(tracePath(s.cfg.root, s.cfg.workload)); err != nil {
		return err
	}
	doc.count(refSamples)
	doc.count(samples)

	tracedMS, _ := opTimeMS(samples, 1, 0.5)
	tracedMin, _ := opTimeMS(samples, 1, 0)
	refMin, _ := opTimeMS(refSamples, 1, 0)
	first.methods, first.bytes, first.passEvents = lad.all.methods, lad.all.bytes, lad.all.passEvents
	wireUS := p.wireDecodeUS + p.wireEncodeUS
	opUS := tracedMS * 1e3
	loadUS, coreUS := lad.parseUS, lad.compileUS
	in := layerInputs{
		all: lad.all, first: first, opUS: opUS,
		runNS: float64(lad.all.call - lad.all.compile),
		selfUS: map[string]float64{
			"load": loadUS, "core": coreUS, "vm": lad.evalUS - loadUS - coreUS,
			"wire": wireUS, "server": lad.handlerUS - lad.evalUS - wireUS,
			"nethttp": lad.directUS - lad.handlerUS, "router": lad.routedUS - lad.directUS,
			"unattributed": opUS - lad.routedUS,
		},
		tracedMinMS: tracedMin, refMinMS: refMin,
		assembleFuseUS: lad.assembleFuseUS,
		cacheMisses:    delta(srv0, srv1, "selfgo_codecache_misses_total"),
		cacheEvicted:   delta(srv0, srv1, "selfgo_codecache_evicted_total"),
		handlerUS:      lad.handlerUS - lad.evalUS, hopUS: lad.routedUS - lad.directUS,
		shed:      delta(srv0, srv1, "selfserved_shed_total"),
		requests:  int64(len(samples)),
		failovers: delta(rt0, rt1, "selfrouter_failovers_total"),
	}
	if refAllocs > 0 {
		in.hostBytesPerAlloc = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(refAllocs)
	}
	fillLayerMetrics(doc, p, in)
	doc.Layers[len(doc.Layers)-1].Comment = "median latency with both clients running, minus the one-at-a-time ladder: queueing and contention (negative when the busy fleet answers faster than the idle one)"

	missesPerReq := float64(in.cacheMisses) / float64(max(in.requests, 1))
	doc.Info.set("codecache.misses_per_request", missesPerReq, "count")
	if s.hot {
		doc.contrast("codecache misses per request == 0", in.cacheMisses == 0, missesPerReq)
	} else {
		doc.contrast("codecache misses per request >= 1", missesPerReq >= 1, missesPerReq)
		doc.contrast("codecache.evicted > 0", in.cacheEvicted > 0, float64(in.cacheEvicted))
	}
	return nil
}

// ladderResult is the median time of the same kind of request taken at
// four depths, each rung containing the one before it.
type ladderResult struct {
	all                                   agg     // rung A's ops
	parseUS, compileUS                    float64 // median ParseEval and compile time inside rung A (0 when hot)
	evalUS, handlerUS, directUS, routedUS float64
	assembleFuseUS                        float64
}

// ladder sends requests one at a time at four depths: (A) ParseEval and
// EvalProgramCtx on a system of the benchmark's own, built as the
// server builds its root; (B) the replica's handler called directly
// with a recorder; (C) loopback HTTP to the replica; (D) loopback HTTP
// through the router. A layer's self time is its rung's median minus
// the rung inside it. The rungs take turns, one request each, so that
// whatever drifts while the ladder runs (the churned replica slows with
// every expression it has compiled) drifts under all four alike.
func (s *serve) ladder(tr *tracer, op int, rng *rand.Rand) (ladderResult, error) {
	var out ladderResult
	n := s.pick(300, 30)
	gen := func(stream int64) *generator {
		return s.generator(stream, rand.New(rand.NewSource(rng.Int63())))
	}
	ctx := context.Background()

	sys, err := selfgo.NewTieredSystem(selfgo.NewSELF, selfgo.ModeOpt, 0)
	if err != nil {
		return out, err
	}
	interned := map[exprCase]*selfgo.EvalProgram{}
	var compiled time.Duration
	var rec selfgo.CompileRecord
	// rungA is one request's worth of work below the server: intern (or
	// parse) the expression, run it, end the arena epoch, and drop a
	// one-off expression's code as the server's LRU would.
	rungA := func(e exprCase, tr *tracer) (o opResult, parse time.Duration, err error) {
		t0 := time.Now()
		root := tr.begin("ladder.A", "unattributed", -1, op)
		prog := interned[e]
		if prog == nil {
			id := tr.begin("selfgo.ParseEval", "load", root, op)
			prog, err = sys.ParseEval(e.text())
			parse = time.Since(t0)
			tr.end(id)
			if err != nil {
				return o, 0, err
			}
			if s.hot {
				interned[e] = prog
			}
		}
		id := tr.begin("selfgo.EvalProgramCtx", "vm", root, op)
		c0 := time.Now()
		res, err := sys.EvalProgramCtx(ctx, prog)
		o.call = time.Since(c0)
		tr.end(id)
		if err != nil {
			return o, 0, err
		}
		sys.ResetArena()
		if !s.hot {
			sys.DropEvalProgram(prog)
		}
		o.compile = res.CompileTime - compiled
		tr.synthetic("core.compile", "core", id, op, o.compile)
		tr.end(root)
		o.dur = time.Since(t0)
		compiled = res.CompileTime
		o.run = res.Run
		o.methods, o.bytes = res.Compile.Methods-rec.Methods, res.Compile.CodeBytes-rec.CodeBytes
		rec = res.Compile
		if res.Value.I() != e.want() {
			return o, 0, fmt.Errorf("%q evaluated to %d, want %d", e.text(), res.Value.I(), e.want())
		}
		return o, parse, nil
	}
	// Untimed first, as the fleet's warm-up did: the prelude's loop
	// methods compile and, when hot, the eight expressions are interned.
	gA := gen(8)
	for _, e := range hotCases {
		if !s.hot {
			e = gA.next()
		}
		if _, _, err := rungA(e, nil); err != nil {
			return out, err
		}
	}
	logged := len(sys.CompileLog())

	handler := s.fleet.srv.Handler()
	direct := newClient(s.fleet.replicaURL)
	defer direct.close()
	type rung struct {
		name, layer string
		gen         *generator
		do          func(e exprCase) error
		us          []float64
	}
	rungs := []*rung{
		{name: "server.Handler.ServeHTTP", layer: "server", gen: gen(9), do: func(e exprCase) error {
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, httptest.NewRequest("POST", "/eval", bytes.NewReader(e.body())))
			_, err := checkReply(w.Code, w.Body.Bytes(), e)
			return err
		}},
		{name: "client.roundtrip.direct", layer: "nethttp", gen: gen(10), do: func(e exprCase) error {
			_, err := direct.eval(e)
			return err
		}},
		{name: "client.roundtrip.via_router", layer: "router", gen: gen(11), do: func(e exprCase) error {
			_, err := s.clients[0].eval(e)
			return err
		}},
	}
	var evalUS, parseUS, compileUS []float64
	for i := 0; i < n; i++ {
		o, parse, err := rungA(gA.next(), tr)
		if err != nil {
			return out, fmt.Errorf("ladder rung A: %w", err)
		}
		op++
		out.all.add(o)
		evalUS = append(evalUS, float64(o.dur)/1e3)
		parseUS = append(parseUS, float64(parse)/1e3)
		compileUS = append(compileUS, float64(o.compile)/1e3)
		for _, r := range rungs {
			e := r.gen.next()
			t0 := time.Now()
			id := tr.begin(r.name, r.layer, -1, op)
			err := r.do(e)
			tr.end(id)
			r.us = append(r.us, float64(time.Since(t0))/1e3)
			op++
			if err != nil {
				return out, fmt.Errorf("ladder %s: %w", r.name, err)
			}
		}
	}
	for _, e := range sys.CompileLog()[logged:] {
		out.all.addPasses(e.Stats.Passes)
	}
	_, out.all.abandons = sys.ArenaStats()
	out.evalUS, out.parseUS, out.compileUS = median(evalUS), median(parseUS), median(compileUS)
	out.handlerUS, out.directUS, out.routedUS = median(rungs[0].us), median(rungs[1].us), median(rungs[2].us)

	// vm.Assemble + vm.Fuse on eight of the workload's expressions, each
	// wrapped as a lobby method so GraphFor can reach it.
	scratch, err := selfgo.NewSystem(selfgo.NewSELF)
	if err != nil {
		return out, err
	}
	g := gen(12)
	var total time.Duration
	for i := range hotCases {
		sel := "benchExpr" + strconv.Itoa(i)
		if err := scratch.LoadSource(sel + " = ( " + g.next().text() + " )."); err != nil {
			return out, err
		}
		d, err := assembleFuse(scratch, sel)
		if err != nil {
			return out, err
		}
		total += d
	}
	out.assembleFuseUS = float64(total) / 1e3 / float64(len(hotCases))
	return out, nil
}
