package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"selfgo"
	"selfgo/internal/obj"
	"selfgo/internal/wire"
)

// newTestServer builds a server (no preloaded benchmarks unless names
// are given) and an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Benches == nil {
		cfg.Benches = []string{}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, *wire.Result) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res wire.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, &res
}

func TestEvalBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 2})
	code, res := postJSON(t, ts.URL+"/eval", `{"expr": "3 + 4"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, res)
	}
	if res.Int != 7 || res.Value != "7" {
		t.Fatalf("result %+v", res)
	}
	if res.Run == nil || res.Run.Instrs == 0 {
		t.Fatalf("missing run stats: %+v", res)
	}
	if res.TierMode != "opt" {
		t.Fatalf("tier mode %q", res.TierMode)
	}
}

func TestEvalProgramAndEntry(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 2})
	body := `{"program": "triple: n = ( n * 3 ).", "entry": "triple:", "args": [14]}`
	for i := 0; i < 3; i++ {
		code, res := postJSON(t, ts.URL+"/eval", body)
		if code != http.StatusOK || res.Int != 42 {
			t.Fatalf("round %d: status %d result %+v", i, code, res)
		}
	}
	if n := s.LoadedPrograms(); n != 1 {
		t.Fatalf("program loaded %d times, want interning to 1", n)
	}
	// Unknown entry: 404, not a hang or a 500.
	code, res := postJSON(t, ts.URL+"/eval", `{"entry": "noSuchThing"}`)
	if code != http.StatusNotFound {
		t.Fatalf("unknown entry: status %d %+v", code, res)
	}
}

func TestEvalRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	for _, c := range []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{"expr": "1", "entry": "x"}`, http.StatusBadRequest},
		{`{"entry": "fib:", "args": [1, 2]}`, http.StatusBadRequest},
		{`{"expr": "3 +"}`, http.StatusBadRequest}, // parse error
		{`{"program": "][", "expr": "1"}`, http.StatusBadRequest},
	} {
		code, res := postJSON(t, ts.URL+"/eval", c.body)
		if code != c.want {
			t.Errorf("%s: status %d want %d (%+v)", c.body, code, c.want, res)
		}
		if res.Error == nil {
			t.Errorf("%s: no error body", c.body)
		}
	}
}

// TestCompileOnceAcrossConnections is the acceptance criterion in
// miniature: 8 concurrent connections hammering the same expression
// and entry must not compile anything after warm-up — the shared
// cache's miss counter stays flat while the hit counter climbs.
func TestCompileOnceAcrossConnections(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 8})
	exprBody := `{"expr": "| s <- 0 | 1 upTo: 100 Do: [ :i | s: s + i ]. s"}`
	entryBody := `{"program": "square: n = ( n * n ).", "entry": "square:", "args": [12]}`

	// Warm-up: one pass of each compiles everything the requests need.
	// The program load comes first — loading mutates the lobby map,
	// which (correctly) invalidates customizations compiled before it.
	if code, res := postJSON(t, ts.URL+"/eval", entryBody); code != 200 || res.Int != 144 {
		t.Fatalf("warm-up entry: %d %+v", code, res)
	}
	if code, res := postJSON(t, ts.URL+"/eval", exprBody); code != 200 || res.Int != 4950 {
		t.Fatalf("warm-up expr: %d %+v", code, res)
	}
	warm := s.root.CacheStats()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body, want := exprBody, int64(4950)
				if (w+i)%2 == 1 {
					body, want = entryBody, 144
				}
				resp, err := http.Post(ts.URL+"/eval", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var res wire.Result
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != 200 || res.Int != want {
					errs <- fmt.Errorf("worker %d: status %d result %+v", w, resp.StatusCode, &res)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	after := s.root.CacheStats()
	if after.Misses != warm.Misses {
		t.Errorf("compile-once violated: misses %d -> %d under steady load", warm.Misses, after.Misses)
	}
	if after.Hits <= warm.Hits {
		t.Errorf("hits did not grow: %d -> %d", warm.Hits, after.Hits)
	}
	// The /metrics exposition agrees with the internal snapshot.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantLine := fmt.Sprintf("selfgo_codecache_misses_total %d", after.Misses)
	if !strings.Contains(string(text), wantLine) {
		t.Errorf("metrics missing %q", wantLine)
	}
}

// TestAdmissionShedding floods a pool-of-1, queue-of-1 server: exactly
// one request runs, one queues, and the rest get an immediate 429 —
// never a hang.
func TestAdmissionShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 1, DefaultDeadline: time.Minute})
	slow := `{"expr": "| s <- 0 | 1 upTo: 3000000 Do: [ :i | s: s + 1 ]. s"}`

	release := make(chan struct{})
	go func() {
		defer close(release)
		if code, res := postJSON(t, ts.URL+"/eval", slow); code != 200 {
			t.Errorf("slow request: %d %+v", code, res)
		}
	}()
	// Wait until the slow request holds the worker.
	for i := 0; s.InFlight() == 0 && i < 500; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	if s.InFlight() == 0 {
		t.Fatal("slow request never started")
	}

	var wg sync.WaitGroup
	codes := make(chan int, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _ := postJSON(t, ts.URL+"/eval", `{"expr": "1 + 1"}`)
			codes <- code
		}()
	}
	wg.Wait()
	close(codes)
	shed, okCount := 0, 0
	for c := range codes {
		switch c {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusOK:
			okCount++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	// 1 worker busy + 1 queue slot: at least 4 of 6 must be shed.
	if shed < 4 {
		t.Errorf("shed %d of 6, want >= 4 (ok=%d)", shed, okCount)
	}
	if s.m.shed.Value() != int64(shed) {
		t.Errorf("shed counter %d, observed %d", s.m.shed.Value(), shed)
	}
	<-release
}

// TestDrain: after Drain, new work is refused with 503 and readiness
// flips, while a request already in flight runs to completion.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 2, DefaultDeadline: time.Minute})
	slow := `{"expr": "| s <- 0 | 1 upTo: 3000000 Do: [ :i | s: s + 1 ]. s"}`

	done := make(chan struct{})
	go func() {
		defer close(done)
		code, res := postJSON(t, ts.URL+"/eval", slow)
		if code != 200 || res.Int != 2999999 {
			t.Errorf("in-flight request after drain: %d %+v", code, res)
		}
	}()
	for i := 0; s.InFlight() == 0 && i < 500; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	s.Drain()

	if code, _ := postJSON(t, ts.URL+"/eval", `{"expr": "1"}`); code != http.StatusServiceUnavailable {
		t.Errorf("new request while draining: %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: %d (liveness must hold)", resp.StatusCode)
	}
	<-done
	if s.DrainedOK() == 0 {
		t.Error("no request recorded as completing during drain")
	}
}

// TestDeadline: a request-level deadline aborts the run with 504 and a
// cancelled-kind error, and the worker survives for the next request.
func TestDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	code, res := postJSON(t, ts.URL+"/eval",
		`{"expr": "| s <- 0 | 1 upTo: 400000000 Do: [ :i | s: s + 1 ]. s", "deadline_ms": 50}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d %+v, want 504", code, res)
	}
	if res.Error == nil || res.Error.Kind != "cancelled" {
		t.Fatalf("error %+v, want kind cancelled", res.Error)
	}
	// Worker recovered.
	if code, res := postJSON(t, ts.URL+"/eval", `{"expr": "2 + 2"}`); code != 200 || res.Int != 4 {
		t.Fatalf("worker did not recover: %d %+v", code, res)
	}
}

// TestDeadlineOverflow: a deadline_ms past what a Duration can hold is
// clamped to MaxDeadline, not wrapped around to a deadline in the past.
// (Converting 9223372036854775807 ms to a Duration before clamping gave
// -1 ms, and a 504 for a run that takes milliseconds.)
func TestDeadlineOverflow(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	for _, ms := range []string{"0", "60000", "9223372036854", "9223372036855", "9223372036854775807"} {
		code, res := postJSON(t, ts.URL+"/eval",
			`{"expr": "| s <- 0 | 1 upTo: 20000 Do: [:i | s: s + 1]. s", "deadline_ms": `+ms+`}`)
		if code != http.StatusOK || res.Int != 19999 {
			t.Errorf("deadline_ms %s: status %d %+v, want 200 and 19999", ms, code, res.Error)
		}
	}
	s := &Server{cfg: Config{}.withDefaults()}
	for _, c := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, 10 * time.Second}, {1, time.Millisecond}, {60000, time.Minute}, {60001, time.Minute},
		{9223372036854775807, time.Minute},
	} {
		if got := s.effectiveDeadline(c.ms); got != c.want {
			t.Errorf("effectiveDeadline(%d) = %v, want %v", c.ms, got, c.want)
		}
	}
}

// TestDeadlineWhileQueued: a request whose deadline passes while it
// waits for a worker leaves the queue with a 504 of kind cancelled at
// its deadline, not when the worker frees up.
func TestDeadlineWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	long, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/eval",
		strings.NewReader(`{"expr": "| s <- 0 | 1 upTo: 400000000 Do: [ :i | s: s + 1 ]. s"}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(long); err == nil {
			resp.Body.Close()
		}
	}()
	for i := 0; s.InFlight() == 0 && i < 2500; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	if s.InFlight() == 0 {
		t.Fatal("the long run never started")
	}
	start := time.Now()
	code, res := postJSON(t, ts.URL+"/eval", `{"expr": "2 + 2", "deadline_ms": 50}`)
	waited := time.Since(start)
	if code != http.StatusGatewayTimeout || res.Error == nil || res.Error.Kind != "cancelled" {
		t.Fatalf("queued past its deadline: status %d %+v, want 504 kind cancelled", code, res.Error)
	}
	if !strings.HasSuffix(res.Error.Message, "cancelled: context deadline exceeded") {
		t.Errorf("message %q, want a deadline's", res.Error.Message)
	}
	if waited < 50*time.Millisecond || waited > 2*time.Second {
		t.Errorf("left the queue after %v, want about 50ms", waited)
	}
	if s.InFlight() != 1 {
		t.Error("the long run finished first: the queued request did not leave at its deadline")
	}
	cancel()
	<-done
}

// TestClientDisconnect: dropping the connection mid-run aborts the
// guest at the next poll and returns the worker to the pool.
func TestClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/eval",
		strings.NewReader(`{"expr": "| s <- 0 | 1 upTo: 400000000 Do: [ :i | s: s + 1 ]. s"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	for i := 0; s.InFlight() == 0 && i < 500; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected client-side error after cancel")
	}
	// The abort lands at the next budget poll; then the worker is free.
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if code, res := postJSON(t, ts.URL+"/eval", `{"expr": "5 * 5"}`); code != 200 || res.Int != 25 {
		t.Fatalf("worker did not recover after disconnect: %d %+v", code, res)
	}
	if got := s.m.faults.With("cancelled").Value(); got == 0 {
		t.Error("cancelled fault not counted")
	}
}

func TestRunBench(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 2, Benches: []string{"sumTo", "sieve"}})
	code, res := postJSON(t, ts.URL+"/run", `{"bench": "sumTo"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d %+v", code, res)
	}
	if res.Bench != "sumTo" {
		t.Fatalf("bench %q", res.Bench)
	}
	if res.CheckOK == nil || !*res.CheckOK {
		t.Fatalf("check failed: %+v", res)
	}
	// Not preloaded: 404.
	if code, _ := postJSON(t, ts.URL+"/run", `{"bench": "richards"}`); code != http.StatusNotFound {
		t.Fatalf("unloaded bench: status %d, want 404", code)
	}
	if code, _ := postJSON(t, ts.URL+"/run", `{"bench": "perm"}`); code != http.StatusNotFound {
		t.Fatalf("non-parallel-safe bench: status %d, want 404", code)
	}
}

// TestAdaptivePromotionUnderLoad drives an adaptive-tier server until
// a background promotion lands — the acceptance criterion that the
// tiered pipeline works across HTTP tenants, not just in selfbench.
func TestAdaptivePromotionUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 4, Mode: selfgo.ModeAdaptive, PromoteThreshold: 10})
	body := `{"program": "spinUp: n = ( | s <- 0 | 1 upTo: n Do: [ :i | s: s + (i * i) ]. s ).",
	          "entry": "spinUp:", "args": [200]}`

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				resp, err := http.Post(ts.URL+"/eval", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	s.root.DrainPromotions()
	ps := s.root.PromotionStats()
	if ps.Installed == 0 {
		t.Fatalf("no background promotion landed: %+v (tiers %v)", ps, s.root.TierCounts())
	}
	// The promotion is visible on the wire too.
	code, res := postJSON(t, ts.URL+"/eval", `{"entry": "spinUp:", "args": [200]}`)
	if code != 200 || res.Promotions == nil || res.Promotions.Installed == 0 {
		t.Fatalf("promotions missing from response: %d %+v", code, res)
	}
	if res.TierMode != "adaptive" {
		t.Fatalf("tier mode %q", res.TierMode)
	}
}

func TestStatuszAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 3, QueueDepth: 7, Benches: []string{"sumTo"}})
	postJSON(t, ts.URL+"/eval", `{"expr": "1 + 1"}`)

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var view statuszView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if view.Pool != 3 || view.QueueDepth != 7 || view.TierMode != "opt" {
		t.Fatalf("statusz %+v", view)
	}
	if view.Served == 0 || view.Cache.Entries == 0 {
		t.Fatalf("statusz counters empty: %+v", view)
	}
	if len(view.Benches) != 1 || view.Benches[0] != "sumTo" {
		t.Fatalf("statusz benches %v", view.Benches)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE selfserved_requests_total counter",
		`selfserved_requests_total{endpoint="eval",code="200"}`,
		"# TYPE selfserved_request_seconds histogram",
		"selfgo_codecache_misses_total",
		"selfserved_pool_free 3",
		"selfserved_pool_in_use 0",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// Every tier has a compile-count series, zero until it compiles.
	for tier, compiled := range map[string]bool{"degraded": false, "baseline": false, "optimizing": true} {
		v, ok := scrapeGauge(t, ts.URL, `selfgo_compiles_total{tier="`+tier+`"}`)
		if !ok || (v > 0) != compiled {
			t.Errorf("selfgo_compiles_total{tier=%q} = %v (present: %v), want compiled=%v", tier, v, ok, compiled)
		}
	}
}

// TestExprLRUEviction: past MaxEvalPrograms the oldest interned
// expression is dropped and its cache entries evicted, so unique
// programs cannot grow the shared cache without bound.
func TestExprLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1, MaxEvalPrograms: 4})
	for i := 0; i < 12; i++ {
		body := fmt.Sprintf(`{"expr": "%d + %d"}`, i, i)
		if code, res := postJSON(t, ts.URL+"/eval", body); code != 200 || res.Int != int64(2*i) {
			t.Fatalf("expr %d: %d %+v", i, code, res)
		}
	}
	if n := s.InternedExprs(); n != 4 {
		t.Fatalf("interned %d, want LRU capped at 4", n)
	}
	if got := s.m.exprEvicted.Value(); got != 8 {
		t.Fatalf("evicted %d, want 8", got)
	}
	if s.root.CacheStats().Evicted == 0 {
		t.Fatal("LRU rotation did not evict shared-cache entries")
	}

	// Recency, not insertion order, decides who goes: the table holds
	// 8..11; using 8 again makes 9 the coldest, so the next three new
	// expressions push out 9, 10 and 11 and 8 is still a hit.
	eval := func(i int) {
		t.Helper()
		if code, res := postJSON(t, ts.URL+"/eval", fmt.Sprintf(`{"expr": "%d + %d"}`, i, i)); code != 200 || res.Int != int64(2*i) {
			t.Fatalf("expr %d: %d %+v", i, code, res)
		}
	}
	eval(8)
	for i := 12; i < 15; i++ {
		eval(i)
	}
	hits := s.m.exprHits.Value()
	eval(8)
	if got := s.m.exprHits.Value(); got != hits+1 {
		t.Errorf("the most recently used expression was evicted ahead of colder ones (hits %v -> %v)", hits, got)
	}
	interned := s.m.exprInterned.Value()
	eval(9)
	if got := s.m.exprInterned.Value(); got != interned+1 {
		t.Errorf("the coldest expression survived three evictions (interned %v -> %v)", interned, got)
	}
}

// TestCompileLogBounded: a replica fed never-seen expressions compiles
// for as long as it lives; its compile log stops at its bound while the
// aggregates every reply and scrape report keep counting every compile.
func TestCompileLogBounded(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 5_000 // still past the bound
	}
	s, ts := newTestServer(t, Config{Pool: 1})
	h := s.Handler()
	var res wire.Result
	for i := 0; i < n; i++ {
		w := httptest.NewRecorder()
		body := fmt.Sprintf(`{"expr": "| s <- %d | 1 upTo: 3 Do: [ :i | s: s + i ]. s"}`, i)
		h.ServeHTTP(w, httptest.NewRequest("POST", "/eval", strings.NewReader(body)))
		before := res.CompileTimeMS
		res = wire.Result{}
		if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || w.Code != 200 || res.Int != int64(i+3) {
			t.Fatalf("expr %d: %d %s (%v)", i, w.Code, w.Body.String(), err)
		}
		if res.CompileTimeMS <= before {
			t.Fatalf("expr %d: total compile time went from %v to %v ms across a compilation", i, before, res.CompileTimeMS)
		}
	}
	const bound = 4096
	log := s.root.CompileLog()
	if len(log) != bound || s.root.CompileLogLen() != bound {
		t.Fatalf("the compile log holds %d entries (CompileLogLen %d), want its bound %d", len(log), s.root.CompileLogLen(), bound)
	}
	if got, ok := scrapeGauge(t, ts.URL, "selfgo_compile_log_entries"); !ok || got != bound {
		t.Errorf("/metrics selfgo_compile_log_entries = %v (present: %v), want %d", got, ok, bound)
	}
	// Every compilation is a cache miss and the other way round.
	compiles := int(s.root.CacheStats().Misses)
	if compiles < n {
		t.Fatalf("%d requests ran %d compilations: the expressions were not all new", n, compiles)
	}
	total := 0
	for _, c := range res.Tiers {
		total += c
	}
	if total != compiles {
		t.Errorf("the last reply's tier counts sum to %d, the cache counted %d compilations", total, compiles)
	}
	var retained time.Duration
	for _, e := range log {
		retained += e.Stats.Duration
	}
	if ms := float64(retained) / float64(time.Millisecond); res.CompileTimeMS <= ms {
		t.Errorf("the last reply's compile time %v ms is no more than the retained entries' %v ms", res.CompileTimeMS, ms)
	}
}

// TestHostileNewVecFaults: a request allocating a huge vector must be
// answered with 422 and the out-of-fuel taxonomy — the byte budget
// faults at the allocation site, before the host materializes the
// storage. The request-level budget can tighten the cap but never
// raise it above the server's.
func TestHostileNewVecFaults(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, MaxBytes: 1 << 20})

	// 5e8 elements would be 8 GB of value storage; the server cap is 1 MiB.
	code, res := postJSON(t, ts.URL+"/eval", `{"expr": "_NewVec: 500000000"}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("hostile _NewVec: status %d (%+v), want 422", code, res)
	}
	if res.Error == nil || res.Error.Kind != "outOfFuel" {
		t.Fatalf("hostile _NewVec: error %+v, want kind outOfFuel", res.Error)
	}
	if !strings.Contains(res.Error.Message, "byte budget") {
		t.Fatalf("hostile _NewVec: message %q does not name the byte budget", res.Error.Message)
	}

	// A guest IfFail: handler cannot swallow the fault into a 200.
	code, res = postJSON(t, ts.URL+"/eval", `{"expr": "_NewVec: 500000000 IfFail: [ -1 ]"}`)
	if code != http.StatusUnprocessableEntity || res.Error == nil || res.Error.Kind != "outOfFuel" {
		t.Fatalf("IfFail: swallowed the byte fault: %d %+v", code, res)
	}

	// Requests may tighten the cap below the server's...
	code, res = postJSON(t, ts.URL+"/eval", `{"expr": "_NewVec: 1024", "budget": {"max_bytes": 1024}}`)
	if code != http.StatusUnprocessableEntity || res.Error == nil || res.Error.Kind != "outOfFuel" {
		t.Fatalf("request-tightened budget not honored: %d %+v", code, res)
	}
	// ...but never raise it above.
	code, res = postJSON(t, ts.URL+"/eval", `{"expr": "_NewVec: 500000000", "budget": {"max_bytes": 1099511627776}}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("request raised the byte cap above the server's: %d %+v", code, res)
	}

	// Reasonable allocation under the same cap still answers 200, with
	// the byte traffic reported.
	code, res = postJSON(t, ts.URL+"/eval", `{"expr": "(_NewVec: 16 Fill: 3) at: 2"}`)
	if code != http.StatusOK || res.Int != 3 {
		t.Fatalf("benign _NewVec: %d %+v, want 200/3", code, res)
	}
	if res.Run == nil || res.Run.AllocBytes <= 0 {
		t.Fatalf("benign _NewVec: run stats missing alloc_bytes: %+v", res.Run)
	}
}

// TestRequestID: a well-formed forwarded X-Request-Id is echoed on
// the response and stamped into error bodies; absent or malformed
// ids are replaced with a freshly minted one.
func TestRequestID(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})

	// Forwarded id: echoed verbatim.
	req, _ := http.NewRequest("POST", ts.URL+"/eval", strings.NewReader(`{"expr": "1 + 1"}`))
	req.Header.Set(RequestIDHeader, "router-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "router-abc-123" {
		t.Fatalf("forwarded id not echoed: %q", got)
	}

	// No id: one is minted (32 hex chars), echoed on the response.
	resp, err = http.Post(ts.URL+"/eval", "application/json", strings.NewReader(`{"expr": "1"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); !wire.ValidRequestID(got) || len(got) != 32 {
		t.Fatalf("minted id %q", got)
	}

	// Malformed forwarded id: replaced, not parroted.
	req, _ = http.NewRequest("POST", ts.URL+"/eval", strings.NewReader(`{"expr": "1"}`))
	req.Header.Set(RequestIDHeader, "has spaces and \"quotes\"")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); !wire.ValidRequestID(got) {
		t.Fatalf("malformed id not replaced: %q", got)
	}

	// Error bodies carry the id, so a failure seen through a router
	// names the request it belongs to.
	req, _ = http.NewRequest("POST", ts.URL+"/eval", strings.NewReader(`{"expr": "3 +"}`))
	req.Header.Set(RequestIDHeader, "fail-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var res wire.Result
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Error == nil || res.Error.RequestID != "fail-42" {
		t.Fatalf("error body request id: %+v", res.Error)
	}
}

// TestRetryAfterLoadAware pins the bounds and monotonicity of the
// shed Retry-After hint: >= 1 always, <= 30 under any backlog, and
// growing with queue depth. (An earlier version hardcoded 1, which
// told a thundering herd to come back all at once.)
func TestRetryAfterLoadAware(t *testing.T) {
	s, err := New(Config{Pool: 4, Benches: []string{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("idle retry-after %d, want 1", got)
	}
	// Backlog of 8 on a pool of 4: two pool drains.
	s.inFlight.Store(4)
	s.queued.Store(4)
	if got := s.retryAfterSeconds(); got != 2 {
		t.Fatalf("retry-after %d with backlog 8 / pool 4, want 2", got)
	}
	// Deeper queue, larger hint.
	s.queued.Store(36)
	if got := s.retryAfterSeconds(); got != 10 {
		t.Fatalf("retry-after %d with backlog 40 / pool 4, want 10", got)
	}
	// Absurd backlog: clamped.
	s.queued.Store(1 << 40)
	if got := s.retryAfterSeconds(); got != maxRetryAfterSeconds {
		t.Fatalf("retry-after %d, want clamp at %d", got, maxRetryAfterSeconds)
	}
	s.inFlight.Store(0)
	s.queued.Store(0)

	// End to end: a shed response carries the header.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s2, ts2 := newTestServer(t, Config{Pool: 1, QueueDepth: 1, DefaultDeadline: time.Minute})
	slow := `{"expr": "| s <- 0 | 1 upTo: 3000000 Do: [ :i | s: s + 1 ]. s"}`
	release := make(chan struct{})
	go func() {
		defer close(release)
		postJSON(t, ts2.URL+"/eval", slow)
	}()
	for i := 0; s2.InFlight() == 0 && i < 500; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	shedHeaders := make(chan string, 6)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts2.URL+"/eval", "application/json", strings.NewReader(`{"expr": "1"}`))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				shedHeaders <- resp.Header.Get("Retry-After")
			}
		}()
	}
	wg.Wait()
	close(shedHeaders)
	sawShed := false
	for h := range shedHeaders {
		sawShed = true
		ra, err := strconv.Atoi(h)
		if err != nil || ra < minRetryAfterSeconds || ra > maxRetryAfterSeconds {
			t.Fatalf("shed Retry-After %q out of bounds", h)
		}
	}
	if !sawShed {
		t.Fatal("never saw a 429 from the flooded server")
	}
	<-release
}

// scrapeGauge reads one metric's current value from /metrics text.
func scrapeGauge(t *testing.T, url, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var f float64
			if _, err := fmt.Sscanf(v, "%g", &f); err == nil {
				return f, true
			}
		}
	}
	return 0, false
}

// TestPoolGaugesTrackOccupancy: the pool gauges must read live
// occupancy off the pool channel — while a request holds a worker,
// in-use rises and free drops; idle, they return to 0 and capacity.
// (An earlier version exported the static config value, which never
// moved.)
func TestPoolGaugesTrackOccupancy(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 2})

	if free, ok := scrapeGauge(t, ts.URL, "selfserved_pool_free"); !ok || free != 2 {
		t.Fatalf("idle pool_free = %v (ok=%v), want 2", free, ok)
	}
	if used, ok := scrapeGauge(t, ts.URL, "selfserved_pool_in_use"); !ok || used != 0 {
		t.Fatalf("idle pool_in_use = %v (ok=%v), want 0", used, ok)
	}

	// Park one worker on a slow run and watch the gauges move.
	done := make(chan struct{})
	go func() {
		defer close(done)
		body := `{"expr": "[ true ] whileTrue: [ ]", "deadline_ms": 2000}`
		resp, err := http.Post(ts.URL+"/eval", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	moved := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		used, ok := scrapeGauge(t, ts.URL, "selfserved_pool_in_use")
		free, okF := scrapeGauge(t, ts.URL, "selfserved_pool_free")
		if ok && okF && used >= 1 && used+free == 2 {
			moved = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-done
	if !moved {
		t.Fatal("pool gauges never reflected the in-flight request")
	}

	// Back to idle after the run completes and the worker is released.
	deadline = time.Now().Add(5 * time.Second)
	idle := false
	for time.Now().Before(deadline) {
		used, ok := scrapeGauge(t, ts.URL, "selfserved_pool_in_use")
		if ok && used == 0 {
			idle = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !idle {
		t.Fatal("pool_in_use did not return to 0 after the request finished")
	}
	// The checkout high-water mark survives the return to idle — it is
	// what load drivers assert on when requests are too fast for the
	// live gauge to be caught nonzero.
	if peak, ok := scrapeGauge(t, ts.URL, "selfserved_pool_in_use_peak"); !ok || peak < 1 {
		t.Fatalf("pool_in_use_peak = %v (ok=%v) after load, want >= 1", peak, ok)
	}
}

// TestFrameMetricsPlateau: the frame counters reach /metrics and
// /statusz (the compiler's built/kept node counters /metrics), and a
// warm server allocates no register files — every activation reuses a
// pooled one, so allocs and pool bytes stop moving while reuses keep
// climbing (what a soak asserts over hours).
func TestFrameMetricsPlateau(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	const req = `{"program": "down: n = ( (n = 0) ifTrue: [ 0 ] False: [ 1 + (down: n - 1) ] ).", "expr": "down: 50"}`
	scrape := func() (allocs, reuses, bytes float64) {
		for name, dst := range map[string]*float64{"selfgo_frame_allocs_total": &allocs,
			"selfgo_frame_reuses_total": &reuses, "selfgo_frame_pool_bytes": &bytes} {
			v, ok := scrapeGauge(t, ts.URL, name)
			if !ok {
				t.Fatalf("/metrics has no %s", name)
			}
			*dst = v
		}
		return
	}
	for i := 0; i < 3; i++ {
		if code, res := postJSON(t, ts.URL+"/eval", req); code != http.StatusOK || res.Int != 50 {
			t.Fatalf("status %d: %+v", code, res)
		}
	}
	built, _ := scrapeGauge(t, ts.URL, "selfgo_compile_nodes_built_total")
	if kept, ok := scrapeGauge(t, ts.URL, "selfgo_compile_nodes_kept_total"); !ok || kept <= 0 || built < kept {
		t.Errorf("/metrics counts %v compile nodes built, %v kept (present=%v)", built, kept, ok)
	}
	allocs, reuses, bytes := scrape()
	if allocs < 50 || bytes <= 0 {
		t.Fatalf("50-deep recursion left allocs=%v pool bytes=%v", allocs, bytes)
	}
	for i := 0; i < 5; i++ {
		postJSON(t, ts.URL+"/eval", req)
	}
	allocs2, reuses2, bytes2 := scrape()
	if allocs2 != allocs || bytes2 != bytes || reuses2 < reuses+5*50 {
		t.Errorf("warm requests moved the pool: allocs %v -> %v, bytes %v -> %v, reuses %v -> %v",
			allocs, allocs2, bytes, bytes2, reuses, reuses2)
	}

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var view statuszView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if float64(view.Frames.Allocs) != allocs2 || float64(view.Frames.PoolBytes) != bytes2 || view.Frames.Reuses == 0 {
		t.Errorf("statusz frames %+v disagree with /metrics (allocs %v, bytes %v)", view.Frames, allocs2, bytes2)
	}
}

// discardWriter is a ResponseWriter that allocates nothing itself.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestReplyAllocations pins what building and writing a hot /eval reply
// allocates: the value's text, nothing else. The reply is built on the
// stack, appended into a pooled buffer by the wire codec, and carries a
// tier map shared until a compile moves the tally. It was 17 when
// replies were indented and carried a snapshot of the cache shards,
// and 8 when encoding/json wrote them from a heap Result with a cloned
// tier map. Under the race detector sync.Pool drops a quarter of what
// is put back, which costs half an allocation a reply on average:
// AllocsPerRun's whole-number mean still reads 1.
func TestReplyAllocations(t *testing.T) {
	s, _ := newTestServer(t, Config{Pool: 1})
	res := &selfgo.Result{Value: obj.Int(4951)}
	res.Run.Instrs, res.Run.Cycles = 1234, 5678
	w := &discardWriter{h: http.Header{}}
	if n := testing.AllocsPerRun(200, func() { s.writeResult(w, res, "", nil) }); n > 1 {
		t.Errorf("a reply allocates %.0f times, want at most 1", n)
	}
}
