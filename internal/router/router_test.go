package router

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"selfgo/internal/server"
	"selfgo/internal/wire"
)

// ---------------------------------------------------------------------
// Rendezvous properties

func mkReplicas(names ...string) []*replica {
	out := make([]*replica, len(names))
	for i, n := range names {
		out[i] = &replica{name: n}
		out[i].healthy.Store(true)
	}
	return out
}

// TestRendezvousStable: ranking is a pure function of the strings —
// same key, same order, every time — and keys spread over replicas.
func TestRendezvousStable(t *testing.T) {
	reps := mkReplicas("http://a", "http://b", "http://c")
	owners := map[string]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("eval:key-%d", i)
		r1 := rank(key, reps)
		r2 := rank(key, reps)
		for j := range r1 {
			if r1[j] != r2[j] {
				t.Fatalf("key %s: ranking not deterministic", key)
			}
		}
		owners[r1[0].name]++
	}
	// 300 keys over 3 replicas: each must own a healthy share (the
	// hash would have to be badly broken to give one replica < 50).
	for name, n := range owners {
		if n < 50 {
			t.Errorf("replica %s owns only %d of 300 keys", name, n)
		}
	}
	if len(owners) != 3 {
		t.Fatalf("owners %v", owners)
	}
}

// TestRendezvousMinimalDisruption: removing one replica moves ONLY
// the keys it owned; every other key keeps its home. This is the
// property that makes drain cheap for the fleet's caches.
func TestRendezvousMinimalDisruption(t *testing.T) {
	all := mkReplicas("http://a", "http://b", "http://c")
	without := []*replica{all[0], all[1]} // c removed
	moved, kept := 0, 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("bench:key-%d", i)
		before := rank(key, all)[0]
		after := rank(key, without)[0]
		if before.name == "http://c" {
			moved++
			// Its keys land on their own next preference.
			if want := rank(key, all)[1]; after != want {
				t.Fatalf("key %s: moved to %s, want next-ranked %s", key, after.name, want.name)
			}
		} else {
			kept++
			if after != before {
				t.Fatalf("key %s: home changed %s -> %s though its replica stayed",
					key, before.name, after.name)
			}
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate split moved=%d kept=%d", moved, kept)
	}
}

// ---------------------------------------------------------------------
// Stub-replica harness (deterministic failover behavior)

// stubReplica is a fake selfserved: scripted answers on /eval, a
// togglable /readyz, and a log of the request ids it saw.
type stubReplica struct {
	ts     *httptest.Server
	mu     sync.Mutex
	hits   int
	rids   []string
	answer func(w http.ResponseWriter, r *http.Request)
	ready  bool
}

func newStub(t *testing.T, answer func(w http.ResponseWriter, r *http.Request)) *stubReplica {
	t.Helper()
	s := &stubReplica{answer: answer, ready: true}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		ready := s.ready
		s.mu.Unlock()
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	})
	mux.HandleFunc("/eval", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.hits++
		s.rids = append(s.rids, r.Header.Get(wire.RequestIDHeader))
		s.mu.Unlock()
		s.answer(w, r)
	})
	mux.HandleFunc("/run", mux.ServeHTTP)
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func (s *stubReplica) setReady(ready bool) {
	s.mu.Lock()
	s.ready = ready
	s.mu.Unlock()
}

func (s *stubReplica) hitCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

func ok200(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"value": "7", "int": 7}`)
}

func shed429(retryAfter string) func(w http.ResponseWriter, r *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", retryAfter)
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error": {"kind": "overload", "message": "stub shed"}}`)
	}
}

func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// tenantFor finds a tenant whose preference list ranks `first` ahead
// of the others — the deterministic way to aim a request at one stub.
func tenantFor(t *testing.T, rt *Router, first string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		tenant := fmt.Sprintf("t%d", i)
		if rank("tenant:"+tenant, rt.replicas)[0].name == first {
			return tenant
		}
	}
	t.Fatal("no tenant found ranking the wanted replica first")
	return ""
}

func postTenant(t *testing.T, url, tenant, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/eval", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestFailoverOnShed: the home replica sheds with 429; the router
// retries once on the next-ranked replica and the client sees its
// 200. The failover is counted by reason.
func TestFailoverOnShed(t *testing.T) {
	shedder := newStub(t, shed429("7"))
	healthy := newStub(t, ok200)
	rt, ts := newTestRouter(t, Config{Replicas: []string{shedder.ts.URL, healthy.ts.URL}})

	tenant := tenantFor(t, rt, shedder.ts.URL)
	resp := postTenant(t, ts.URL, tenant, `{"expr": "3 + 4"}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"int": 7`) {
		t.Fatalf("failover answer: %d %s", resp.StatusCode, body)
	}
	if shedder.hitCount() != 1 || healthy.hitCount() != 1 {
		t.Fatalf("hits shedder=%d healthy=%d, want 1/1", shedder.hitCount(), healthy.hitCount())
	}
	if got := rt.m.failovers.With(reasonShed).Value(); got != 1 {
		t.Fatalf("shed failovers %d, want 1", got)
	}
	// The skipped home replica stays in the ring — shedding is load,
	// not sickness.
	if len(rt.healthySnapshot()) != 2 {
		t.Fatal("shed replica dropped from ring")
	}
}

// TestBothShedPropagatesRetryAfter: when home AND failover shed, the
// client gets the 429 with the LARGER Retry-After — the honest
// "whole cluster is busy" signal.
func TestBothShedPropagatesRetryAfter(t *testing.T) {
	a := newStub(t, shed429("7"))
	b := newStub(t, shed429("3"))
	rt, ts := newTestRouter(t, Config{Replicas: []string{a.ts.URL, b.ts.URL}})

	resp := postTenant(t, ts.URL, tenantFor(t, rt, a.ts.URL), `{"expr": "1"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want the larger hint 7", got)
	}
	if got := rt.m.failovers.With(reasonShed).Value(); got != 1 {
		t.Fatalf("shed failovers %d, want 1", got)
	}
}

// TestTransportFailover: a dead replica (connection refused) is
// skipped, dropped from the ring immediately, and the request
// succeeds on the next-ranked one.
func TestTransportFailover(t *testing.T) {
	dead := newStub(t, ok200)
	deadURL := dead.ts.URL
	dead.ts.Close() // kill it: connections now refuse
	alive := newStub(t, ok200)
	rt, ts := newTestRouter(t, Config{
		Replicas:    []string{deadURL, alive.ts.URL},
		HealthEvery: time.Hour, // only the request path may drop it
	})
	// The boot-time probe (async) sees the corpse; wait for it, then
	// resurrect the ring entry to model a replica dying BETWEEN polls.
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.healthySnapshot()) != 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	for _, rep := range rt.replicas {
		rep.healthy.Store(true)
	}

	resp := postTenant(t, ts.URL, tenantFor(t, rt, deadURL), `{"expr": "1"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d, want 200 via failover", resp.StatusCode)
	}
	if got := rt.m.failovers.With(reasonTransport).Value(); got != 1 {
		t.Fatalf("transport failovers %d, want 1", got)
	}
	if len(rt.healthySnapshot()) != 1 {
		t.Fatal("dead replica not dropped from ring")
	}
}

// TestShedSurvivesFailedFailover: the home replica sheds with
// Retry-After 2 and the failover then fails, by a refused connection
// or a 503 from a replica draining before the health poll noticed.
// The client gets the home's 429 and its hint, not the failover's
// 502/503; the failed replica still leaves the ring and the failover
// is counted under its reason.
func TestShedSurvivesFailedFailover(t *testing.T) {
	draining503 := func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error": {"kind": "draining", "message": "stub draining"}}`)
	}
	for _, c := range []struct {
		name   string
		closed bool
		reason string
	}{
		{"closed-listener", true, reasonTransport},
		{"draining", false, reasonDraining},
	} {
		t.Run(c.name, func(t *testing.T) {
			home := newStub(t, shed429("2"))
			second := newStub(t, draining503)
			secondURL := second.ts.URL
			if c.closed {
				second.ts.Close()
			}
			rt, ts := newTestRouter(t, Config{
				Replicas:    []string{home.ts.URL, secondURL},
				HealthEvery: time.Hour, // only the request path may drop it
			})
			// Let the boot-time probes land, then model the second
			// replica failing between polls.
			settled(t, rt.replicas[0])
			if c.closed {
				deadline := time.Now().Add(5 * time.Second)
				for len(rt.healthySnapshot()) != 1 && time.Now().Before(deadline) {
					time.Sleep(2 * time.Millisecond)
				}
				rt.replicas[1].healthy.Store(true)
			} else {
				settled(t, rt.replicas[1])
			}

			resp := postTenant(t, ts.URL, tenantFor(t, rt, home.ts.URL), `{"expr": "1"}`)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status %d %s, want the home's 429", resp.StatusCode, body)
			}
			if got := resp.Header.Get("Retry-After"); got != "2" {
				t.Fatalf("Retry-After %q, want the home's 2", got)
			}
			if !strings.Contains(string(body), "stub shed") {
				t.Fatalf("body %s, want the home's shed reply", body)
			}
			if got := rt.m.failovers.With(reasonShed).Value(); got != 1 {
				t.Fatalf("shed failovers %d, want 1", got)
			}
			if got := rt.m.failovers.With(c.reason).Value(); got != 0 {
				t.Fatalf("%s failovers %d, want 0 (the failed replica was the last try)", c.reason, got)
			}
			if h := rt.healthySnapshot(); len(h) != 1 || h[0].name != home.ts.URL {
				t.Fatal("the failed failover replica was not dropped from the ring")
			}
		})
	}
}

// TestHealthGate: a replica whose /readyz flips 503 leaves the ring
// within a poll interval and traffic avoids it; when it recovers, its
// keys come home.
func TestHealthGate(t *testing.T) {
	a := newStub(t, ok200)
	b := newStub(t, ok200)
	rt, ts := newTestRouter(t, Config{
		Replicas:    []string{a.ts.URL, b.ts.URL},
		HealthEvery: 10 * time.Millisecond,
	})
	tenant := tenantFor(t, rt, a.ts.URL)

	a.setReady(false)
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.healthySnapshot()) != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(rt.healthySnapshot()) != 1 {
		t.Fatal("unready replica never left the ring")
	}
	before := a.hitCount()
	resp := postTenant(t, ts.URL, tenant, `{"expr": "1"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d with one healthy replica", resp.StatusCode)
	}
	if a.hitCount() != before {
		t.Fatal("gated replica still saw traffic")
	}

	a.setReady(true)
	deadline = time.Now().Add(5 * time.Second)
	for len(rt.healthySnapshot()) != 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	resp = postTenant(t, ts.URL, tenant, `{"expr": "1"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if a.hitCount() != before+1 {
		t.Fatal("recovered replica did not get its key back")
	}
}

// TestNoHealthyReplica: everything down — clients get 503 in the wire
// error encoding and the router's own readiness flips.
func TestNoHealthyReplica(t *testing.T) {
	a := newStub(t, ok200)
	rt, ts := newTestRouter(t, Config{Replicas: []string{a.ts.URL}, HealthEvery: 10 * time.Millisecond})
	a.setReady(false)
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.healthySnapshot()) != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	resp := postTenant(t, ts.URL, "", `{"expr": "1"}`)
	var res wire.Result
	err := json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || err != nil || res.Error == nil {
		t.Fatalf("no-replica answer: %d %v %+v", resp.StatusCode, err, res.Error)
	}
	if rt.m.noReplica.Value() != 1 {
		t.Fatalf("no_replica counter %d", rt.m.noReplica.Value())
	}
	r2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router readyz %d with empty ring", r2.StatusCode)
	}
}

// TestRequestIDThroughRouter: a client id is forwarded to the replica
// and echoed back; absent one, the router mints an id and both sides
// see the same value.
func TestRequestIDThroughRouter(t *testing.T) {
	stub := newStub(t, ok200)
	_, ts := newTestRouter(t, Config{Replicas: []string{stub.ts.URL}})

	req, _ := http.NewRequest("POST", ts.URL+"/eval", strings.NewReader(`{"expr": "1"}`))
	req.Header.Set(wire.RequestIDHeader, "client-rid-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(wire.RequestIDHeader); got != "client-rid-1" {
		t.Fatalf("echoed id %q", got)
	}

	resp2 := postTenant(t, ts.URL, "", `{"expr": "1"}`)
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	minted := resp2.Header.Get(wire.RequestIDHeader)
	if !wire.ValidRequestID(minted) {
		t.Fatalf("minted id %q", minted)
	}

	stub.mu.Lock()
	rids := append([]string(nil), stub.rids...)
	stub.mu.Unlock()
	if len(rids) != 2 || rids[0] != "client-rid-1" || rids[1] != minted {
		t.Fatalf("replica saw ids %v, want [client-rid-1 %s]", rids, minted)
	}
}

// ---------------------------------------------------------------------
// Real-replica tests: affinity, scatter, drain

// newCluster boots n real selfserved cores (each its own world and
// code cache, like separate processes) behind a router.
func newCluster(t *testing.T, n int, pol Policy, cfg server.Config) ([]*server.Server, *Router, *httptest.Server) {
	t.Helper()
	if cfg.Benches == nil {
		cfg.Benches = []string{}
	}
	var servers []*server.Server
	var urls []string
	for i := 0; i < n; i++ {
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, s)
		urls = append(urls, ts.URL)
	}
	rt, front := newTestRouter(t, Config{
		Replicas:    urls,
		Policy:      pol,
		HealthEvery: 20 * time.Millisecond,
	})
	return servers, rt, front
}

// evalBodies builds k distinct eval bodies (distinct affinity keys).
func evalBodies(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf(`{"expr": "%d + %d"}`, 100+i, i)
	}
	return out
}

// TestAffinityCompileOnce is the tentpole's acceptance criterion in
// miniature: K distinct programs, repeated, through a 3-replica
// cluster — every program must intern (and compile) on EXACTLY one
// replica, so the fleet pays K compiles, not 3K.
func TestAffinityCompileOnce(t *testing.T) {
	servers, rt, front := newCluster(t, 3, PolicyAffinity, server.Config{Pool: 2})
	const K = 12
	bodies := evalBodies(K)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, body := range bodies {
					resp := postTenant(t, front.URL, "", body)
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("worker %d body %d: status %d %s", w, i, resp.StatusCode, b)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	total, replicasUsed := 0, 0
	for i, s := range servers {
		n := s.InternedExprs()
		total += n
		if n > 0 {
			replicasUsed++
		}
		t.Logf("replica %d interned %d exprs", i, n)
	}
	if total != K {
		t.Fatalf("fleet interned %d distinct exprs for %d keys — affinity must pin each to one replica", total, K)
	}
	if replicasUsed < 2 {
		t.Fatalf("all keys landed on %d replica(s) — rendezvous not spreading", replicasUsed)
	}
	// No failovers happened, so routed splits exactly along ownership.
	var routedTotal int64
	for _, s := range rt.replicas {
		routedTotal += rt.m.routed.With(s.name).Value()
	}
	if want := int64(4 * 3 * K); routedTotal != want {
		t.Fatalf("routed %d, want %d", routedTotal, want)
	}
}

// TestRandomPolicyScattersCompiles is the control arm: the same trace
// under PolicyRandom compiles each program on (almost surely) more
// than one replica — the redundant work affinity routing exists to
// avoid. Against TestAffinityCompileOnce's exactly K, the >= 2K bound
// is the measured contrast (12 vs at least 24) that justifies
// affinity routing.
func TestRandomPolicyScattersCompiles(t *testing.T) {
	servers, _, front := newCluster(t, 3, PolicyRandom, server.Config{Pool: 2})
	const K = 12
	bodies := evalBodies(K)
	for rep := 0; rep < 6; rep++ {
		for _, body := range bodies {
			resp := postTenant(t, front.URL, "", body)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("status %d", resp.StatusCode)
			}
		}
	}
	total := 0
	for _, s := range servers {
		total += s.InternedExprs()
	}
	if total < 2*K {
		t.Fatalf("random routing interned %d exprs for %d keys, want >= %d (scatter)", total, K, 2*K)
	}
}

// TestTenantOverridesBodyKey: with a tenant header, two DIFFERENT
// programs from one tenant land on one replica — tenant isolation is
// coarser than program affinity.
func TestTenantOverridesBodyKey(t *testing.T) {
	servers, _, front := newCluster(t, 3, PolicyAffinity, server.Config{Pool: 2})
	bodies := evalBodies(8)
	for _, body := range bodies {
		resp := postTenant(t, front.URL, "acme-corp", body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	used := 0
	for _, s := range servers {
		if s.InternedExprs() > 0 {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("tenant's programs spread over %d replicas, want 1", used)
	}
}

// TestDrainUnderRouter: the satellite's scenario. A replica serving
// live traffic starts a SIGTERM-style drain: its /readyz flips, the
// health poll drops it from the ring, its keys fail over, in-flight
// requests finish — and the client behind the router observes ZERO
// failed responses throughout.
func TestDrainUnderRouter(t *testing.T) {
	servers, rt, front := newCluster(t, 3, PolicyAffinity,
		server.Config{Pool: 2, DefaultDeadline: time.Minute})
	const K = 9
	bodies := evalBodies(K)

	// Park a slow request on whichever replica owns its key, so the
	// drain provably overlaps an in-flight run.
	slowDone := make(chan int, 1)
	go func() {
		resp := postTenant(t, front.URL, "",
			`{"expr": "| s <- 0 | 1 upTo: 3000000 Do: [ :i | s: s + 1 ]. s"}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		slowDone <- resp.StatusCode
	}()
	var victim *server.Server
	deadline := time.Now().Add(10 * time.Second)
	for victim == nil && time.Now().Before(deadline) {
		for _, s := range servers {
			if s.InFlight() > 0 {
				victim = s
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if victim == nil {
		t.Fatal("slow request never showed up in flight")
	}

	// Steady traffic through the drain, all statuses recorded.
	var mu sync.Mutex
	statuses := map[int]int{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp := postTenant(t, front.URL, "", bodies[(w+i)%K])
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond) // traffic flowing
	victim.Drain()                    // what SIGTERM does in cmd/selfserved

	// The ring must drop the draining replica.
	deadline = time.Now().Add(5 * time.Second)
	for len(rt.healthySnapshot()) != 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(rt.healthySnapshot()); got != 2 {
		t.Fatalf("ring has %d replicas after drain, want 2", got)
	}
	time.Sleep(100 * time.Millisecond) // keep load on the shrunken ring
	close(stop)
	wg.Wait()

	// The in-flight request on the drained replica finished fine.
	if code := <-slowDone; code != 200 {
		t.Fatalf("in-flight request during drain answered %d", code)
	}
	// Zero failed responses at the router: every request answered 200.
	mu.Lock()
	defer mu.Unlock()
	if statuses[200] == 0 {
		t.Fatal("no traffic observed")
	}
	for code, n := range statuses {
		if code != 200 {
			t.Errorf("%d responses with status %d during drain, want none", n, code)
		}
	}
}

// TestStatuszAndMetricsExposition: the router's own observability
// surface carries the ring and the routing counters.
func TestStatuszAndMetricsExposition(t *testing.T) {
	stub := newStub(t, ok200)
	_, ts := newTestRouter(t, Config{Replicas: []string{stub.ts.URL}})
	resp := postTenant(t, ts.URL, "", `{"expr": "1"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	r2, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var view statuszView
	err = json.NewDecoder(r2.Body).Decode(&view)
	r2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if view.Policy != "affinity" || len(view.Replicas) != 1 ||
		!view.Replicas[0].Healthy || view.Replicas[0].Routed != 1 {
		t.Fatalf("statusz %+v", view)
	}

	r3, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(r3.Body)
	r3.Body.Close()
	for _, want := range []string{
		`selfrouter_requests_total{endpoint="/eval",code="200"} 1`,
		`selfrouter_routed_total{replica="` + stub.ts.URL + `"} 1`,
		`selfrouter_failovers_total{reason="shed"} 0`,
		"selfrouter_replicas_healthy 1",
		`selfrouter_affinity_keys_total{source="body"} 1`,
		`selfrouter_upstream_dials_total{replica="` + stub.ts.URL + `"} `,
		`selfrouter_upstream_idle_conns{replica="` + stub.ts.URL + `"} `,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestStatuszBootProvenance: the router's /statusz says how long the
// router has been up and which header names the tenant (the ring and
// policy are TestStatuszAndMetricsExposition's).
func TestStatuszBootProvenance(t *testing.T) {
	a := newStub(t, ok200)
	_, ts := newTestRouter(t, Config{Replicas: []string{a.ts.URL}})
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view statuszView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.UptimeSeconds <= 0 {
		t.Fatalf("router uptime_seconds %v, want > 0", view.UptimeSeconds)
	}
	if view.TenantHeader != "X-Tenant" {
		t.Fatalf("router tenant_header %q, want the default X-Tenant", view.TenantHeader)
	}
}

// ---------------------------------------------------------------------
// The upstream client: failure framing, outside input, connection lifecycle

// TestScoreIsFNV1a pins the inlined hash to hash/fnv: the ranking is a
// contract with running fleets (a changed score reshuffles every key).
func TestScoreIsFNV1a(t *testing.T) {
	for _, c := range [][2]string{{"", ""}, {"eval:abc", "http://a"}, {"tenant:t1", "http://127.0.0.1:8701"}} {
		h := fnv.New64a()
		io.WriteString(h, c[0])
		h.Write([]byte{0xff})
		io.WriteString(h, c[1])
		if got := score(fnvString(fnvOffset, c[0]), c[1]); got != h.Sum64() {
			t.Errorf("score(%q, %q) = %x, hash/fnv says %x", c[0], c[1], got, h.Sum64())
		}
	}
}

// TestNewRefusesWhatItCannotSpeak: the upstream client speaks plain
// HTTP to a host and port, and writes the tenant header's name as given.
func TestNewRefusesWhatItCannotSpeak(t *testing.T) {
	for _, cfg := range []Config{
		{Replicas: []string{"https://127.0.0.1:1"}},
		{Replicas: []string{"http://127.0.0.1:1/prefix"}},
		{Replicas: []string{"127.0.0.1:1"}},
		{Replicas: []string{"http://127.0.0.1:1"}, TenantHeader: "X Tenant"},
	} {
		if rt, err := New(cfg); err == nil {
			rt.Close()
			t.Errorf("New(%+v) succeeded", cfg)
		}
	}
}

// rawReplica is a replica at the socket level: /readyz is answered
// properly, every other request is handed to script with the
// connection, to answer as badly as the test needs.
func rawReplica(t *testing.T, script func(c net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body)
					if req.URL.Path == "/readyz" {
						io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
						continue
					}
					script(c)
					return
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestTruncatedReplyIsTransportFailure: a replica that dies mid-reply
// (500 bytes declared, 100 sent) is a transport failure — failed over
// when there is somewhere to go, 502 when there is not. Streaming the
// reply through, as the router once did, answered 200 with 100 bytes.
func TestTruncatedReplyIsTransportFailure(t *testing.T) {
	dying := rawReplica(t, func(c net.Conn) {
		io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 500\r\n\r\n"+
			strings.Repeat("x", 100))
	})
	alive := newStub(t, ok200)

	rt, ts := newTestRouter(t, Config{Replicas: []string{dying, alive.ts.URL}, HealthEvery: time.Hour})
	resp := postTenant(t, ts.URL, tenantFor(t, rt, dying), `{"expr": "3 + 4"}`)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || !strings.Contains(string(body), `"int": 7`) {
		t.Fatalf("with a healthy second replica: %d %q %v", resp.StatusCode, body, err)
	}
	if got := rt.m.failovers.With(reasonTransport).Value(); got != 1 {
		t.Fatalf("transport failovers %d, want 1", got)
	}

	_, ts = newTestRouter(t, Config{Replicas: []string{dying}, HealthEvery: time.Hour})
	resp = postTenant(t, ts.URL, "", `{"expr": "3 + 4"}`)
	var res wire.Result
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || err != nil || res.Error == nil || res.Error.Kind != "transport" {
		t.Fatalf("with nowhere to go: %d %v %+v", resp.StatusCode, err, res.Error)
	}
}

// TestForwardedHeaderInjectionRefused: the tenant value is written
// upstream verbatim, so one that could end its header line is answered
// 400 before any replica is contacted. (A net/http listener refuses
// such a value itself; the handler must not depend on its caller.)
func TestForwardedHeaderInjectionRefused(t *testing.T) {
	stub := newStub(t, ok200)
	rt, _ := newTestRouter(t, Config{Replicas: []string{stub.ts.URL}})
	for _, tenant := range []string{"a\rX-Evil: 1", "a\r\nX-Evil: 1", "a\nb", "a\x00b"} {
		req := httptest.NewRequest("POST", "/eval", strings.NewReader(`{"expr": "1"}`))
		req.Header["X-Tenant"] = []string{tenant}
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("tenant %q: status %d, want 400", tenant, w.Code)
		}
	}
	if n := stub.hitCount(); n != 0 {
		t.Fatalf("%d forged requests reached the replica", n)
	}
}

// settled waits for the boot-time probe to finish, so that a test can
// count dials from a quiet pool: one connection dialled, and idle.
func settled(t *testing.T, rep *replica) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !(rep.up.dials.Value() == 1 && rep.up.idleConns() == 1) {
		if time.Now().After(deadline) {
			t.Fatalf("pool never settled: %d dials, %d idle", rep.up.dials.Value(), rep.up.idleConns())
		}
		time.Sleep(time.Millisecond)
	}
}

func mustPost200(t *testing.T, url string) {
	t.Helper()
	resp := postTenant(t, url, "", `{"expr": "1"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status %d, want 200", resp.StatusCode)
	}
}

func noFailovers(t *testing.T, rt *Router) {
	t.Helper()
	for _, reason := range []string{reasonShed, reasonDraining, reasonTransport} {
		if n := rt.m.failovers.With(reason).Value(); n != 0 {
			t.Errorf("%d %s failovers, want none", n, reason)
		}
	}
	if got := len(rt.healthySnapshot()); got != len(rt.replicas) {
		t.Errorf("%d of %d replicas healthy", got, len(rt.replicas))
	}
}

// TestReplicaWithoutKeepAlives: a replica that closes every connection
// after answering says so (Connection: close); the router believes it,
// dials each time, and nothing about that is a failure.
func TestReplicaWithoutKeepAlives(t *testing.T) {
	stub := newStub(t, ok200)
	stub.ts.Config.SetKeepAlivesEnabled(false)
	rt, ts := newTestRouter(t, Config{Replicas: []string{stub.ts.URL}, HealthEvery: time.Hour})
	for i := 0; i < 200; i++ {
		mustPost200(t, ts.URL)
	}
	noFailovers(t, rt)
	if n := stub.hitCount(); n != 200 {
		t.Errorf("replica saw %d requests, want 200", n)
	}
	if idle := rt.replicas[0].up.idleConns(); idle != 0 {
		t.Errorf("%d connections pooled though the replica closes each", idle)
	}
}

// TestStaleConnectionRedialled: a replica that drops idle connections
// costs one redial per stale connection, on the same replica, and none
// of it counts as a failover or against the replica's health.
func TestStaleConnectionRedialled(t *testing.T) {
	stub := newStub(t, ok200)
	rt, ts := newTestRouter(t, Config{Replicas: []string{stub.ts.URL}, HealthEvery: time.Hour})
	rep := rt.replicas[0]
	settled(t, rep)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		stub.ts.CloseClientConnections() // the pooled connection is now dead, and the router cannot know
		mustPost200(t, ts.URL)
	}
	noFailovers(t, rt)
	if got := rep.up.dials.Value(); got != 1+rounds {
		t.Errorf("%d dials, want %d: one per stale connection", got, 1+rounds)
	}
	if n := stub.hitCount(); n != rounds {
		t.Errorf("replica saw %d requests, want %d", n, rounds)
	}
}

// TestPoolBounded: as many closed-loop clients as the pool holds never
// dial more connections than there are clients, and a burst beyond the
// cap leaves no more than the cap behind.
func TestPoolBounded(t *testing.T) {
	stub := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond) // hold the connection, so the clients overlap
		ok200(w, r)
	})
	rt, _ := newTestRouter(t, Config{Replicas: []string{stub.ts.URL}, HealthEvery: time.Hour})
	rep := rt.replicas[0]
	settled(t, rep)
	h := rt.Handler()
	burst := func(clients, each int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest("POST", "/eval", strings.NewReader(`{"expr": "1"}`)))
					if w.Code != 200 {
						t.Errorf("status %d, want 200", w.Code)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	burst(64, 20)
	if got := rep.up.dials.Value(); got > 64 {
		t.Errorf("64 clients caused %d dials", got)
	}
	burst(2*maxIdleConns, 2)
	if idle := rep.up.idleConns(); idle > maxIdleConns {
		t.Errorf("%d idle connections, cap is %d", idle, maxIdleConns)
	}
	noFailovers(t, rt)
}

// TestNewCloseLeavesNoDescriptors: a router that is built, used and
// closed gives back every descriptor (the benchmark does this 20+ times
// per process, a test binary hundreds of times).
func TestNewCloseLeavesNoDescriptors(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	stub := newStub(t, ok200)
	before := openFDs()
	for i := 0; i < 200; i++ {
		rt, err := New(Config{Replicas: []string{stub.ts.URL}, HealthEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/eval", strings.NewReader(`{"expr": "1"}`)))
		if w.Code != 200 {
			t.Fatalf("cycle %d: status %d", i, w.Code)
		}
		rt.Close()
	}
	// The stub's ends close when it reads our FIN: give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for openFDs() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := openFDs(); after > before {
		t.Fatalf("%d descriptors open after 200 New/Close cycles, %d before", after, before)
	}
}

// TestClientHangupCancelsReplicaRun: a client that leaves during a long
// run takes the upstream connection with it, so the replica aborts the
// guest (and counts a 499) instead of finishing work nobody wants; the
// router blames neither the replica nor the transport.
func TestClientHangupCancelsReplicaRun(t *testing.T) {
	servers, rt, front := newCluster(t, 1, PolicyAffinity, server.Config{Pool: 1, DefaultDeadline: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", front.URL+"/eval",
		strings.NewReader(`{"expr": "| s <- 0 | 1 upTo: 500000000 Do: [ :i | s: s + 1 ]. s"}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for servers[0].InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the run never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request returned an answer")
	}
	scrape := func() string {
		var b strings.Builder
		servers[0].Registry().WriteText(&b)
		return b.String()
	}
	const want = `selfserved_requests_total{endpoint="eval",code="499"} 1`
	for !strings.Contains(scrape(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("replica never counted the 499:\n%s", scrape())
		}
		time.Sleep(2 * time.Millisecond)
	}
	for rt.m.requests.With("/eval", "499").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("router never counted the hang-up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	noFailovers(t, rt)
}

// TestBodyOverMaxBody: a request body over the limit is answered 413
// whether its size was declared or not, and reaches no replica.
func TestBodyOverMaxBody(t *testing.T) {
	stub := newStub(t, ok200)
	rt, _ := newTestRouter(t, Config{Replicas: []string{stub.ts.URL}, MaxBody: 64})
	for _, declared := range []bool{true, false} {
		req := httptest.NewRequest("POST", "/eval", strings.NewReader(`{"expr": "`+strings.Repeat("1 + ", 20)+`1"}`))
		if !declared {
			req.ContentLength = -1
		}
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("declared=%v: status %d, want 413", declared, w.Code)
		}
	}
	if n := stub.hitCount(); n != 0 {
		t.Fatalf("%d oversized requests reached the replica", n)
	}
}
