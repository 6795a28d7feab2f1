// Package router is selfrouter's core: an HTTP front proxy that
// spreads selfserved traffic over N replicas by cache affinity, so
// each replica's code cache, inline caches and tier promotions stay
// warm for the keys it owns.
//
// Why affinity and not load balancing: the whole economy of the
// compile-once architecture (and of the paper's iterative type
// analysis underneath it) is that compiled, customized, promoted code
// is REUSED. A replica that keeps seeing the same programs answers
// from warm cache at the top tier; a replica seeing a random sample of
// everything re-pays compilation and promotion for every key times N
// replicas. So the router hashes an affinity key — the tenant header
// if the client sent one, else the program/expression/benchmark
// identity derived from the body by internal/wire — onto the replica
// set with rendezvous (highest-random-weight) hashing:
//
//   - every key has a stable total order over replicas (its
//     "preference list"), so the same program always lands on the
//     same replica while that replica is healthy;
//   - when a replica leaves (drain, crash) only ITS keys move, each
//     to the next replica in its own preference list — no global
//     reshuffle, every other replica's cache stays intact;
//   - when it returns, its keys snap back.
//
// Replicas are health-gated on their /readyz (a draining selfserved
// flips it 503, see internal/server), and the router does shed-aware
// failover: a 429 (admission shed), 503 (drain raced the health
// poll) or transport error on the first-choice replica is retried
// once on the next replica in the key's preference list. The retry
// is counted per reason in the router's own /metrics; a shed answer
// that survives the retry is returned with the larger Retry-After of
// the two replicas, so clients and upstream load generators back off
// on an honest signal.
package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"selfgo/internal/metrics"
	"selfgo/internal/wire"
)

// Config shapes a Router.
type Config struct {
	// Replicas is the selfserved base URLs ("http://host:port"). At
	// least one is required.
	Replicas []string

	// Policy selects the routing policy: PolicyAffinity (default)
	// rendezvous-hashes the affinity key; PolicyRandom scatters
	// requests over healthy replicas ignoring the key — it exists as
	// the experimental control for the affinity win, not for
	// production use.
	Policy Policy

	// TenantHeader names the header whose value, when present,
	// overrides the body-derived affinity key (default "X-Tenant").
	// Routing whole tenants keeps every key of a tenant on one
	// replica — coarser, but it isolates noisy neighbors.
	TenantHeader string

	// HealthEvery is the /readyz poll interval (default 250ms);
	// HealthTimeout bounds each probe (default 1s).
	HealthEvery   time.Duration
	HealthTimeout time.Duration

	// MaxBody bounds the request bytes the router will buffer for
	// routing and retry (default wire.DefaultMaxBody). Larger bodies
	// are rejected with 413 before any replica sees them.
	MaxBody int64
}

// Policy is the routing policy.
type Policy int

const (
	// PolicyAffinity rendezvous-hashes the affinity key (default).
	PolicyAffinity Policy = iota
	// PolicyRandom ignores the key and scatters load — the control
	// arm of the affinity experiment.
	PolicyRandom
)

func (p Policy) String() string {
	if p == PolicyRandom {
		return "random"
	}
	return "affinity"
}

func (c Config) withDefaults() Config {
	if c.TenantHeader == "" {
		c.TenantHeader = "X-Tenant"
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = 250 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = wire.DefaultMaxBody
	}
	return c
}

// replica is one backend: its gate state and the connections to it.
type replica struct {
	name    string // base URL, also the metrics label
	healthy atomic.Bool
	up      *upstream
}

// Router is the proxy's state. Build with New, serve Handler(), stop
// the health loop with Close.
type Router struct {
	cfg      Config
	reg      *metrics.Registry
	replicas []*replica
	start    time.Time
	stop     chan struct{}
	stopped  chan struct{}
	scatter  atomic.Uint64 // PolicyRandom sequence

	m routerMetrics
}

// New validates the config, marks every replica healthy (the first
// poll corrects optimism within HealthEvery), starts the health loop
// and wires the metrics registry.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: at least one replica is required")
	}
	// The tenant header's name is written on the wire as given.
	if !isToken([]byte(cfg.TenantHeader)) {
		return nil, fmt.Errorf("router: bad tenant header name %q", cfg.TenantHeader)
	}
	seen := map[string]bool{}
	rt := &Router{
		cfg:     cfg,
		reg:     metrics.NewRegistry(),
		start:   time.Now(),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	for _, name := range cfg.Replicas {
		if name == "" || seen[name] {
			return nil, fmt.Errorf("router: empty or duplicate replica %q", name)
		}
		seen[name] = true
		r := &replica{name: name}
		r.healthy.Store(true)
		rt.replicas = append(rt.replicas, r)
	}
	rt.registerMetrics()
	for _, r := range rt.replicas {
		var err error
		if r.up, err = newUpstream(r.name, cfg.MaxBody, rt.m.dials.With(r.name)); err != nil {
			return nil, fmt.Errorf("router: replica %q: %v", r.name, err)
		}
	}
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop and closes the connections to every
// replica.
func (rt *Router) Close() {
	close(rt.stop)
	<-rt.stopped
	for _, r := range rt.replicas {
		r.up.closeIdle(true)
	}
}

// Registry exposes the router's metrics registry.
func (rt *Router) Registry() *metrics.Registry { return rt.reg }

// healthLoop polls every replica's /readyz on the configured cadence.
// A replica is in the ring iff its latest probe answered 200.
func (rt *Router) healthLoop() {
	defer close(rt.stopped)
	tick := time.NewTicker(rt.cfg.HealthEvery)
	defer tick.Stop()
	rt.probeAll() // correct the optimistic start immediately
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	for _, r := range rt.replicas {
		healthy := rt.probe(r)
		if healthy != r.healthy.Swap(healthy) {
			if healthy {
				rt.m.transitions.With(r.name, "up").Inc()
			} else {
				rt.m.transitions.With(r.name, "down").Inc()
			}
		}
	}
}

// probe asks a replica's /readyz over the same pooled connections the
// proxy path uses, the whole exchange bounded by HealthTimeout.
func (rt *Router) probe(r *replica) bool {
	rq := upstreamRequest{method: "GET", target: "/readyz", deadline: time.Now().Add(rt.cfg.HealthTimeout)}
	var rp reply
	if err := r.up.roundTrip(context.Background(), &rq, &rp); err != nil {
		return false
	}
	rp.release()
	return rp.status == http.StatusOK
}

// markUnhealthy drops a replica from the ring immediately on a
// transport failure, without waiting for the next probe — the probe
// loop will re-admit it when /readyz answers again. Its pooled
// connections go with it: whatever broke one has likely broken all.
func (rt *Router) markUnhealthy(r *replica) {
	if r.healthy.Swap(false) {
		rt.m.transitions.With(r.name, "down").Inc()
	}
	r.up.closeIdle(false)
}

// healthySnapshot returns the replicas currently in the ring.
func (rt *Router) healthySnapshot() []*replica {
	out := make([]*replica, 0, len(rt.replicas))
	for _, r := range rt.replicas {
		if r.healthy.Load() {
			out = append(out, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Rendezvous hashing

// FNV-1a, 64 bit: the constants of hash/fnv, inlined so that ranking
// allocates no hasher.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// score is the rendezvous weight of (key, replica): a 64-bit FNV-1a
// over the key and the replica name, separated so "ab"+"c" and
// "a"+"bc" cannot collide. Deterministic across processes and
// restarts — the ranking is a pure function of the strings. keyHash is
// the hash of the key alone, which every replica's score starts from.
func score(keyHash uint64, replicaName string) uint64 {
	return fnvString((keyHash^0xff)*fnvPrime, replicaName)
}

// rank orders the given replicas by descending rendezvous score for
// key: rank(...)[0] is the key's home, [1] the first failover target,
// and so on. Ties (vanishingly rare) break on name for determinism.
func rank(key string, replicas []*replica) []*replica {
	ranked := append([]*replica(nil), replicas...)
	rankInPlace(key, ranked)
	return ranked
}

// rankInPlace is rank over a slice the caller owns. Each replica is
// scored once; rings are a handful of replicas, so an insertion sort
// beside a stack array of scores beats sort.Slice and allocates nothing.
func rankInPlace(key string, replicas []*replica) {
	var stack [16]uint64
	scores := stack[:0]
	keyHash := fnvString(fnvOffset, key)
	for i, r := range replicas {
		sc := score(keyHash, r.name)
		scores = append(scores, sc)
		j := i
		for ; j > 0 && (scores[j-1] < sc || (scores[j-1] == sc && replicas[j-1].name > r.name)); j-- {
			scores[j], replicas[j] = scores[j-1], replicas[j-1]
		}
		scores[j], replicas[j] = sc, r
	}
}

// preference computes the routing order for one request: the key's
// rendezvous ranking over healthy replicas, or a scattered order
// under PolicyRandom (the experiment's control arm — successive
// requests cycle pseudo-randomly over the ring, so every key visits
// every replica).
func (rt *Router) preference(key string) []*replica {
	healthy := rt.healthySnapshot()
	if len(healthy) <= 1 {
		return healthy // nothing to choose between
	}
	if rt.cfg.Policy == PolicyRandom {
		// A splitmix-style scramble of a sequence counter: uniform,
		// cheap, and deliberately ignoring the key.
		seq := rt.scatter.Add(1) * 0x9e3779b97f4a7c15
		seq ^= seq >> 31
		start := int(seq % uint64(len(healthy)))
		out := make([]*replica, 0, len(healthy))
		for i := 0; i < len(healthy); i++ {
			out = append(out, healthy[(start+i)%len(healthy)])
		}
		return out
	}
	rankInPlace(key, healthy)
	return healthy
}

// affinityKey derives the routing key: tenant header first (coarse,
// isolates tenants), else the body's program identity via wire, else
// a raw-bytes hash.
func (rt *Router) affinityKey(tenant, endpoint string, body []byte) (key, source string) {
	if tenant != "" {
		return "tenant:" + tenant, "tenant"
	}
	if key, ok := wire.AffinityKey(endpoint, body); ok {
		return key, "body"
	}
	return wire.RawAffinityKey(body), "raw"
}

// ---------------------------------------------------------------------
// Proxy path

// Handler returns the router's HTTP surface: the two serving
// endpoints proxied by affinity, plus the router's own observability.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /eval", rt.proxy("/eval"))
	mux.Handle("POST /run", rt.proxy("/run"))
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /statusz", rt.handleStatusz)
	return mux
}

// failover reasons (the label values of selfrouter_failovers_total).
const (
	reasonShed      = "shed"      // 429: replica's admission queue full
	reasonDraining  = "draining"  // 503: replica draining, health poll hadn't caught it yet
	reasonTransport = "transport" // connection refused/reset mid-request
)

// proxy builds the handler for one routed endpoint.
func (rt *Router) proxy(endpoint string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := rt.route(w, r, endpoint)
		rt.m.requests.With(endpoint, strconv.Itoa(code)).Inc()
		rt.m.latency.With(endpoint).Observe(time.Since(start).Seconds())
	})
}

// statusClientClosedRequest is the (nginx-convention) status counted
// when the client went away before an answer existed. It never reaches
// the client; it keeps the router's metrics honest about why nothing
// was relayed, and keeps a hang-up from being blamed on the replica.
const statusClientClosedRequest = 499

// route is the proxy path: buffer the body, derive the key, walk the
// key's preference list with at most one failover, relay the answer.
// Returns the status sent to the client.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, endpoint string) int {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	var body []byte
	err := wire.ErrTooLarge // a declared size over the limit is not worth reading
	if r.ContentLength <= rt.cfg.MaxBody {
		body, err = wire.ReadBody(r.Body, *buf, r.ContentLength, rt.cfg.MaxBody)
		*buf = body
	}
	if err == wire.ErrTooLarge {
		return rt.fail(w, r, http.StatusRequestEntityTooLarge, "request",
			fmt.Sprintf("body exceeds %d bytes", rt.cfg.MaxBody))
	}
	if err != nil {
		return rt.fail(w, r, http.StatusBadRequest, "request", fmt.Sprintf("reading body: %v", err))
	}

	// One id per client request, forwarded to every attempt, echoed on
	// the answer: the replica's logs and the client see the same id.
	rid := r.Header.Get(wire.RequestIDHeader)
	if !wire.ValidRequestID(rid) {
		rid = wire.NewRequestID()
	}
	w.Header().Set(wire.RequestIDHeader, rid)

	// The tenant travels upstream verbatim, so it is checked here: a
	// value that could end its header line must reach no replica.
	tenant := r.Header.Get(rt.cfg.TenantHeader)
	if !validHeaderValue(tenant) {
		return rt.fail(w, r, http.StatusBadRequest, "request",
			fmt.Sprintf("%s carries a control character", rt.cfg.TenantHeader))
	}

	key, source := rt.affinityKey(tenant, endpoint, body)
	rt.m.keys.With(source).Inc()

	prefs := rt.preference(key)
	if len(prefs) == 0 {
		rt.m.noReplica.Inc()
		return rt.fail(w, r, http.StatusServiceUnavailable, "no_replica", "no healthy replica")
	}
	if len(prefs) > 2 {
		prefs = prefs[:2] // home + one failover: bounded work under overload
	}

	rq := upstreamRequest{method: "POST", target: endpoint, rid: rid,
		tenantHeader: rt.cfg.TenantHeader, tenant: tenant, body: body}
	// shed is the 429 with the larger Retry-After, kept for the final
	// relay: when the failover then fails (transport or draining), the
	// home's "busy, retry after N" is the truer answer than a 502/503.
	var shed reply
	defer shed.release()
	for i, rep := range prefs {
		var rp reply
		if err := rep.up.roundTrip(r.Context(), &rq, &rp); err != nil {
			if r.Context().Err() != nil {
				return statusClientClosedRequest // nobody to answer, and not the replica's fault
			}
			rt.markUnhealthy(rep)
			if i+1 < len(prefs) {
				rt.m.failovers.With(reasonTransport).Inc()
				continue
			}
			if shed.buf != nil {
				return relay(w, &shed)
			}
			return rt.fail(w, r, http.StatusBadGateway, "transport",
				fmt.Sprintf("replica %s: %v", rep.name, err))
		}
		switch rp.status {
		case http.StatusTooManyRequests:
			// Shed-aware failover: the replica told us its queue is
			// full; the next replica in the preference list may have
			// room. Honor the Retry-After either way — if the retry
			// also sheds, the client gets the larger of the two hints.
			if shed.buf == nil || rp.retryAfterSeconds() > shed.retryAfterSeconds() {
				shed.release()
				shed = rp
			} else {
				rp.release()
			}
			if i+1 < len(prefs) {
				rt.m.failovers.With(reasonShed).Inc()
				continue
			}
			return relay(w, &shed)
		case http.StatusServiceUnavailable:
			// The replica is draining and the health poll hasn't
			// flipped it yet. Take it out now and fail over.
			rp.release()
			rt.markUnhealthy(rep)
			if i+1 < len(prefs) {
				rt.m.failovers.With(reasonDraining).Inc()
				continue
			}
			if shed.buf != nil {
				return relay(w, &shed)
			}
			return rt.fail(w, r, http.StatusServiceUnavailable, "draining",
				fmt.Sprintf("replica %s is draining", rep.name))
		}
		rt.m.routed.With(rep.name).Inc()
		code := relay(w, &rp)
		rp.release()
		return code
	}
	// Unreachable: the loop always returns on its last iteration.
	return rt.fail(w, r, http.StatusInternalServerError, "internal", "routing fell through")
}

// relay writes a replica's answer to the client: status, the headers
// that matter (content type, Retry-After), and the body — already whole
// in memory, so it goes out under its true Content-Length.
func relay(w http.ResponseWriter, rp *reply) int {
	h := w.Header()
	switch rp.contentType {
	case "":
	case "application/json":
		wire.SetJSONContentType(h)
	default:
		h.Set("Content-Type", rp.contentType)
	}
	if rp.retryAfter != "" {
		h.Set("Retry-After", rp.retryAfter)
	}
	h.Set("Content-Length", strconv.Itoa(len(rp.body)))
	w.WriteHeader(rp.status)
	_, _ = w.Write(rp.body) // a failed write means the client left; there is no one to tell
	return rp.status
}

// fail answers a router-level error in the wire error encoding, so
// clients see one vocabulary whether the failure happened here or on
// a replica.
func (rt *Router) fail(w http.ResponseWriter, r *http.Request, status int, kind, msg string) int {
	rid := w.Header().Get(wire.RequestIDHeader)
	wire.WriteJSON(w, status, &wire.Result{Error: &wire.ErrorJSON{Kind: kind, Message: msg, RequestID: rid}})
	return status
}

// ---------------------------------------------------------------------
// Observability endpoints

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.reg.WriteText(w)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz: the router is ready iff it can route somewhere.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(rt.healthySnapshot()) == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no healthy replica")
		return
	}
	fmt.Fprintln(w, "ready")
}

// statuszView is the human-readable JSON snapshot of the router.
type statuszView struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Policy        string          `json:"policy"`
	TenantHeader  string          `json:"tenant_header"`
	Replicas      []replicaStatus `json:"replicas"`
}

type replicaStatus struct {
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
	Routed  int64  `json:"routed"`
}

func (rt *Router) handleStatusz(w http.ResponseWriter, r *http.Request) {
	view := &statuszView{
		UptimeSeconds: time.Since(rt.start).Seconds(),
		Policy:        rt.cfg.Policy.String(),
		TenantHeader:  rt.cfg.TenantHeader,
	}
	for _, rep := range rt.replicas {
		view.Replicas = append(view.Replicas, replicaStatus{
			Name:    rep.name,
			Healthy: rep.healthy.Load(),
			Routed:  rt.m.routed.With(rep.name).Value(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(view)
}
