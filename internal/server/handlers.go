package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"selfgo"
	"selfgo/internal/obj"
	"selfgo/internal/vm"
	"selfgo/internal/wire"
)

// statusClientClosedRequest is the (nginx-convention) status logged
// when the client went away before the run finished. It never reaches
// the client — the connection is gone — but it keeps the metrics
// honest about why the run was aborted.
const statusClientClosedRequest = 499

// RequestIDHeader carries the request id end to end: a front router
// mints one (or forwards the client's), every replica echoes it on
// the response and stamps it into error bodies, so one failing
// request can be followed across processes.
const RequestIDHeader = wire.RequestIDHeader

// handlerFunc is an endpoint's handler, handed the request's id.
type handlerFunc func(w http.ResponseWriter, r *http.Request, rid string)

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /eval", s.instrument("eval", s.handleEval))
	mux.Handle("POST /run", s.instrument("run", s.handleRun))
	mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.Handle("GET /statusz", s.instrument("statusz", s.handleStatusz))
	return mux
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with panic containment (a bug in the
// serving layer answers 500, it does not take the process down),
// request-id propagation and request accounting.
func (s *Server) instrument(endpoint string, h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Accept a well-formed forwarded id, mint one otherwise; echo it
		// on the response before the handler can write, and hand it to
		// the handler for its error paths.
		rid := r.Header.Get(RequestIDHeader)
		if !wire.ValidRequestID(rid) {
			rid = wire.NewRequestID()
		}
		w.Header().Set(RequestIDHeader, rid)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				// The guest side has its own panic backstops; reaching
				// this one means a server bug. Contain it per-request.
				if sw.code == 0 {
					wire.WriteJSON(sw, http.StatusInternalServerError, &wire.Result{
						Error: &wire.ErrorJSON{Kind: "internal",
							Message:   fmt.Sprintf("server panic: %v", rec),
							RequestID: rid},
					})
				}
				_ = debug.Stack() // keep the stack retrievable in a debugger
			}
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			s.observe(endpoint, strconv.Itoa(code), time.Since(start))
		}()
		h(sw, r, rid)
	})
}

// writeRunError maps a failed guest run (or admission failure) to an
// HTTP status plus the shared error encoding.
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, rid string, err error) {
	var re *wire.RequestError
	if errors.As(err, &re) {
		wire.WriteJSON(w, re.Status, &wire.Result{
			Error: &wire.ErrorJSON{Kind: "request", Message: re.Msg, RequestID: rid}})
		return
	}
	if errors.Is(err, errShed) {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		wire.WriteJSON(w, http.StatusTooManyRequests, &wire.Result{
			Error: &wire.ErrorJSON{Kind: "overload", Message: err.Error(), RequestID: rid}})
		return
	}
	// A cancelled run ends at its deadline (504), unless its client
	// hung up first (499).
	cancelled := http.StatusGatewayTimeout
	if r.Context().Err() != nil {
		cancelled = statusClientClosedRequest
	}
	status := http.StatusUnprocessableEntity // guest fault: valid request, failed program
	var rte *vm.RuntimeError
	if errors.As(err, &rte) {
		s.m.faults.With(rte.Kind.String()).Inc()
		switch rte.Kind {
		case vm.KindCancelled:
			status = cancelled
		case vm.KindInternal:
			status = http.StatusInternalServerError
		}
	} else if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		// Cancelled while queued for a worker: answered as a run
		// cancelled at its first poll would be.
		status = cancelled
		err = &vm.RuntimeError{Kind: vm.KindCancelled, Msg: "cancelled: " + err.Error()}
	}
	ej := wire.NewError(err)
	ej.RequestID = rid
	wire.WriteJSON(w, status, &wire.Result{Error: ej})
}

// runOnWorker is the shared execution path: admission, budget,
// deadline, world read-lock, accounting. The deadline travels in the
// worker's budget, checked at the VM's poll beside r's context, which
// a client hang-up cancels.
func (s *Server) runOnWorker(r *http.Request, budget *wire.Budget, deadlineMS int64,
	run func(ctx context.Context, sys *selfgo.System) (*selfgo.Result, error)) (*selfgo.Result, error) {

	d := s.effectiveDeadline(deadlineMS)
	deadline := time.Now().Add(d)
	ctx := r.Context()
	sys, err := s.acquire(ctx, deadline)
	if err != nil {
		return nil, err
	}
	defer s.release(sys)
	b := s.effectiveBudget(budget, d)
	b.Deadline = deadline
	sys.SetBudget(b)

	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.worldMu.RLock()
	defer s.worldMu.RUnlock()
	res, err := run(ctx, sys)
	if err != nil {
		return nil, err
	}
	// The deferred release resets the worker's arena before the handler
	// encodes res.Value; pin it so an object result survives the reset.
	sys.MarkEscaped(res.Value)
	s.m.guestInstrs.Add(res.Run.Instrs)
	s.m.guestCycles.Add(res.Run.Cycles)
	s.m.guestSends.Add(res.Run.Sends)
	s.m.guestAllocs.Add(res.Run.Allocs)
	s.m.guestAllocBytes.Add(res.Run.AllocBytes)
	s.m.bbvVersions.Add(res.Run.BBVVersions)
	s.m.bbvCapHits.Add(res.Run.BBVCapHits)
	return res, nil
}

// writeResult answers a finished run in the shared encoding, with the
// tier-schedule view (mode, per-tier compile counts, promotion
// outcomes) that the adaptive mode's clients watch. The reply is built
// on the stack: of it only the value's text is allocated.
func (s *Server) writeResult(w http.ResponseWriter, res *selfgo.Result, bench string, checkOK *bool) {
	run, comp := wire.RunStatsOf(res.Run), wire.CompileOf(res.Compile)
	ps := s.root.PromotionStats()
	prom := wire.PromotionsJSON{
		Installed: ps.Installed, Fails: ps.Fails, Discards: ps.Discards,
		MeanLatencyMS: float64(ps.MeanLatency) / float64(time.Millisecond),
	}
	out := wire.Result{
		Value:         res.Value.String(),
		Int:           res.Value.I(),
		Run:           &run,
		Compile:       &comp,
		CompileTimeMS: float64(res.CompileTime) / float64(time.Millisecond),
		TierMode:      s.cfg.Mode.String(),
		Tiers:         s.tierCounts(),
		Promotions:    &prom,
		Bench:         bench,
		CheckOK:       checkOK,
	}
	wire.WriteJSON(w, http.StatusOK, &out)
}

// tierView is a reply's tier map and the tally it was built from.
type tierView struct {
	tally  selfgo.TierTally
	counts map[string]int // read-only once published
}

// tierCounts returns the per-tier compile counts as a map that replies
// share until a compile moves the tally.
func (s *Server) tierCounts() map[string]int {
	t := s.root.TierTally()
	if v := s.tiers.Load(); v != nil && v.tally == t {
		return v.counts
	}
	v := &tierView{tally: t, counts: t.Map()}
	s.tiers.Store(v)
	return v.counts
}

// writeDraining answers a request that arrived after Drain.
func (s *Server) writeDraining(w http.ResponseWriter, rid string) {
	wire.WriteJSON(w, http.StatusServiceUnavailable, &wire.Result{
		Error: &wire.ErrorJSON{Kind: "draining", Message: "server is draining", RequestID: rid}})
}

// readBody reads r's body into buf under the server's limits.
func (s *Server) readBody(r *http.Request, buf *[]byte) ([]byte, error) {
	body, err := wire.ReadRequest(r.Body, r.ContentLength, *buf, s.cfg.Limits)
	*buf = body
	return body, err
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request, rid string) {
	if s.draining.Load() {
		s.writeDraining(w, rid)
		return
	}
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	body, err := s.readBody(r, buf)
	if err != nil {
		s.writeRunError(w, r, rid, err)
		return
	}
	req, err := wire.ParseEvalRequest(body, s.cfg.Limits)
	if err != nil {
		s.writeRunError(w, r, rid, err)
		return
	}

	// Program loads mutate the shared world; they happen before
	// admission so a load never sits on a worker slot.
	if len(req.Program) != 0 {
		if err := s.ensureProgram(req.Program); err != nil {
			s.writeRunError(w, r, rid, err)
			return
		}
	}
	var prog *selfgo.EvalProgram
	if len(req.Expr) != 0 {
		if prog, err = s.internExpr(req.Expr); err != nil {
			s.writeRunError(w, r, rid, err)
			return
		}
	}

	res, err := s.runOnWorker(r, req.Budget, req.DeadlineMS,
		func(ctx context.Context, sys *selfgo.System) (*selfgo.Result, error) {
			if prog != nil {
				return sys.EvalProgramCtx(ctx, prog)
			}
			entry := string(req.Entry)
			if lk, ok := obj.Lookup(s.root.World().Lobby.Map, entry); !ok || lk.Slot.Kind != obj.MethodSlot {
				return nil, &wire.RequestError{Status: http.StatusNotFound,
					Msg: fmt.Sprintf("lobby does not define a method %q", entry)}
			}
			args := make([]selfgo.Value, len(req.Args))
			for i, a := range req.Args {
				args[i] = obj.Int(a)
			}
			return sys.CallCtx(ctx, entry, args...)
		})
	if err != nil {
		s.writeRunError(w, r, rid, err)
		return
	}
	s.writeResult(w, res, "", nil)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, rid string) {
	if s.draining.Load() {
		s.writeDraining(w, rid)
		return
	}
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	body, err := s.readBody(r, buf)
	if err != nil {
		s.writeRunError(w, r, rid, err)
		return
	}
	req, err := wire.ParseRunRequest(body)
	if err != nil {
		s.writeRunError(w, r, rid, err)
		return
	}
	be, ok := s.benches[string(req.Bench)]
	if !ok {
		s.writeRunError(w, r, rid, &wire.RequestError{Status: http.StatusNotFound,
			Msg: fmt.Sprintf("benchmark %q is not preloaded on this server", req.Bench)})
		return
	}

	res, err := s.runOnWorker(r, req.Budget, req.DeadlineMS,
		func(ctx context.Context, sys *selfgo.System) (*selfgo.Result, error) {
			return sys.CallCtx(ctx, be.b.Entry)
		})
	if err != nil {
		s.writeRunError(w, r, rid, err)
		return
	}
	var checkOK *bool
	if be.b.HasExpect {
		ok := res.Value.I() == be.b.Expect
		checkOK = &ok
	}
	s.writeResult(w, res, be.b.Name, checkOK)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ string) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, _ string) {
	// Liveness: the process is up and serving. Stays 200 while
	// draining — kill the listener, not the process.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request, _ string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if !s.ready.Load() {
		// Warm boot still pre-promoting its manifest: hold traffic off
		// until the hot code set is resident.
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "warming")
		return
	}
	fmt.Fprintln(w, "ready")
}

// statuszView is the human-readable JSON snapshot of the server.
type statuszView struct {
	UptimeSeconds  float64              `json:"uptime_seconds"`
	TierMode       string               `json:"tier_mode"`
	Strategy       string               `json:"strategy"`
	Pool           int                  `json:"pool"`
	QueueDepth     int                  `json:"queue_depth"`
	InFlight       int64                `json:"in_flight"`
	Queued         int64                `json:"queued"`
	Draining       bool                 `json:"draining"`
	Served         int64                `json:"served"`
	LoadedPrograms int                  `json:"loaded_programs"`
	InternedExprs  int                  `json:"interned_exprs"`
	Benches        []string             `json:"benches"`
	Boot           BootInfo             `json:"boot"`
	Cache          statuszCache         `json:"codecache"`
	Tiers          map[string]int       `json:"tiers"`
	Promotions     *wire.PromotionsJSON `json:"promotions"`
	BBV            statuszBBV           `json:"bbv"`
	Frames         selfgo.FrameStats    `json:"frames"` // mirrors the selfgo_frame_* metrics
}

type statuszCache struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Waits   int64 `json:"waits"`
	Evicted int64 `json:"evicted"`
	Entries int64 `json:"entries"`
}

// statuszBBV mirrors the selfgo_bbv_* metrics (zero under split).
type statuszBBV struct {
	Versions int64 `json:"versions"`
	CapHits  int64 `json:"cap_hits"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request, _ string) {
	cs := s.root.CacheStats()
	ps := s.root.PromotionStats()
	benches := make([]string, 0, len(s.benches))
	for name := range s.benches {
		benches = append(benches, name)
	}
	sort.Strings(benches)
	// /statusz is read by people: the one reply that stays indented.
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(&statuszView{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		TierMode:       s.cfg.Mode.String(),
		Strategy:       s.cfg.Compiler.Strategy.String(),
		Pool:           s.cfg.Pool,
		QueueDepth:     s.cfg.QueueDepth,
		InFlight:       s.inFlight.Load(),
		Queued:         s.queued.Load(),
		Draining:       s.draining.Load(),
		Served:         s.served.Load(),
		LoadedPrograms: s.LoadedPrograms(),
		InternedExprs:  s.InternedExprs(),
		Benches:        benches,
		Boot:           s.Boot(),
		Cache: statuszCache{Hits: cs.Hits, Misses: cs.Misses, Waits: cs.Waits,
			Evicted: cs.Evicted, Entries: cs.Entries},
		Tiers: s.root.TierCounts(),
		Promotions: &wire.PromotionsJSON{
			Installed: ps.Installed, Fails: ps.Fails, Discards: ps.Discards,
			MeanLatencyMS: float64(ps.MeanLatency) / float64(time.Millisecond),
		},
		BBV: statuszBBV{
			Versions: s.m.bbvVersions.Value(),
			CapHits:  s.m.bbvCapHits.Value(),
		},
		Frames: selfgo.FrameStats{Allocs: s.m.frameAllocs.Value(), Reuses: s.m.frameReuses.Value(),
			PoolBytes: s.m.framePoolBytes.Value()},
	})
}
