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

// ridKey carries the request id through the handler's context.
type ridKey struct{}

// requestIDFrom reads the id instrument() stored.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

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
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Accept a well-formed forwarded id, mint one otherwise; echo it
		// on the response before the handler can write, and thread it to
		// the error paths through the context.
		rid := r.Header.Get(RequestIDHeader)
		if !wire.ValidRequestID(rid) {
			rid = wire.NewRequestID()
		}
		w.Header().Set(RequestIDHeader, rid)
		r = r.WithContext(context.WithValue(r.Context(), ridKey{}, rid))
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				// The guest side has its own panic backstops; reaching
				// this one means a server bug. Contain it per-request.
				if sw.code == 0 {
					s.writeJSON(sw, http.StatusInternalServerError, &wire.Result{
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
		h(sw, r)
	})
}

// writeJSON answers v as compact JSON: replies are read by routers and
// clients, and every byte of one is copied at each hop.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRunError maps a failed guest run (or admission failure) to an
// HTTP status plus the shared error encoding.
func (s *Server) writeRunError(w http.ResponseWriter, ctx context.Context, err error) {
	rid := requestIDFrom(ctx)
	var re *wire.RequestError
	if errors.As(err, &re) {
		s.writeJSON(w, re.Status, &wire.Result{
			Error: &wire.ErrorJSON{Kind: "request", Message: re.Msg, RequestID: rid}})
		return
	}
	if errors.Is(err, errShed) {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.writeJSON(w, http.StatusTooManyRequests, &wire.Result{
			Error: &wire.ErrorJSON{Kind: "overload", Message: err.Error(), RequestID: rid}})
		return
	}
	status := http.StatusUnprocessableEntity // guest fault: valid request, failed program
	var rte *vm.RuntimeError
	if errors.As(err, &rte) {
		s.m.faults.With(rte.Kind.String()).Inc()
		switch rte.Kind {
		case vm.KindCancelled:
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				status = http.StatusGatewayTimeout
			} else {
				status = statusClientClosedRequest
			}
		case vm.KindInternal:
			status = http.StatusInternalServerError
		}
	} else if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		status = http.StatusGatewayTimeout
	} else if errors.Is(ctx.Err(), context.Canceled) {
		status = statusClientClosedRequest
	}
	ej := wire.NewError(err)
	ej.RequestID = rid
	s.writeJSON(w, status, &wire.Result{Error: ej})
}

// runOnWorker is the shared execution path: admission, budget,
// deadline, world read-lock, accounting.
func (s *Server) runOnWorker(r *http.Request, budget *wire.Budget, deadlineMS int64,
	run func(ctx context.Context, sys *selfgo.System) (*selfgo.Result, error)) (*selfgo.Result, context.Context, error) {

	deadline := s.effectiveDeadline(deadlineMS)
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	sys, err := s.acquire(ctx)
	if err != nil {
		return nil, ctx, err
	}
	defer s.release(sys)
	sys.SetBudget(s.effectiveBudget(budget, deadline))

	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.worldMu.RLock()
	defer s.worldMu.RUnlock()
	res, err := run(ctx, sys)
	if err != nil {
		return nil, ctx, err
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
	return res, ctx, nil
}

// result converts a finished run to the wire encoding, attaching the
// tier-schedule view (mode, per-tier compile counts, promotion
// outcomes) that the adaptive mode's clients watch.
func (s *Server) result(res *selfgo.Result) *wire.Result {
	out := wire.NewResult(res.Value, res.Run, res.Compile, res.CompileTime)
	out.TierMode = s.cfg.Mode.String()
	out.Tiers = s.root.TierCounts()
	ps := s.root.PromotionStats()
	out.Promotions = &wire.PromotionsJSON{
		Installed: ps.Installed, Fails: ps.Fails, Discards: ps.Discards,
		MeanLatencyMS: float64(ps.MeanLatency) / float64(time.Millisecond),
	}
	return out
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, &wire.Result{
			Error: &wire.ErrorJSON{Kind: "draining", Message: "server is draining",
				RequestID: requestIDFrom(r.Context())}})
		return
	}
	req, err := wire.DecodeEvalRequest(r.Body, s.cfg.Limits)
	if err != nil {
		s.writeRunError(w, r.Context(), err)
		return
	}

	// Program loads mutate the shared world; they happen before
	// admission so a load never sits on a worker slot.
	if req.Program != "" {
		if err := s.ensureProgram(req.Program); err != nil {
			s.writeRunError(w, r.Context(), err)
			return
		}
	}
	var prog *selfgo.EvalProgram
	if req.Expr != "" {
		if prog, err = s.internExpr(req.Expr); err != nil {
			s.writeRunError(w, r.Context(), err)
			return
		}
	}

	res, ctx, err := s.runOnWorker(r, req.Budget, req.DeadlineMS,
		func(ctx context.Context, sys *selfgo.System) (*selfgo.Result, error) {
			if prog != nil {
				return sys.EvalProgramCtx(ctx, prog)
			}
			if lk, ok := obj.Lookup(s.root.World().Lobby.Map, req.Entry); !ok || lk.Slot.Kind != obj.MethodSlot {
				return nil, &wire.RequestError{Status: http.StatusNotFound,
					Msg: fmt.Sprintf("lobby does not define a method %q", req.Entry)}
			}
			args := make([]selfgo.Value, len(req.Args))
			for i, a := range req.Args {
				args[i] = obj.Int(a)
			}
			return sys.CallCtx(ctx, req.Entry, args...)
		})
	if err != nil {
		s.writeRunError(w, ctx, err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.result(res))
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, &wire.Result{
			Error: &wire.ErrorJSON{Kind: "draining", Message: "server is draining",
				RequestID: requestIDFrom(r.Context())}})
		return
	}
	req, err := wire.DecodeRunRequest(r.Body, s.cfg.Limits)
	if err != nil {
		s.writeRunError(w, r.Context(), err)
		return
	}
	be, ok := s.benches[req.Bench]
	if !ok {
		s.writeRunError(w, r.Context(), &wire.RequestError{Status: http.StatusNotFound,
			Msg: fmt.Sprintf("benchmark %q is not preloaded on this server", req.Bench)})
		return
	}

	res, ctx, err := s.runOnWorker(r, req.Budget, req.DeadlineMS,
		func(ctx context.Context, sys *selfgo.System) (*selfgo.Result, error) {
			return sys.CallCtx(ctx, be.b.Entry)
		})
	if err != nil {
		s.writeRunError(w, ctx, err)
		return
	}
	out := s.result(res)
	out.Bench = be.b.Name
	if be.b.HasExpect {
		ok := res.Value.I() == be.b.Expect
		out.CheckOK = &ok
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up and serving. Stays 200 while
	// draining — kill the listener, not the process.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
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

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
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
