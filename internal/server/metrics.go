package server

import (
	"time"

	"selfgo"
	"selfgo/internal/metrics"
)

// serverMetrics holds the write-side metric handles the request path
// touches. Everything derived from state the server already keeps
// (pool occupancy, cache counters, tier counts) is exported through
// callback families instead, so there is exactly one source of truth
// per number.
type serverMetrics struct {
	requests *metrics.CounterVec // endpoint, code
	latency  *metrics.HistogramVec
	shed     *metrics.Counter

	programsLoaded *metrics.Counter
	exprInterned   *metrics.Counter
	exprHits       *metrics.Counter
	exprEvicted    *metrics.Counter

	// Guest-side totals accumulated from per-request RunStats.
	guestInstrs     *metrics.Counter
	guestCycles     *metrics.Counter
	guestSends      *metrics.Counter
	guestAllocs     *metrics.Counter
	guestAllocBytes *metrics.Counter
	faults          *metrics.CounterVec // kind

	// Basic-block versioning activity (zero under the split strategy).
	bbvVersions *metrics.Counter
	bbvCapHits  *metrics.Counter

	// Activation-frame traffic of the worker VMs, folded in as each
	// worker returns to the pool. Host-side, not modelled.
	frameAllocs    *metrics.Counter
	frameReuses    *metrics.Counter
	framePoolBytes *metrics.Gauge
}

func (s *Server) registerMetrics() {
	r := s.reg

	s.m.requests = r.CounterVec("selfserved_requests_total",
		"Requests answered, by endpoint and HTTP status code.", "endpoint", "code")
	s.m.latency = r.HistogramVec("selfserved_request_seconds",
		"Wall-clock request latency by endpoint.", metrics.DefBuckets, "endpoint")
	s.m.shed = r.Counter("selfserved_shed_total",
		"Requests rejected with 429 because the admission queue was full.")

	s.m.programsLoaded = r.Counter("selfserved_programs_loaded_total",
		"Distinct program texts loaded into the shared world.")
	s.m.exprInterned = r.Counter("selfserved_exprs_interned_total",
		"Eval expressions parsed and interned (first sight of a text).")
	s.m.exprHits = r.Counter("selfserved_expr_hits_total",
		"Eval requests served from an already-interned expression.")
	s.m.exprEvicted = r.Counter("selfserved_exprs_evicted_total",
		"Interned expressions rotated out of the LRU (code evicted too).")

	s.m.guestInstrs = r.Counter("selfgo_guest_instrs_total",
		"Guest instructions executed across all requests.")
	s.m.guestCycles = r.Counter("selfgo_guest_cycles_total",
		"Modelled guest cycles across all requests.")
	s.m.guestSends = r.Counter("selfgo_guest_sends_total",
		"Guest message sends across all requests.")
	s.m.guestAllocs = r.Counter("selfgo_guest_allocs_total",
		"Guest allocations across all requests.")
	s.m.guestAllocBytes = r.Counter("selfgo_guest_alloc_bytes_total",
		"Modelled bytes of guest vector/clone storage across all requests.")
	s.m.faults = r.CounterVec("selfserved_guest_faults_total",
		"Guest runs that ended in a fault, by RuntimeError kind.", "kind")

	s.m.bbvVersions = r.Counter("selfgo_bbv_versions_total",
		"Basic-block versions materialized across all requests (0 under the split strategy).")
	s.m.bbvCapHits = r.Counter("selfgo_bbv_cap_hits_total",
		"Version-cap hits: block entries that fell back to the generic version.")

	s.m.frameAllocs = r.Counter("selfgo_frame_allocs_total",
		"Activation register files the worker VMs allocated (a warm server allocates none).")
	s.m.frameReuses = r.Counter("selfgo_frame_reuses_total",
		"Activations served by a register file from a worker VM's frame pool.")
	s.m.framePoolBytes = r.Gauge("selfgo_frame_pool_bytes",
		"Bytes of register files the worker VMs' frame pools hold (bounded per VM; must plateau).")

	// Server gauges: read straight off the live state.
	r.GaugeFunc("selfserved_in_flight",
		"Requests currently executing guest code.",
		func() float64 { return float64(s.inFlight.Load()) })
	r.GaugeFunc("selfserved_queued",
		"Requests waiting for a worker VM.",
		func() float64 { return float64(s.queued.Load()) })
	// Pool occupancy, read off the channel itself. The two gauges sum
	// to the configured capacity; an earlier version exported only the
	// static cfg.Pool, which never moved and hid worker starvation.
	r.GaugeFunc("selfserved_pool_free",
		"Worker VMs idle in the pool, ready to serve.",
		func() float64 { return float64(len(s.pool)) })
	r.GaugeFunc("selfserved_pool_in_use",
		"Worker VMs checked out and serving requests.",
		func() float64 { return float64(s.cfg.Pool - len(s.pool)) })
	r.GaugeFunc("selfserved_pool_in_use_peak",
		"High-water mark of simultaneously checked-out workers since start.",
		func() float64 { return float64(s.poolPeak.Load()) })
	r.GaugeFunc("selfserved_draining",
		"1 while the server is draining for shutdown.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("selfserved_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("selfserved_loaded_programs",
		"Program texts currently in the loaded table.",
		func() float64 { return float64(s.LoadedPrograms()) })
	r.GaugeFunc("selfserved_interned_exprs",
		"Expressions currently interned.",
		func() float64 { return float64(s.InternedExprs()) })

	// Code cache: the compile-once story in numbers. misses_total is
	// the count of actual compiler runs; if it stops growing while
	// hits_total climbs, every request is running cached code.
	r.CounterFunc("selfgo_codecache_hits_total",
		"Shared-cache lookups that found compiled code.",
		func() float64 { return float64(s.root.CacheStats().Hits) })
	r.CounterFunc("selfgo_codecache_misses_total",
		"Shared-cache lookups that ran the compiler (one compile each).",
		func() float64 { return float64(s.root.CacheStats().Misses) })
	r.CounterFunc("selfgo_codecache_waits_total",
		"Shared-cache lookups that blocked on another worker's compile.",
		func() float64 { return float64(s.root.CacheStats().Waits) })
	r.CounterFunc("selfgo_codecache_evicted_total",
		"Shared-cache entries removed by invalidation.",
		func() float64 { return float64(s.root.CacheStats().Evicted) })
	r.GaugeFunc("selfgo_codecache_entries",
		"Shared-cache entries resident.",
		func() float64 { return float64(s.root.CacheStats().Entries) })

	// World-image warm start. restore_seconds and prepromoted_total
	// are 0 on a cold boot; time_to_ready covers New-to-ready
	// (including background pre-promotion) and is 0 until ready.
	r.GaugeFunc("selfgo_image_restore_seconds",
		"Image decode + source replay + state restore time (0 = cold boot).",
		func() float64 { return s.restoreDur.Seconds() })
	r.CounterFunc("selfgo_prepromoted_total",
		"Manifest entries re-compiled at their recorded tier during warm boot.",
		func() float64 { return float64(s.prepromoted.Load()) })
	r.CounterFunc("selfgo_prepromote_failed_total",
		"Manifest entries whose boot-time recompile failed (fell back to on-demand).",
		func() float64 { return float64(s.prepromoteFailed.Load()) })
	r.GaugeFunc("selfserved_ready",
		"1 once boot (including manifest pre-promotion) has completed.",
		func() float64 {
			if s.ready.Load() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("selfserved_time_to_ready_seconds",
		"Seconds from process start to readiness (0 while warming).",
		func() float64 { return float64(s.readySeconds.Load()) / 1e6 })

	// Adaptive tier promotion.
	r.CounterFunc("selfgo_promotions_installed_total",
		"Background tier promotions installed into the shared cache.",
		func() float64 { return float64(s.root.CacheStats().Promotions) })
	r.CounterFunc("selfgo_promotions_failed_total",
		"Background tier promotions whose recompile failed.",
		func() float64 { return float64(s.root.CacheStats().PromoteFails) })
	r.CounterFunc("selfgo_promotions_discarded_total",
		"Background tier promotions discarded (entry invalidated meanwhile).",
		func() float64 { return float64(s.root.CacheStats().PromoteDiscards) })
	r.GaugeFunc("selfgo_promotion_mean_latency_seconds",
		"Mean hot-trigger-to-install latency of installed promotions.",
		func() float64 { return s.root.PromotionStats().MeanLatency.Seconds() })

	r.CounterFunc("selfgo_compile_nodes_built_total",
		"IR nodes the compiler built, discarded loop-analysis bodies included.",
		func() float64 { built, _ := s.root.CompileNodes(); return float64(built) })
	r.CounterFunc("selfgo_compile_nodes_kept_total",
		"IR nodes that survived into compiled code.",
		func() float64 { _, kept := s.root.CompileNodes(); return float64(kept) })

	r.GaugeFunc("selfgo_compile_log_entries",
		"Compile-log entries retained (a ring of the latest compiles; plateaus at its bound).",
		func() float64 { return float64(s.root.CompileLogLen()) })

	// Compile log by tier: how many compiles each pipeline tier ran.
	r.RegisterFunc("selfgo_compiles_total",
		"Compiler runs recorded, by pipeline tier.",
		metrics.KindCounter, []string{"tier"}, func() []metrics.Sample {
			counts := s.root.TierTally()
			var out []metrics.Sample
			for t := selfgo.TierDegraded; t <= selfgo.TierOptimizing; t++ {
				out = append(out, metrics.Sample{Labels: []string{t.String()}, Value: float64(counts[t])})
			}
			return out
		})
}

// observe records one finished request.
func (s *Server) observe(endpoint, code string, dur time.Duration) {
	s.m.requests.With(endpoint, code).Inc()
	s.m.latency.With(endpoint).Observe(dur.Seconds())
	s.served.Add(1)
	if s.draining.Load() {
		s.drained.Add(1)
	}
}
