package router

import (
	"time"

	"selfgo/internal/metrics"
)

// routerMetrics holds the write-side handles of the router's own
// metric families — the fleet-level view the replicas cannot see:
// where requests landed, how often the first-choice replica had to be
// skipped, and how the ring's membership moved.
type routerMetrics struct {
	requests  *metrics.CounterVec   // endpoint, code: answers to clients
	latency   *metrics.HistogramVec // endpoint: client-observed, failover included
	routed    *metrics.CounterVec   // replica: requests answered by each backend
	failovers *metrics.CounterVec   // reason: first-choice skipped (shed/draining/transport)
	keys      *metrics.CounterVec   // source: how the affinity key was derived
	noReplica *metrics.Counter      // requests refused with no healthy replica

	transitions *metrics.CounterVec // replica, direction: ring membership changes
	dials       *metrics.CounterVec // replica: upstream connections opened
}

func (rt *Router) registerMetrics() {
	r := rt.reg

	rt.m.requests = r.CounterVec("selfrouter_requests_total",
		"Requests answered to clients, by endpoint and HTTP status code.", "endpoint", "code")
	rt.m.latency = r.HistogramVec("selfrouter_request_seconds",
		"Client-observed request latency by endpoint, failover retries included.",
		metrics.DefBuckets, "endpoint")
	rt.m.routed = r.CounterVec("selfrouter_routed_total",
		"Requests answered by each replica (failover target counted, skipped home not).", "replica")
	rt.m.failovers = r.CounterVec("selfrouter_failovers_total",
		"First-choice replica skipped and the next in the preference list tried, by reason.", "reason")
	rt.m.keys = r.CounterVec("selfrouter_affinity_keys_total",
		"Routed requests by affinity-key source: tenant header, body identity, or raw-bytes fallback.", "source")
	rt.m.noReplica = r.Counter("selfrouter_no_replica_total",
		"Requests refused with 503 because no replica was healthy.")
	rt.m.transitions = r.CounterVec("selfrouter_replica_transitions_total",
		"Ring membership changes per replica, by direction (up/down).", "replica", "direction")

	rt.m.dials = r.CounterVec("selfrouter_upstream_dials_total",
		"Connections opened to each replica; flat once the pool is warm.", "replica")

	// Pre-create the per-replica and per-reason series so scrapes see
	// zeros instead of absent series before the first event.
	for _, rep := range rt.replicas {
		rt.m.routed.With(rep.name)
	}
	for _, reason := range []string{reasonShed, reasonDraining, reasonTransport} {
		rt.m.failovers.With(reason)
	}

	// perReplica samples one value per replica at scrape time.
	perReplica := func(value func(*replica) float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			out := make([]metrics.Sample, 0, len(rt.replicas))
			for _, rep := range rt.replicas {
				out = append(out, metrics.Sample{Labels: []string{rep.name}, Value: value(rep)})
			}
			return out
		}
	}
	r.RegisterFunc("selfrouter_replica_healthy",
		"1 while the replica's latest /readyz probe answered 200.",
		metrics.KindGauge, []string{"replica"}, perReplica(func(rep *replica) float64 {
			if rep.healthy.Load() {
				return 1
			}
			return 0
		}))
	r.RegisterFunc("selfrouter_upstream_idle_conns",
		"Pooled connections to each replica awaiting a request (bounded by a constant cap).",
		metrics.KindGauge, []string{"replica"}, perReplica(func(rep *replica) float64 {
			return float64(rep.up.idleConns())
		}))
	r.GaugeFunc("selfrouter_replicas_healthy",
		"Replicas currently in the rendezvous ring.",
		func() float64 { return float64(len(rt.healthySnapshot())) })
	r.GaugeFunc("selfrouter_uptime_seconds",
		"Seconds since the router started.",
		func() float64 { return time.Since(rt.start).Seconds() })
}
