// selfserved is the Self-program daemon: it keeps one shared world and
// code cache warm behind an HTTP/JSON API, so programs compile once and
// run many times across requests and connections.
//
// Endpoints:
//
//	POST /eval     run an expression or a lobby selector (JSON body)
//	POST /run      run a preloaded named benchmark
//	GET  /metrics  Prometheus text exposition
//	GET  /healthz  liveness (200 while the process serves)
//	GET  /readyz   readiness (503 once draining)
//	GET  /statusz  human-readable JSON status
//
// SIGINT/SIGTERM starts a graceful drain: readiness flips, new work is
// refused, in-flight requests finish (bounded by -drain-timeout), then
// the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"selfgo"
	"selfgo/internal/cli"
	"selfgo/internal/server"
	"selfgo/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8673", "listen address (use :0 for an ephemeral port)")
		cfgName  = flag.String("config", "new", "compiler configuration: "+strings.Join(cli.Names(), ", "))
		tier     = flag.String("tier", "opt", "tier schedule: opt, baseline or adaptive")
		promote  = flag.Int64("promote", 0, "adaptive promotion threshold (0 = default)")
		strategy = flag.String("strategy", "split", "specialization strategy: split, bbv or both")

		pool  = flag.Int("pool", 4, "worker VMs sharing the world and code cache")
		queue = flag.Int("queue", 16, "admission queue depth before shedding with 429")

		maxInstrs   = flag.Int64("max-instrs", 0, "per-request instruction cap (0 = server default)")
		maxAllocs   = flag.Int64("max-allocs", 0, "per-request allocation cap (0 = server default)")
		maxDepth    = flag.Int("max-depth", 0, "per-request stack depth cap (0 = server default)")
		maxBytes    = flag.Int64("max-bytes", 0, "per-request cap on modelled vector/clone storage bytes (0 = server default)")
		deadline    = flag.Duration("deadline", 10*time.Second, "default per-request deadline")
		maxDeadline = flag.Duration("max-deadline", 60*time.Second, "largest per-request deadline honored")
		pollEvery   = flag.Int64("poll-every", 0, "budget/cancellation poll stride (0 = VM default)")

		benches      = flag.String("benches", "all", `benchmarks preloaded for /run: "all" (parallel-safe set), "none", or a comma list`)
		maxPrograms  = flag.Int("max-programs", 0, "lifetime cap on distinct loaded programs (0 = default)")
		maxExprs     = flag.Int("max-eval-programs", 0, "interned eval-expression LRU size (0 = default)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("selfserved: ")

	cfg, err := cli.ConfigByName(*cfgName)
	if err != nil {
		log.Fatal(err)
	}
	strat, err := selfgo.StrategyByName(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Strategy = strat
	mode, err := selfgo.TierModeByName(*tier)
	if err != nil {
		log.Fatal(err)
	}
	scfg := server.Config{
		Compiler:         cfg,
		Mode:             mode,
		PromoteThreshold: *promote,
		Pool:             *pool,
		QueueDepth:       *queue,
		MaxInstrs:        *maxInstrs,
		MaxAllocs:        *maxAllocs,
		MaxDepth:         *maxDepth,
		MaxBytes:         *maxBytes,
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
		PollEvery:        *pollEvery,
		Limits:           wire.Limits{},
		MaxPrograms:      *maxPrograms,
		MaxEvalPrograms:  *maxExprs,
	}
	switch *benches {
	case "all":
		// nil selects every parallel-safe benchmark.
	case "none", "":
		scfg.Benches = []string{}
	default:
		scfg.Benches = strings.Split(*benches, ",")
	}

	t0 := time.Now()
	s, err := server.New(scfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("world ready in %v (config %s, tier %s, pool %d, queue %d)",
		time.Since(t0).Round(time.Millisecond), cfg.Name, mode, *pool, *queue)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The ci smoke (and anything else scripting us) parses this line
	// to learn the ephemeral port.
	log.Printf("listening on http://%s", ln.Addr())

	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("signal received, draining (in flight: %d)", s.InFlight())
		s.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("drain timed out: %v", err)
			os.Exit(1)
		}
		log.Printf("drained cleanly: %d served, %d completed during drain", s.Served(), s.DrainedOK())
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
	fmt.Fprintln(os.Stderr, "selfserved: bye")
}
