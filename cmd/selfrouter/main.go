// selfrouter is the cluster front door: an HTTP proxy that routes
// selfserved traffic across N replicas by cache affinity, so each
// replica's code cache and tier promotions stay warm for the programs
// it owns (rendezvous hashing of the tenant header or the
// program-identity key derived from the body — see internal/router).
//
// Endpoints:
//
//	POST /eval     proxied to the affinity-chosen replica
//	POST /run      proxied to the affinity-chosen replica
//	GET  /metrics  the ROUTER's own Prometheus exposition
//	GET  /healthz  liveness of the router process
//	GET  /readyz   503 unless at least one replica is healthy
//	GET  /statusz  replica ring, health, per-replica routed counts
//
// Replicas are health-gated on their /readyz; a 429/503/transport
// failure on the first-choice replica fails over once to the next in
// the key's preference list. SIGINT/SIGTERM shuts the listener down
// gracefully.
//
// Quickstart (3 replicas):
//
//	selfserved -addr 127.0.0.1:8701 &
//	selfserved -addr 127.0.0.1:8702 &
//	selfserved -addr 127.0.0.1:8703 &
//	selfrouter -addr 127.0.0.1:8700 \
//	    -replicas http://127.0.0.1:8701,http://127.0.0.1:8702,http://127.0.0.1:8703
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"selfgo/internal/router"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8700", "listen address (use :0 for an ephemeral port)")
		replicas = flag.String("replicas", "", "comma-separated selfserved base URLs (required)")
		tenant   = flag.String("tenant-header", "X-Tenant", "header that overrides the body-derived affinity key")

		healthEvery   = flag.Duration("health-every", 250*time.Millisecond, "replica /readyz poll interval")
		healthTimeout = flag.Duration("health-timeout", time.Second, "per-probe timeout")
		maxBody       = flag.Int64("max-body", 0, "request body bytes buffered for routing and retry (0 = wire default)")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("selfrouter: ")

	if *replicas == "" {
		log.Fatal("-replicas is required (comma-separated base URLs)")
	}
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			urls = append(urls, u)
		}
	}

	rt, err := router.New(router.Config{
		Replicas:      urls,
		TenantHeader:  *tenant,
		HealthEvery:   *healthEvery,
		HealthTimeout: *healthTimeout,
		MaxBody:       *maxBody,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	log.Printf("routing %d replicas", len(urls))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// Scripts parse this line for the ephemeral port, same as selfserved.
	log.Printf("listening on http://%s", ln.Addr())

	srv := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Print("signal received, shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown timed out: %v", err)
			os.Exit(1)
		}
		log.Print("drained cleanly")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}
