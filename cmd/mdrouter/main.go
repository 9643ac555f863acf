// Command mdrouter shards mdserve traffic across share-nothing
// backends with consistent hashing: session-scoped requests are pinned
// to the backend owning the {context, session} key, stateless work is
// spread with a bounded-load walk, and GET session listings are merged
// across every healthy shard. Ring changes move only ≈ K/N of K keys.
//
// Usage:
//
//	mdrouter -addr :8090 -backend http://10.0.0.1:8080 -backend http://10.0.0.2:8080
//	mdrouter -backend ... -vnodes 128 -load-factor 1.25 -health-interval 2s
//
// Router-local endpoints (everything else is proxied):
//
//	GET /healthz   router + backend health
//	GET /metrics   per-backend counters and latency quantiles
//	GET /topology  ring layout: backends, health, hash-space shares
//
// Session state is NOT replicated: when the backend owning a session
// is down, requests for that session answer 503 backend_unavailable
// until it returns. Every proxied response carries the serving backend
// in X-Mdrouter-Backend.
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

	"repro/internal/router"
)

// backendFlags collects repeated -backend URL flags.
type backendFlags []string

func (b *backendFlags) String() string { return strings.Join(*b, ",") }

func (b *backendFlags) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty backend URL")
	}
	*b = append(*b, v)
	return nil
}

// Connection timeouts of the HTTP server (see run).
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mdrouter:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("mdrouter", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per backend (0 = default)")
	loadFactor := fs.Float64("load-factor", 0, "bounded-load factor for stateless requests (0 = default 1.25)")
	healthInterval := fs.Duration("health-interval", 0, "backend /healthz probe period (0 = default 2s)")
	retries := fs.Int("retries", 0, "extra attempts after a connect failure (0 = default 1, negative disables)")
	drain := fs.Duration("drain", 5*time.Second, "graceful shutdown drain window")
	var backends backendFlags
	fs.Var(&backends, "backend", "mdserve backend base URL (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if len(backends) == 0 {
		return fmt.Errorf("no backends: pass -backend http://host:port at least once")
	}

	rt, err := router.New(router.Config{
		Backends:       backends,
		VNodes:         *vnodes,
		LoadFactor:     *loadFactor,
		HealthInterval: *healthInterval,
		Retries:        *retries,
	})
	if err != nil {
		return err
	}
	// Probe once before accepting traffic so a dead backend at boot is
	// routed around from the first request.
	rt.CheckHealth(ctx)
	log.Printf("mdrouter: %d backends (%d healthy) on %s", len(backends), len(rt.Healthy()), *addr)

	reqCtx, reqCancel := context.WithCancel(context.Background())
	defer reqCancel()
	go rt.Start(reqCtx)

	hs := &http.Server{
		Addr:        *addr,
		Handler:     rt,
		BaseContext: func(net.Listener) context.Context { return reqCtx },
		// Bound what an idle or slow client can hold: a connection
		// must send its headers within readHeaderTimeout, and a
		// keep-alive connection closes after idleTimeout without a
		// request. Bodies are not bounded in time: apply streams are
		// long-lived by design.
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Printf("mdrouter: shutting down (drain %s)", *drain)
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			log.Printf("mdrouter: drain incomplete: %v", err)
			reqCancel()
			_ = hs.Close()
		}
		return nil
	}
}
