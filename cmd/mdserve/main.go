// Command mdserve serves quality assessments over HTTP: it loads one
// or more quality contexts at startup, compiles each exactly once, and
// multiplexes concurrent clients over prepared assessment sessions.
//
// Usage:
//
//	mdserve -example                          # built-in hospital context
//	mdserve -context sales=sales.mdq          # context from a .mdq file
//	mdserve -context a=a.mdq -context b=b.mdq # several contexts
//	mdserve -addr :8080 -parallelism 4 ...
//	mdserve -data-dir /var/lib/mdserve -fsync interval   # durable sessions
//	mdserve -example -pprof localhost:6060    # profiling on a side listener
//
// API (JSON; streaming endpoints use NDJSON):
//
//	GET  /healthz
//	GET  /metrics
//	GET  /v1/contexts
//	POST /v1/contexts/{name}/assess                   one-shot assessment
//	POST /v1/contexts/{name}/sessions                 open a session
//	GET  /v1/contexts/{name}/sessions                 list sessions
//	GET  /v1/contexts/{name}/sessions/{id}            session info
//	DELETE /v1/contexts/{name}/sessions/{id}          close a session
//	POST /v1/contexts/{name}/sessions/{id}/apply      NDJSON delta ingest
//	POST /v1/contexts/{name}/sessions/{id}/refresh    re-poll live sources
//	GET  /v1/contexts/{name}/sessions/{id}/answers?q= stream answers
//	GET  /v1/contexts/{name}/sessions/{id}/assessment materialized outcome
//	GET  /v1/contexts/{name}/sessions/{id}/versions   version timeline
//	GET  /v1/contexts/{name}/sessions/{id}/trajectory?rel= score series
//
// Time travel: every applied batch produces a numbered session
// version; answers, assessment, assess and trajectory accept
// ?as_of=<version|RFC3339> to read any version still retained in the
// in-memory ring (-history-depth) — or, with -data-dir, any version
// reconstructable from retained snapshots and WAL replay. /versions
// and /trajectory list the newest 1,024 versions of a session
// (mdqa.MaxHistoryVersions); an ?as_of=<RFC3339> instant before the
// oldest listed version answers 410.
//
// Live external sources bind a contextual relation to an HTTP endpoint
// or file that is re-polled at refresh time:
//
//	mdserve -example -source hospital/PatientWard=http://feeds/wards
//	mdserve -example -source hospital/PatientWard=wards.csv -source-refresh 30s
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops
// accepting, drains in-flight requests for the -drain window, flushes
// every session WAL, writes final snapshots and exits 0. With
// -data-dir set, sessions survive restarts — and crashes: every
// acknowledged apply batch is write-ahead logged before the ack, so a
// kill -9 recovers to exactly the acknowledged state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
	"repro/mdqa"
)

// contextFlags collects repeated -context name=path.mdq flags.
type contextFlags []server.ContextSource

func (c *contextFlags) String() string {
	var parts []string
	for _, s := range *c {
		parts = append(parts, s.Name+"="+s.Path)
	}
	return strings.Join(parts, ",")
}

func (c *contextFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path.mdq, got %q", v)
	}
	*c = append(*c, server.ContextSource{Name: name, Path: path})
	return nil
}

// sourceFlags collects repeated -source context/relation=spec flags:
// spec is an http(s) URL or a CSV/NDJSON file path, bound as a live
// source feeding the named contextual relation (the binding is named
// after the relation in metrics and errors).
type sourceFlags []sourceBinding

type sourceBinding struct {
	context  string
	relation string
	spec     string
}

func (s *sourceFlags) String() string {
	var parts []string
	for _, b := range *s {
		parts = append(parts, b.context+"/"+b.relation+"="+b.spec)
	}
	return strings.Join(parts, ",")
}

func (s *sourceFlags) Set(v string) error {
	target, spec, ok := strings.Cut(v, "=")
	if !ok || spec == "" {
		return fmt.Errorf("want context/relation=url-or-path, got %q", v)
	}
	cname, rel, ok := strings.Cut(target, "/")
	if !ok || cname == "" || rel == "" {
		return fmt.Errorf("want context/relation=url-or-path, got %q", v)
	}
	*s = append(*s, sourceBinding{context: cname, relation: rel, spec: spec})
	return nil
}

// source builds the connector for a binding spec.
func (b sourceBinding) source() mdqa.Source {
	schema := mdqa.SourceSchema{Relation: b.relation}
	if strings.HasPrefix(b.spec, "http://") || strings.HasPrefix(b.spec, "https://") {
		return mdqa.NewHTTPSource(b.spec, schema)
	}
	return mdqa.NewFileSource(b.spec, schema)
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
		fmt.Fprintln(os.Stderr, "mdserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("mdserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	example := fs.Bool("example", false, "serve the built-in hospital example quality context as \"hospital\"")
	parallelism := fs.Int("parallelism", 0, "engine worker pool bound per context (0 = all cores, 1 = no worker goroutines)")
	maxSessions := fs.Int("max-sessions", 0, "open session limit across contexts (0 = default)")
	drain := fs.Duration("drain", 5*time.Second, "graceful shutdown drain window")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty = off)")
	dataDir := fs.String("data-dir", "", "durable sessions: WAL + snapshots under this directory, recovered on restart (empty = ephemeral)")
	fsync := fs.String("fsync", "interval", "WAL durability mode: always, interval or async")
	snapshotEvery := fs.Int("snapshot-every", 0, "apply batches per session WAL before compaction into a snapshot (0 = default)")
	maxResident := fs.Int("max-resident-sessions", 0, "sessions kept saturated in memory; least-recently-used beyond this are evicted to disk (0 = all, needs -data-dir)")
	historyDepth := fs.Int("history-depth", 0, "version snapshots retained in memory per session for as-of reads (0 = default, capped at 1024, negative fails startup)")
	var sources contextFlags
	fs.Var(&sources, "context", "quality context to serve, as name=path.mdq (repeatable)")
	var liveSources sourceFlags
	fs.Var(&liveSources, "source", "live external source, as context/relation=url-or-path (repeatable; http(s) URLs poll with ETag revalidation, files by mtime)")
	sourceRefresh := fs.Duration("source-refresh", 0, "background poll interval for live sources across resident sessions (0 = refresh only via the API)")
	sourceTTL := fs.Duration("source-ttl", 0, "freshness window for fetched source snapshots (0 = revalidate on every resolve)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *example {
		sources = append(sources, server.ContextSource{
			Name:   "hospital",
			Source: mdqa.HospitalQualityExampleSource(),
		})
	}
	if len(sources) == 0 {
		return fmt.Errorf("nothing to serve: pass -example and/or -context name=path.mdq")
	}
	for _, b := range liveSources {
		bound := false
		for i := range sources {
			if sources[i].Name == b.context {
				var opts []mdqa.SourceOption
				if *sourceTTL > 0 {
					opts = append(opts, mdqa.SourceTTL(*sourceTTL))
				}
				sources[i].Options = append(sources[i].Options, mdqa.WithSource(b.relation, b.source(), opts...))
				bound = true
			}
		}
		if !bound {
			return fmt.Errorf("-source %s/%s: no such context (declare it with -context or -example first)", b.context, b.relation)
		}
	}

	mode, err := wal.ParseSyncMode(*fsync)
	if err != nil {
		return err
	}
	srv, err := server.New(ctx, server.Config{
		Parallelism:   *parallelism,
		MaxSessions:   *maxSessions,
		DataDir:       *dataDir,
		Fsync:         mode,
		SnapshotEvery: *snapshotEvery,
		MaxResident:   *maxResident,
		HistoryDepth:  *historyDepth,
	}, sources)
	if err != nil {
		return err
	}
	log.Printf("mdserve: serving contexts %s on %s", strings.Join(srv.Contexts(), ", "), *addr)

	// Profiling stays off the serving listener: -pprof binds its own
	// address (keep it loopback-only in production) so the profile
	// endpoints are never exposed alongside the API. Registered on a
	// private mux — the DefaultServeMux side effects of importing
	// net/http/pprof are not relied on.
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("mdserve: pprof on %s", *pprofAddr)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("mdserve: pprof listener: %v", err)
			}
		}()
	}

	// Request contexts are decoupled from the signal context: a SIGTERM
	// stops the listener and drains in-flight work rather than aborting
	// it mid-apply. Only when the drain window closes are the
	// stragglers cancelled.
	reqCtx, reqCancel := context.WithCancel(context.Background())
	defer reqCancel()
	if *sourceRefresh > 0 {
		log.Printf("mdserve: polling live sources every %s", *sourceRefresh)
		go srv.RefreshLoop(reqCtx, *sourceRefresh)
	}
	hs := &http.Server{
		Addr:        *addr,
		Handler:     srv,
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
		log.Printf("mdserve: shutting down (drain %s)", *drain)
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			// Drain window elapsed with requests still in flight: cut
			// them off but still shut down cleanly — acknowledged work
			// is in the WAL regardless.
			log.Printf("mdserve: drain incomplete: %v", err)
			reqCancel()
			_ = hs.Close()
		}
		reqCancel()
		if err := srv.Close(); err != nil {
			// Final snapshots are an optimization over WAL replay; a
			// failure here loses no acknowledged data.
			log.Printf("mdserve: flush durable sessions: %v", err)
		}
		return nil
	}
}
