// Command mdload offers an open-loop workload to an mdserve (or
// mdrouter) endpoint: arrivals are scheduled at a fixed rate — the
// offered load does not slow down when the server does, so overload
// shows up as queueing latency and shed arrivals rather than a
// silently reduced rate — with zipf-skewed session popularity, a
// configurable read/write mix, and per-op latency histograms measured
// from scheduled arrival time.
//
// Usage:
//
//	mdload -url http://localhost:8080 -context hospital -rate 500 -duration 10s
//	mdload -url ... -rr 0.8 -zipf 1.1 -sessions 32 -delta 8 -json LOAD_1.json
//	mdload -sweep 1,2,4 -rate 400 -duration 8s -json LOAD_9.json
//
// The -sweep form needs no -url: it boots in-process mdserve shards on
// loopback — the same server package the mdserve binary runs — and
// drives the workload directly against one backend and through
// mdrouter at each shard count, one LOAD report per topology.
//
// Exit status: 0 on success; 1 on harness errors; 2 when -max-error-rate
// is exceeded (for CI smoke gates).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/load"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdload:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(ctx context.Context, args []string) (int, error) {
	fs := flag.NewFlagSet("mdload", flag.ContinueOnError)
	url := fs.String("url", "", "target base URL (mdserve or mdrouter)")
	contextName := fs.String("context", "hospital", "context name under /v1/contexts/")
	rate := fs.Float64("rate", 200, "offered arrival rate, ops/sec (open loop)")
	duration := fs.Duration("duration", 10*time.Second, "how long to offer arrivals")
	workers := fs.Int("workers", 0, "max in-flight ops (0 = sized from rate)")
	sessions := fs.Int("sessions", 8, "session population (ids \"<prefix>-<i>\")")
	prefix := fs.String("session-prefix", "lg", "session id prefix")
	zipf := fs.Float64("zipf", 0.9, "session popularity skew (0 = uniform)")
	rr := fs.Float64("rr", 0.9, "read ratio: fraction of ops that are answer reads")
	delta := fs.Int("delta", 4, "fact pairs per write batch")
	patients := fs.Int("patients", 16, "patient population per session")
	seedBatches := fs.Int("seed-batches", 1, "write batches pre-applied per session before the clock starts (scales read data volume)")
	mode := fs.String("mode", "clean", "answers mode: clean or raw")
	readScope := fs.String("read-scope", "patient", "read query scope: patient (point read) or relation (full scan)")
	seed := fs.Int64("seed", 1, "op-sequence seed")
	jsonPath := fs.String("json", "", "write LOAD report JSON here")
	maxErrRate := fs.Float64("max-error-rate", -1, "exit 2 when the error fraction exceeds this (negative = no gate)")
	sweep := fs.String("sweep", "", "comma-separated shard counts (e.g. 1,2,4): boot in-process shards and sweep direct + router topologies instead of hitting -url")
	parallelism := fs.Int("parallelism", 0, "with -sweep: engine pool per in-process shard (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 1, err
	}

	spec := load.Spec{
		Target:        gen.HTTPTarget{BaseURL: strings.TrimRight(*url, "/"), Context: *contextName},
		Rate:          *rate,
		Duration:      *duration,
		Workers:       *workers,
		Sessions:      *sessions,
		SessionPrefix: *prefix,
		Zipf:          *zipf,
		ReadRatio:     *rr,
		DeltaAtoms:    *delta,
		Patients:      *patients,
		SeedBatches:   *seedBatches,
		Mode:          *mode,
		ReadScope:     *readScope,
		Seed:          *seed,
	}

	if *sweep != "" {
		return runSweep(ctx, spec, *sweep, *parallelism, *jsonPath)
	}
	if *url == "" {
		return 1, fmt.Errorf("pass -url (or -sweep for the in-process topology sweep)")
	}
	res, err := load.Run(ctx, spec)
	if err != nil {
		return 1, err
	}
	rep := load.NewReport("mdload", spec, res)
	fmt.Print(load.FormatReport(rep))
	if *jsonPath != "" {
		if err := load.WriteLoadJSON(*jsonPath, []load.Report{rep}); err != nil {
			return 1, err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *maxErrRate >= 0 && rep.ErrorRate() > *maxErrRate {
		return 2, fmt.Errorf("error rate %.4f exceeds gate %.4f (last error: %v)", rep.ErrorRate(), *maxErrRate, res.LastErr)
	}
	return 0, nil
}

func runSweep(ctx context.Context, spec load.Spec, shardsCSV string, parallelism int, jsonPath string) (int, error) {
	var shards []int
	for _, f := range strings.Split(shardsCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return 1, fmt.Errorf("bad -sweep entry %q", f)
		}
		shards = append(shards, n)
	}
	reports, err := load.RunShardSweep(ctx, load.SweepSpec{
		Shards:      shards,
		Load:        spec,
		Parallelism: parallelism,
	})
	if err != nil {
		return 1, err
	}
	for _, r := range reports {
		fmt.Print(load.FormatReport(r))
	}
	if overhead, err := load.RouterOverheadP50(reports); err == nil {
		fmt.Printf("router overhead at shards=1: %+.1f%% read p50\n", overhead*100)
	}
	if jsonPath != "" {
		if err := load.WriteLoadJSON(jsonPath, reports); err != nil {
			return 1, err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return 0, nil
}
