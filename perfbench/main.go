// Command perfbench is the repository benchmark. Each run sets up one
// workload against an in-process mdserve (internal/server) behind a
// real TCP loopback listener, drives it from the same process, checks
// every output, and prints its metrics. README.md explains the
// workloads and what is deliberately left out of them.
//
// Build and run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload cold_assess|ingest|dashboard --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, measured with tracing off. With --trace 1
// the run instead replays a sample of every workload's ops at three
// depths (HTTP, the mdqa calls the handler makes, and a pipeline of
// engine, chase, eval, storage, wal and persist calls) and reports the
// per-layer metrics. The line before it annotates the result with the
// machine, the Go version and per-workload notes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cold_assess, ingest or dashboard")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for data dirs and trace spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if _, ok := setups[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (cold_assess, ingest, dashboard)\n", *workload)
		return 2
	}
	e := &env{seed: *seed, seconds: *seconds, dataRoot: filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid()))}
	e.gate = newStealGate(time.Duration(*seconds) * time.Second / 2)
	defer e.gate.close()
	if err := os.MkdirAll(e.dataRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.dataRoot)

	ctx := context.Background()
	var o *outcome
	var err error
	if *trace == 1 {
		o, err = runTrace(ctx, e, filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.ndjson", *workload, *seed)))
	} else {
		o, err = runWorkload(ctx, *workload, e)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	note := map[string]any{
		"workload": *workload,
		"seed":     *seed,
		"seconds":  *seconds,
		"trace":    *trace,
		"env": map[string]any{
			"nproc":       runtime.NumCPU(),
			"gomaxprocs":  runtime.GOMAXPROCS(0),
			"go":          runtime.Version(),
			"os_arch":     runtime.GOOS + "/" + runtime.GOARCH,
			"data_dir_fs": fsName(e.dataRoot),
		},
		"notes": o.notes,
		"steal": map[string]any{
			"threshold":     stealThreshold,
			"spent_s":       time.Duration(e.gate.spent.Load()).Seconds(),
			"blocks_redone": e.gate.redone.Load(),
		},
	}
	if first := o.t.firstErr; first != nil {
		note["first_error"] = first.Error()
	}
	res := result{
		Correct:   o.t.wrong.Load() == 0 && o.checksOK,
		Attempted: o.t.attempted.Load(),
		Failed:    o.t.failed.Load(),
		Metrics:   o.metrics,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"perfbench": note}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// fsName names the filesystem dir lives on, from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs",
		0xEF53:     "ext4",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
