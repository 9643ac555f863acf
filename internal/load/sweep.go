package load

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/router"
	"repro/internal/server"
	"repro/mdqa"
)

// SweepSpec parameterizes RunShardSweep: the same open-loop workload
// offered to one direct backend and to mdrouter in front of 1..N
// in-process shards, all on loopback listeners. The direct-vs-router
// shards=1 pair isolates the router's added latency; the shard sweep
// shows how capacity scales when sessions spread across backends.
type SweepSpec struct {
	// Shards are the router fleet sizes to sweep, e.g. [1, 2, 4].
	Shards []int
	// Load is the per-run workload. Target is overwritten per run;
	// Sessions should be >= the largest shard count to give the ring
	// something to spread.
	Load Spec
	// Parallelism is each backend's engine pool (0 = server default).
	Parallelism int
}

// shard is one in-process mdserve.
type shard struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func startShard(ctx context.Context, parallelism int) (*shard, error) {
	srv, err := server.New(ctx, server.Config{Parallelism: parallelism}, []server.ContextSource{{
		Name:   "hospital",
		Source: mdqa.HospitalQualityExampleSource(),
	}})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sh := &shard{
		srv:  srv,
		hs:   &http.Server{Handler: srv},
		url:  "http://" + l.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { sh.done <- sh.hs.Serve(l) }()
	return sh, nil
}

func (sh *shard) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = sh.hs.Shutdown(ctx)
	<-sh.done
}

// runOne boots the topology, runs the load, tears down, and returns
// the report.
func runOne(ctx context.Context, spec SweepSpec, name string, shards int, viaRouter bool) (Report, error) {
	var backends []*shard
	defer func() {
		for _, sh := range backends {
			sh.stop()
		}
	}()
	for i := 0; i < shards; i++ {
		sh, err := startShard(ctx, spec.Parallelism)
		if err != nil {
			return Report{}, err
		}
		backends = append(backends, sh)
	}
	ls := spec.Load
	ls.Target.Context = "hospital"
	if viaRouter {
		var urls []string
		for _, sh := range backends {
			urls = append(urls, sh.url)
		}
		rt, err := router.New(router.Config{Backends: urls})
		if err != nil {
			return Report{}, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return Report{}, err
		}
		fhs := &http.Server{Handler: rt}
		done := make(chan error, 1)
		go func() { done <- fhs.Serve(l) }()
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = fhs.Shutdown(sctx)
			<-done
		}()
		ls.Target.BaseURL = "http://" + l.Addr().String()
	} else {
		ls.Target.BaseURL = backends[0].url
	}
	res, err := Run(ctx, ls)
	if err != nil {
		return Report{}, err
	}
	if res.Completed == 0 {
		return Report{}, fmt.Errorf("load: run %s completed nothing (last error: %v)", name, res.LastErr)
	}
	return NewReport(name, ls, res), nil
}

// RunShardSweep runs direct (no router, 1 backend) plus router runs at
// each shard count and returns one report per run.
func RunShardSweep(ctx context.Context, spec SweepSpec) ([]Report, error) {
	if len(spec.Shards) == 0 {
		spec.Shards = []int{1, 2, 4}
	}
	direct, err := runOne(ctx, spec, "direct/shards=1", 1, false)
	if err != nil {
		return nil, err
	}
	reports := []Report{direct}
	for _, n := range spec.Shards {
		r, err := runOne(ctx, spec, fmt.Sprintf("router/shards=%d", n), n, true)
		if err != nil {
			return nil, err
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// RouterOverheadP50 extracts the acceptance number: the relative p50
// read-latency overhead of router/shards=1 over direct (0.07 = +7%).
func RouterOverheadP50(reports []Report) (float64, error) {
	var direct, routed *Report
	for i := range reports {
		switch reports[i].Name {
		case "direct/shards=1":
			direct = &reports[i]
		case "router/shards=1":
			routed = &reports[i]
		}
	}
	if direct == nil || routed == nil || direct.Read.P50Us == 0 {
		return 0, fmt.Errorf("load: sweep lacks the direct/router shards=1 pair")
	}
	return routed.Read.P50Us/direct.Read.P50Us - 1, nil
}
