package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tailLadder lists the percentiles tail_ms may report, in per mille,
// highest first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPermille returns the highest percentile of tailLadder (in per
// mille) that leaves at least 10 of n samples beyond it, and false when
// n is too small for any of them.
func tailPermille(n int) (int, bool) {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			return pm, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank quantile pm (per mille) of sorted,
// the sample ceil(pm*n/1000) in one-based order.
func quantile(sorted []time.Duration, pm int) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := (pm*n + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// latencies holds one phase's exact per-op latencies. Percentiles come
// from order statistics, not from load.Histogram buckets: a bucket is
// 3% wide, so a steady p50 would read the same bucket midpoint on every
// run and hide changes smaller than a bucket.
type latencies []time.Duration

// summary is what the end-to-end metrics report about one phase.
type summary struct {
	N         int
	P50       time.Duration
	Tail      time.Duration
	TailPerMl int
}

func (l latencies) sorted() latencies {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func (l latencies) median() time.Duration { return quantile(l.sorted(), 500) }

func (l latencies) summarize() (summary, error) {
	pm, ok := tailPermille(len(l))
	if !ok {
		return summary{}, fmt.Errorf("%d samples: too few for a tail percentile with 10 samples beyond it", len(l))
	}
	return l.summarizeAt(pm)
}

// summarizeAt is summarize with the tail percentile fixed at pm (per
// mille), which must still leave at least 10 samples beyond it.
func (l latencies) summarizeAt(pm int) (summary, error) {
	if len(l)*(1000-pm) < 10*1000 {
		return summary{}, fmt.Errorf("%d samples: too few for p%.1f with 10 samples beyond it", len(l), float64(pm)/10)
	}
	s := l.sorted()
	return summary{N: len(s), P50: quantile(s, 500), Tail: quantile(s, pm), TailPerMl: pm}, nil
}

// tally counts attempted and failed ops, and among the failed ones
// those whose output check failed; safe for concurrent use.
type tally struct {
	attempted, failed, wrong atomic.Int64
	mu                       sync.Mutex
	firstErr                 error
}

func (t *tally) record(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	if errors.As(err, new(*checkError)) {
		t.wrong.Add(1)
	}
	t.mu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.mu.Unlock()
}

// closedLoop runs ops 0..n-1 over `clients` goroutines, each sending
// its next op only after the previous one completed and g let it
// through, and stops early at deadline (ops not started by then count
// as failed). It returns the latency of every completed op, ordered by
// op index, and the wall time from the first send to the last
// completion, less the time g held ops back.
func closedLoop(ctx context.Context, g *stealGate, clients, n int, deadline time.Time, t *tally, do func(ctx context.Context, i int) error) (latencies, time.Duration) {
	lat := make([]time.Duration, n)
	done := make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start, spent0 := time.Now(), g.spent.Load()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if time.Now().After(deadline) || ctx.Err() != nil {
					t.record(errors.New("closed loop: deadline passed before the op was sent"))
					continue
				}
				g.wait(ctx)
				t0 := time.Now()
				err := do(ctx, i)
				lat[i] = time.Since(t0)
				done[i] = err == nil
				t.record(err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start) - time.Duration(g.spent.Load()-spent0)
	var out latencies
	for i, ok := range done {
		if ok {
			out = append(out, lat[i])
		}
	}
	return out, elapsed
}

// closedLoopFor runs ops from an endless stream over `clients`
// goroutines for d and returns how many completed.
func closedLoopFor(ctx context.Context, clients int, d time.Duration, t *tally, do func(ctx context.Context, i int) error) int64 {
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	stop := time.Now().Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) && ctx.Err() == nil {
				err := do(ctx, int(next.Add(1)-1))
				t.record(err)
				if err == nil {
					completed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return completed.Load()
}

// openOp is one scheduled op of an open loop.
type openOp struct {
	Due, Sent, Done time.Time
	Dropped         bool
	Err             error
}

// Latency is the op's time from when it was due to when it completed,
// so a stall also delays every op queued behind it.
func (o openOp) Latency() time.Duration { return o.Done.Sub(o.Due) }

// Lateness is how late the generator sent the op.
func (o openOp) Lateness() time.Duration { return o.Sent.Sub(o.Due) }

// openLoop offers n ops at a fixed rate (op i is due at start+i/rate)
// to `workers` senders, whatever the server's speed. An op that finds
// `backlog` ops already waiting is dropped. It returns one record per
// op, in op order.
func openLoop(ctx context.Context, rate float64, n, workers, backlog int, do func(ctx context.Context, i int) error) []openOp {
	ops := make([]openOp, n)
	// The queue holds at most `backlog` due ops; beyond that the
	// generator drops instead of blocking, so it never falls behind
	// its own schedule because the server is slow.
	queue := make(chan int, backlog)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				ops[i].Sent = time.Now()
				ops[i].Err = do(ctx, i)
				ops[i].Done = time.Now()
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ops[i].Due = due
		if ctx.Err() != nil {
			ops[i].Dropped = true
			continue
		}
		select {
		case queue <- i:
		default:
			ops[i].Dropped = true
		}
	}
	close(queue)
	wg.Wait()
	return ops
}
