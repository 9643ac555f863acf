package main

import (
	"bufio"
	"context"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// stealGate keeps CPU time the hypervisor steals from this machine out
// of the measurements. Steal comes from other tenants of the host, never
// from the program, and it comes in episodes of tens of seconds. On a
// 2-vCPU machine an op that overlaps one is slowed by several times the
// stolen share, because the engine's parallel rounds and the
// collector's stop-the-world phases wait for the stolen CPU: 7% steal
// made ingest's p50 27% slower in probes.
//
// Read-only blocks of ops run again when more than stealThreshold of
// the machine's CPU time was stolen while they ran (quietly); ops that
// change state wait until the last second was quiet (wait). Both stop
// trying once the run's budget is spent, and the run's notes report
// the time spent. Where /proc/stat cannot be read nothing waits or
// runs again.
type stealGate struct {
	frac   atomic.Uint64 // steal share of the last window, in 1e-6
	budget time.Duration
	// spent is the time waited plus the time of blocks run again.
	spent  atomic.Int64
	redone atomic.Int64
	stop   chan struct{}
	wg     sync.WaitGroup
}

const (
	stealThreshold = 0.03
	stealWindow    = time.Second
	stealSample    = 100 * time.Millisecond
)

// readSteal returns the machine's total and steal CPU time in clock
// ticks, from the first line of /proc/stat.
func readSteal() (total, steal uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0, false
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9 and 10) are already counted
		// in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// newStealGate starts sampling steal; stop it with close.
func newStealGate(budget time.Duration) *stealGate {
	g := &stealGate{budget: budget, stop: make(chan struct{})}
	if _, _, ok := readSteal(); !ok {
		return g
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		type sample struct{ total, steal uint64 }
		n := int(stealWindow / stealSample)
		ring := make([]sample, 0, n+1)
		t := time.NewTicker(stealSample)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
			total, steal, ok := readSteal()
			if !ok {
				continue
			}
			ring = append(ring, sample{total, steal})
			if len(ring) > n+1 {
				ring = ring[1:]
			}
			first, last := ring[0], ring[len(ring)-1]
			if last.total > first.total {
				g.frac.Store((last.steal - first.steal) * 1e6 / (last.total - first.total))
			}
		}
	}()
	return g
}

func (g *stealGate) left() bool { return time.Duration(g.spent.Load()) < g.budget }

// wait returns once the last window's steal is below the threshold, or
// when the run's budget is spent.
func (g *stealGate) wait(ctx context.Context) {
	for g.left() && ctx.Err() == nil {
		if float64(g.frac.Load())/1e6 < stealThreshold {
			return
		}
		time.Sleep(stealSample)
		g.spent.Add(int64(stealSample))
	}
}

// quietly runs block until a run of it sees less than stealThreshold of
// the machine's CPU time stolen, or the budget is spent, and returns the
// last run's result. block must leave the program's state as it found
// it.
func quietly[T any](ctx context.Context, g *stealGate, block func() T) T {
	for {
		t0, s0, ok0 := readSteal()
		start := time.Now()
		r := block()
		t1, s1, ok1 := readSteal()
		if !ok0 || !ok1 || t1 <= t0 || float64(s1-s0) < stealThreshold*float64(t1-t0) || !g.left() || ctx.Err() != nil {
			return r
		}
		g.redone.Add(1)
		g.spent.Add(int64(time.Since(start)))
	}
}

// close stops the sampler and waits for it to exit.
func (g *stealGate) close() {
	close(g.stop)
	g.wg.Wait()
}

// stealTrace samples the machine's steal counter every
// stealTraceSample while it runs, so that short ops can be checked one
// by one for CPU time the host stole while they ran. A block of
// dashboard reads that overlaps a steal episode is not slowed evenly:
// the few reads that ran while a vCPU was taken away for a time slice
// take two to four times as long, and at 5% steal they are enough to
// double the block's p95. The kernel adds steal at its next scheduler
// tick (every 4 ms at HZ=250 on a busy vCPU, later on an idle one), so
// an op counts as stolen when the counter rose between the last sample
// read before the op was due and the first sample read stealTraceSlack
// or more after it completed.
type stealTrace struct {
	read func() (uint64, bool)
	// Sample k read val[k] between begin[k] and end[k].
	begin, end []time.Time
	val        []uint64
	stop       chan struct{}
	wg         sync.WaitGroup
}

const (
	stealTraceSample = 5 * time.Millisecond
	stealTraceSlack  = 10 * time.Millisecond
)

// machineSteal reads the machine's steal time in clock ticks.
func machineSteal() (uint64, bool) {
	_, steal, ok := readSteal()
	return steal, ok
}

// startStealTrace takes a first sample from read and keeps sampling
// until close. Where read fails nothing counts as stolen.
func startStealTrace(read func() (uint64, bool)) *stealTrace {
	s := &stealTrace{read: read, stop: make(chan struct{})}
	if !s.sample() {
		return s
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(stealTraceSample)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *stealTrace) sample() bool {
	begin := time.Now()
	v, ok := s.read()
	if ok {
		s.begin = append(s.begin, begin)
		s.end = append(s.end, time.Now())
		s.val = append(s.val, v)
	}
	return ok
}

// close waits stealTraceSlack, so that steal during the last op is
// counted, takes a last sample and stops the sampler.
func (s *stealTrace) close() {
	time.Sleep(stealTraceSlack)
	close(s.stop)
	s.wg.Wait()
	s.sample()
}

// stolen reports whether the host stole CPU time between from and to.
// Call it after close.
func (s *stealTrace) stolen(from, to time.Time) bool {
	n := len(s.val)
	if n == 0 {
		return false
	}
	// i is the last sample read by from, j the first read from
	// to + stealTraceSlack on; past the ends the first and last
	// samples stand in.
	i := sort.Search(n, func(k int) bool { return s.end[k].After(from) }) - 1
	j := sort.Search(n, func(k int) bool { return !s.begin[k].Before(to.Add(stealTraceSlack)) })
	i = max(i, 0)
	j = min(j, n-1)
	return s.val[j] > s.val[i]
}
