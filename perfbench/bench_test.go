package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
)

func TestTailPermille(t *testing.T) {
	for _, c := range []struct {
		n, want int
		ok      bool
	}{
		{19, 0, false},
		{20, 500, true},
		{39, 500, true},
		{40, 750, true},
		{99, 750, true},
		{100, 900, true},
		{199, 900, true},
		{200, 950, true},
		{999, 950, true},
		{1000, 990, true},
		{10000, 999, true},
	} {
		got, ok := tailPermille(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPermille(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 57, 100, 150, 200, 880, 1000, 10000} {
		var l latencies
		for i := n; i >= 1; i-- { // unsorted on purpose
			l = append(l, time.Duration(i)*time.Millisecond)
		}
		s, err := l.summarize()
		if err != nil {
			t.Fatal(err)
		}
		beyond := 0
		for _, d := range l {
			if d > s.Tail {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%.1f = %v leaves %d samples beyond it, want >= 10", n, float64(s.TailPerMl)/10, s.Tail, beyond)
		}
		if want := time.Duration((n+1)/2) * time.Millisecond; s.P50 != want {
			t.Errorf("n=%d: p50 = %v, want %v", n, s.P50, want)
		}
	}
	if _, err := (latencies{time.Millisecond}).summarize(); err == nil {
		t.Error("one sample: want an error, not a tail percentile")
	}
}

// A stalled op must show up as lateness of the ops queued behind it,
// and their latency must count from when they were due.
func TestOpenLoopStallShowsAsLateness(t *testing.T) {
	const stall = 60 * time.Millisecond
	ops := openLoop(context.Background(), 100, 10, 1, 10, func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, op := range ops {
		if op.Dropped || op.Err != nil {
			t.Fatalf("op %d: dropped=%v err=%v", i, op.Dropped, op.Err)
		}
		if op.Latency() < op.Lateness() {
			t.Errorf("op %d: latency %v shorter than its lateness %v", i, op.Latency(), op.Lateness())
		}
	}
	// Op i is due at 10ms*i; the worker frees up at about 60ms.
	for i := 1; i <= 3; i++ {
		if want := stall - time.Duration(i)*10*time.Millisecond - 5*time.Millisecond; ops[i].Lateness() < want {
			t.Errorf("op %d: lateness %v, want >= %v behind the stalled op", i, ops[i].Lateness(), want)
		}
	}
	if ops[1].Lateness() <= ops[3].Lateness() {
		t.Errorf("lateness should shrink as the queue drains: op1 %v, op3 %v", ops[1].Lateness(), ops[3].Lateness())
	}
}

func TestOpenLoopDropsBeyondBacklog(t *testing.T) {
	ops := openLoop(context.Background(), 1000, 20, 1, 2, func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	})
	dropped := 0
	for _, op := range ops {
		if op.Dropped {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("a 50ms stall at 1000 ops/s with a backlog of 2 must drop ops")
	}
}

func TestOpStreamsArePureFunctionsOfSeed(t *testing.T) {
	if !reflect.DeepEqual(coldOrder(3, 100), coldOrder(3, 100)) || reflect.DeepEqual(coldOrder(3, 100), coldOrder(4, 100)) {
		t.Error("coldOrder must depend on the seed and only on it")
	}
	if !reflect.DeepEqual(dashOps(3, 25), dashOps(3, 25)) || reflect.DeepEqual(dashOps(3, 25), dashOps(4, 25)) {
		t.Error("dashOps must depend on the seed and only on it")
	}
	for _, seed := range []int64{3, 4} {
		kinds := map[dashKind]int{}
		for _, op := range dashOps(seed, 25)[:20*5] {
			kinds[op.kind]++
		}
		if want := map[dashKind]int{dashAnswers: 55, dashAssessment: 25, dashAsOf: 20}; !reflect.DeepEqual(kinds, want) {
			t.Errorf("seed %d: 100 ops hold %v, want %v", seed, kinds, want)
		}
	}
	n := ingestOps(7)
	a, b := ingestOrder(3, ingestSessions, n), ingestOrder(3, ingestSessions, n)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, ingestOrder(4, ingestSessions, n)) {
		t.Error("ingestOrder must depend on the seed and only on it")
	}
	per := make([]int, ingestSessions)
	for _, s := range a {
		per[s]++
	}
	for s, got := range per {
		if got != n/ingestSessions {
			t.Errorf("session %d gets %d of %d ticks, want %d", s, got, n, n/ingestSessions)
		}
	}

	b1, c1, err := coldInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	b2, c2, err := coldInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(c1, c2) {
		t.Error("coldInputs must be a function of the seed")
	}
	if bytes.Equal(b1[0], b1[1]) {
		t.Error("each cold body must be a distinct instance")
	}

	lines := func(seed int64) [][]byte {
		wl, err := gen.NewStreamingWorkload(streamSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for i := 0; i < 8; i++ {
			atoms, _ := wl.Tick(i)
			line, err := applyLine(atoms)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, line)
		}
		return out
	}
	if !reflect.DeepEqual(lines(5), lines(5)) {
		t.Error("ingest batches must be a function of the seed")
	}
}

func TestSelfTimesNested(t *testing.T) {
	sp := func(depth int, call, parent string, start, end int64) span {
		layer, _, _ := strings.Cut(call, ".")
		return span{Workload: "w", Op: 1, Depth: depth, Call: call, Layer: layer, Parent: parent, StartNs: start, EndNs: end}
	}
	spans := []span{
		sp(1, "server.http", "", 0, 100),
		sp(2, "server.decode", "server.http", 0, 10),
		sp(2, "quality.open", "server.http", 10, 70),
		sp(2, "quality.assess", "server.http", 70, 90),
		sp(3, "engine.open", "quality.open", 0, 50),
		sp(4, "storage.merge", "engine.open", 0, 5),
		sp(4, "chase.cold", "engine.open", 5, 35),
		sp(4, "eval.init", "engine.open", 35, 45),
		// Another op's spans must not count as children.
		{Workload: "w", Op: 2, Depth: 3, Layer: "engine", Call: "engine.open", Parent: "quality.open", EndNs: 1000},
	}
	want := []int64{10, 10, 10, 20, 5, 5, 30, 10, 1000}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	r := newLayerReport("w", spans[:8])
	if r.coverage != r.httpDur {
		t.Errorf("self times of a consistent tree must add up to the HTTP op: %d vs %d", r.coverage, r.httpDur)
	}
	if got := r.calls["server.http"].dur - r.outside; got != 20 {
		t.Errorf("server self = %d, want 20: the op minus the quality calls, decode included", got)
	}

	// A child measured longer than its parent makes the parent's self
	// time negative; coverage counts it as zero and rises above 1.
	spans[4].EndNs = 65
	r = newLayerReport("w", spans[:8])
	if r.coverage <= r.httpDur {
		t.Errorf("coverage %d should exceed the HTTP op %d when a child outlasts its parent", r.coverage, r.httpDur)
	}
}

// fakeServer answers every request with body.
func fakeServer(t *testing.T, body string) *client {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	return newClient(ts.URL, 1)
}

func TestChecksRejectWrongCounts(t *testing.T) {
	ctx := context.Background()
	var tl tally

	cold := &coldFixture{cl: fakeServer(t, `{"context":"ward","versions":{},"measures":{"Measurements":{"original":800,"quality":399}}}`+"\n"), bodies: [][]byte{[]byte("{}")}, clean: []int{400}}
	tl.record(cold.op(ctx, 0))

	dash := &dashFixture{
		cl:    fakeServer(t, "{\"answer\":[\"a\"]}\n{\"answer\":[\"b\"]}\n{\"count\":2}\n"),
		sids:  []string{"d0"},
		clean: [][]int{make([]int, dashSeedTicks+1)},
		ops:   []dashOp{{kind: dashAnswers}},
	}
	dash.clean[0][dashSeedTicks] = 3
	tl.record(dash.op(ctx, 0))

	ingest := &ingestFixture{
		cl: fakeServer(t, `{"inserted":15,"chase_rows":15}`+"\n"), sids: []string{"i0"},
		lines: [][]byte{[]byte("{}\n")}, sess: []int{0}, atoms: []int{16}, acked: []bool{false},
	}
	tl.record(ingest.op(ctx, 0))
	if !ingest.acked[0] {
		t.Error("an acknowledged batch with a wrong count is still acknowledged")
	}

	if got := tl.wrong.Load(); got != 3 {
		t.Fatalf("wrong outputs = %d, want 3 (first error: %v)", got, tl.firstErr)
	}
	if got := tl.failed.Load(); got != 3 {
		t.Fatalf("failed ops = %d, want 3", got)
	}

	dash.clean[0][dashSeedTicks] = 2
	if err := dash.op(ctx, 0); err != nil {
		t.Fatalf("a right count must pass: %v", err)
	}

	// A stream whose count line disagrees with the rows it carried is
	// a failed op.
	bad := fakeServer(t, "{\"answer\":[\"a\"]}\n{\"count\":2}\n")
	if _, err := bad.answers(ctx, "/x"); err == nil {
		t.Error("count line 2 after 1 answer: want an error")
	}
	noCount := fakeServer(t, "{\"answer\":[\"a\"]}\n")
	if _, err := noCount.answers(ctx, "/x"); err == nil {
		t.Error("stream without a count line: want an error")
	}
	var plain tally
	plain.record(errors.New("http 500"))
	if plain.wrong.Load() != 0 || plain.failed.Load() != 1 {
		t.Error("a failed request is a failed op, not a wrong output")
	}
}

func TestStealTraceFlagsOpsThatOverlapSteal(t *testing.T) {
	if stealTraceSlack != 10*time.Millisecond {
		t.Fatalf("the cases below assume a slack of 10ms, not %v", stealTraceSlack)
	}
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// A sample every 5 ms, each read within 1 ms; the counter rises once,
	// between the samples at 20 and 25 ms.
	s := &stealTrace{}
	for k := 0; k <= 20; k++ {
		s.begin = append(s.begin, at(5*k))
		s.end = append(s.end, at(5*k+1))
		s.val = append(s.val, map[bool]uint64{false: 7, true: 8}[5*k >= 25])
	}
	for _, c := range []struct {
		from, to int
		want     bool
	}{
		{2, 8, false},   // samples 0 and 20 ms: no rise
		{18, 22, true},  // samples 15 and 35 ms
		{12, 19, true},  // the rise fell within the slack after the op
		{26, 40, false}, // samples 25 and 50 ms: after the rise
		{0, 200, true},  // runs past the last sample, which stands in
	} {
		if got := s.stolen(at(c.from), at(c.to)); got != c.want {
			t.Errorf("op %d..%d ms: stolen = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if (&stealTrace{}).stolen(t0, at(10)) {
		t.Error("without samples nothing counts as stolen")
	}

	// Live: close takes a last sample after the slack, so steal during
	// the last op is seen.
	var counter atomic.Uint64
	live := startStealTrace(func() (uint64, bool) { return counter.Load(), true })
	time.Sleep(20 * time.Millisecond)
	from := time.Now()
	counter.Add(1)
	to := time.Now()
	live.close()
	if !live.stolen(from, to) {
		t.Error("the counter rose during the op: want it counted as stolen")
	}
	dead := startStealTrace(func() (uint64, bool) { return 0, false })
	dead.close()
	if dead.stolen(from, to) {
		t.Error("without a steal counter nothing counts as stolen")
	}
}

func TestSummarizeAtKeepsTheGivenPercentile(t *testing.T) {
	var l latencies
	for i := 1; i <= 400; i++ {
		l = append(l, time.Duration(i)*time.Millisecond)
	}
	s, err := l.summarizeAt(950)
	if err != nil || s.TailPerMl != 950 || s.Tail != 380*time.Millisecond {
		t.Errorf("p95 of 1..400 ms = %v (p%.1f), %v; want 380ms", s.Tail, float64(s.TailPerMl)/10, err)
	}
	if _, err := l[:199].summarizeAt(950); err == nil {
		t.Error("199 samples leave 9 beyond p95: want an error")
	}
}
