package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/mdqa"
)

// TestAnswerStreamSlowIterator pins what batching must keep: the first
// row reaches the client while the iterator is still running, and a
// row written at least answerFlushEvery after the last flush is
// flushed even though the iterator then blocks.
func TestAnswerStreamSlowIterator(t *testing.T) {
	srv := &Server{}
	firstRead := make(chan struct{})
	secondRead := make(chan struct{})
	row := func(s string) mdqa.Answer { return mdqa.Answer{Terms: []mdqa.Term{mdqa.Const(s)}} }
	seq := func(yield func(mdqa.Answer, error) bool) {
		if !yield(row("first"), nil) {
			return
		}
		select {
		case <-firstRead:
		case <-time.After(10 * time.Second):
			t.Error("row 1 did not reach the client while the iterator was blocked")
			return
		}
		time.Sleep(answerFlushEvery)
		if !yield(row("second"), nil) {
			return
		}
		select {
		case <-secondRead:
		case <-time.After(10 * time.Second):
			t.Error("a row written answerFlushEvery after the last flush did not reach the client")
		}
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.streamAnswers(r.Context(), w, "test", seq)
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var lines []string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			break
		}
		lines = append(lines, strings.TrimSpace(line))
		switch len(lines) {
		case 1:
			close(firstRead)
		case 2:
			close(secondRead)
		}
	}
	want := []string{`{"answer":["first"]}`, `{"answer":["second"]}`, `{"count":2}`}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stream = %q, want %q", lines, want)
	}
}

// countingListener counts the writes and bytes every accepted
// connection makes to its socket.
type countingListener struct {
	net.Listener
	writes, bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// TestAnswerStreamWriteCount: a long answer stream costs socket writes
// in proportion to its bytes, not its rows.
func TestAnswerStreamWriteCount(t *testing.T) {
	srv, err := New(context.Background(), Config{Parallelism: 1}, []ContextSource{{
		Name:   "hospital",
		Source: mdqa.HospitalQualityExampleSource(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv)
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	defer ts.Close()

	const rows = 2500
	tuples := make([][]string, rows)
	for i := range tuples {
		tuples[i] = []string{fmt.Sprintf("Sep/5-%05d", i), "Tom Waits", "37.5"}
	}
	body, err := json.Marshal(SessionCreateRequest{Instance: WireInstance{"Measurements": tuples}})
	if err != nil {
		t.Fatal(err)
	}
	status, created := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions", string(body))
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, created)
	}
	var sr SessionResponse
	if err := json.Unmarshal([]byte(created), &sr); err != nil {
		t.Fatal(err)
	}

	// Count only the answers request, on a fresh connection.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	w0, b0 := ln.writes.Load(), ln.bytes.Load()
	resp, err := client.Get(ts.URL + "/v1/contexts/hospital/sessions/" + sr.ID + "/answers?mode=raw&q=" +
		queryEscape(`m(t, p, v) <- Measurements(t, p, v).`))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewScanner(resp.Body)
	lines := 0
	for br.Scan() {
		lines++
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || lines != rows+1 {
		t.Fatalf("answers: status %d, %d lines, want %d", resp.StatusCode, lines, rows+1)
	}
	writes, bytes := ln.writes.Load()-w0, ln.bytes.Load()-b0
	if limit := bytes/1024 + 4; writes > limit {
		t.Fatalf("%d rows (%d bytes) took %d socket writes, want at most %d", rows, bytes, writes, limit)
	}
}

// TestAnswerStreamBound: a ?q= cross product with just over maxAnswers
// answers streams exactly maxAnswers answer lines, then a
// bound_exceeded error line in place of the count line.
func TestAnswerStreamBound(t *testing.T) {
	ts := newHospitalServer(t)
	rows := int(math.Sqrt(maxAnswers)) + 1 // rows² is just over maxAnswers
	tuples := make([][]string, rows)
	for i := range tuples {
		tuples[i] = []string{fmt.Sprintf("Sep/5-%05d", i), "Tom Waits", "37.5"}
	}
	body, err := json.Marshal(SessionCreateRequest{Instance: WireInstance{"Measurements": tuples}})
	if err != nil {
		t.Fatal(err)
	}
	status, created := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions", string(body))
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, created)
	}
	var sr SessionResponse
	if err := json.Unmarshal([]byte(created), &sr); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/contexts/hospital/sessions/" + sr.ID + "/answers?mode=raw&q=" +
		queryEscape(`q(t, t2) <- Measurements(t, p, v), Measurements(t2, p2, v2).`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	answers := 0
	var last AnswerLine
	for sc.Scan() {
		last = AnswerLine{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d: %v", answers+1, err)
		}
		if last.Answer != nil {
			answers++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if answers != maxAnswers || last.Error == nil || last.Error.Code != "bound_exceeded" {
		t.Fatalf("%d answer lines, last line %+v; want %d answers, then a bound_exceeded error", answers, last, maxAnswers)
	}
	if want := "answer stream (at most 262144 answers per request): bound exceeded"; last.Error.Message != want {
		t.Errorf("error message %q, want %q", last.Error.Message, want)
	}
}
