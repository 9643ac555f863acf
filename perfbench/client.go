package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gen"
	"repro/internal/quality"
	"repro/internal/server"
	"repro/mdqa"
)

// contextName is the URL segment every workload's context is served
// under.
const contextName = "ward"

// countingListener wraps the server's listener so that every accepted
// connection counts its Write calls and bytes. handleAnswers flushes
// once per answer line, so writes per op shows what flushing costs.
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
	n, err := c.Conn.Write(p)
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(n))
	return n, err
}

// liveServer is an in-process mdserve behind a TCP loopback listener.
type liveServer struct {
	srv  *server.Server
	qc   *mdqa.Context
	hs   *http.Server
	ln   *countingListener
	url  string
	done chan error

	stopOnce sync.Once
	stopErr  error
}

// startServer builds a server over the workload's context, the way an
// embedder does, and serves it on a fresh loopback port. The context
// keeps cfg.HistoryDepth versions per session, as the server's own
// contexts do.
func startServer(ctx context.Context, wl *gen.StreamingWorkload, cfg server.Config) (*liveServer, error) {
	qc, err := mdqa.NewContext(wl.Base.Ontology, func(c *quality.Config) {
		*c = wl.Base.Config
		c.HistoryDepth = cfg.HistoryDepth
	})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(ctx, cfg, []server.ContextSource{{Name: contextName, Context: qc, Input: wl.Base.Instance}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv:  srv,
		qc:   qc,
		hs:   &http.Server{Handler: srv},
		ln:   &countingListener{Listener: ln},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { ls.done <- ls.hs.Serve(ls.ln) }()
	return ls, nil
}

// stop closes the listener and every connection and waits for Serve to
// return; later calls return the first call's error. It does not close
// the server's durable sessions: to the data dir, a stop looks like the
// process dying.
func (ls *liveServer) stop() error {
	ls.stopOnce.Do(func() {
		ls.stopErr = ls.hs.Close()
		if err := <-ls.done; err != http.ErrServerClosed && ls.stopErr == nil {
			ls.stopErr = err
		}
	})
	return ls.stopErr
}

// client speaks the mdserve API with as little work as it can: it
// counts NDJSON lines and decodes only the fields it checks.
type client struct {
	hc   *http.Client
	base string // .../v1/contexts/<name>
}

func newClient(serverURL string, conns int) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		}},
		base: serverURL + "/v1/contexts/" + contextName,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the whole response body; a non-200
// status is an error.
func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: http %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// cleanCount is the quality count of Measurements in an assessment
// body. It decodes only the "measures" object, which the server writes
// last.
func cleanCount(body []byte) (int, error) {
	key := []byte(`"measures":`)
	i := bytes.LastIndex(body, key)
	if i < 0 {
		return 0, fmt.Errorf("assessment without measures")
	}
	var m map[string]server.WireMeasure
	if err := json.NewDecoder(bytes.NewReader(body[i+len(key):])).Decode(&m); err != nil {
		return 0, fmt.Errorf("decode measures: %w", err)
	}
	mm, ok := m["Measurements"]
	if !ok {
		return 0, fmt.Errorf("assessment has no Measurements measure")
	}
	return mm.Quality, nil
}

// assess posts a one-shot assessment and returns the clean count.
func (c *client) assess(ctx context.Context, body []byte) (int, error) {
	data, err := c.do(ctx, http.MethodPost, "/assess", body)
	if err != nil {
		return 0, err
	}
	return cleanCount(data)
}

// assessment reads a session's assessment and returns the clean count.
func (c *client) assessment(ctx context.Context, sid string) (int, error) {
	data, err := c.do(ctx, http.MethodGet, "/sessions/"+sid+"/assessment", nil)
	if err != nil {
		return 0, err
	}
	return cleanCount(data)
}

// openSession opens a session over the context's default input under
// a client-chosen id.
func (c *client) openSession(ctx context.Context, sid string) error {
	body, err := json.Marshal(server.SessionCreateRequest{ID: sid})
	if err != nil {
		return err
	}
	_, err = c.do(ctx, http.MethodPost, "/sessions", body)
	return err
}

// apply sends one NDJSON batch line and returns the ack's inserted
// count. The response is read to its end, so the op includes any
// compaction the handler runs after the ack.
func (c *client) apply(ctx context.Context, sid string, line []byte) (int, error) {
	data, err := c.do(ctx, http.MethodPost, "/sessions/"+sid+"/apply", line)
	if err != nil {
		return 0, err
	}
	var ack struct {
		server.ApplyResponse
		Error *server.WireError `json:"error"`
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		return 0, fmt.Errorf("decode apply ack: %w", err)
	}
	if ack.Error != nil {
		return 0, fmt.Errorf("apply: %s: %s", ack.Error.Code, ack.Error.Message)
	}
	return ack.Inserted, nil
}

// answerPath is the answers route for query q (already escaped) in
// the given mode, at version asOf when asOf >= 0.
func answerPath(sid, q, mode string, asOf int) string {
	p := "/sessions/" + sid + "/answers?mode=" + mode + "&q=" + q
	if asOf >= 0 {
		p += fmt.Sprintf("&as_of=%d", asOf)
	}
	return p
}

// answers streams a query's answers and returns their count. It counts
// lines and checks that the terminal count line agrees, without
// decoding the answer rows.
func (c *client) answers(ctx context.Context, path string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("GET %s: http %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	lines := 0
	var last []byte
	partial := false // the previous chunk ended mid-line
	for {
		chunk, err := br.ReadSlice('\n')
		if len(chunk) > 0 {
			if !partial {
				lines++
				last = last[:0]
			}
			last = append(last, chunk...)
		}
		partial = err == bufio.ErrBufferFull
		if err == io.EOF {
			break
		}
		if err != nil && !partial {
			return 0, err
		}
	}
	var tail server.AnswerLine
	if err := json.Unmarshal(last, &tail); err != nil || tail.Count == nil {
		return 0, fmt.Errorf("GET %s: stream does not end in a count line: %q", path, last)
	}
	if *tail.Count != lines-1 {
		return 0, fmt.Errorf("GET %s: count line says %d, stream carried %d answers", path, *tail.Count, lines-1)
	}
	return *tail.Count, nil
}

// measurementsQuery is the dashboard's relation read, over the original
// schema; mode=clean rewrites it onto Measurements_q.
var measurementsQuery = url.QueryEscape("m(t, p, v) <- Measurements(t, p, v).")
