package gen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/datalog"
	"repro/internal/storage"
)

// This file is the HTTP half of the workload generator: a typed client
// for the mdserve wire API, behind mdload and the server's stress test
// and HTTP-path benchmarks. The wire structs here deliberately mirror —
// rather than import — the server's, exactly as an external client
// would speak the protocol.

// HTTPTarget addresses one context on a running mdserve instance.
type HTTPTarget struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Context is the context name under /v1/contexts/.
	Context string
	// Client is the HTTP client (nil = http.DefaultClient).
	Client *http.Client
}

// DefaultConnsPerHost is the idle-connection budget of the package's
// shared HTTP client: generous enough that the stress suite's and
// mdload's worker fan-outs keep one persistent connection each instead
// of re-dialing per request (and exhausting ephemeral ports against a
// loopback server).
const DefaultConnsPerHost = 256

// NewHTTPClient builds an HTTP client whose transport keeps up to
// maxPerHost idle connections per backend — size it to the worker
// count of the load it will carry (values < 1 fall back to
// DefaultConnsPerHost).
func NewHTTPClient(maxPerHost int) *http.Client {
	if maxPerHost < 1 {
		maxPerHost = DefaultConnsPerHost
	}
	return &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        maxPerHost,
		MaxIdleConnsPerHost: maxPerHost,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// sharedClient serves every HTTPTarget without an explicit Client: one
// transport reused across all workers of a stress or load run.
var sharedClient = NewHTTPClient(DefaultConnsPerHost)

func (t HTTPTarget) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return sharedClient
}

// HTTPError is a non-2xx response: the status code and the raw
// (structured) error body.
type HTTPError struct {
	Status int
	Body   string
}

func (e *HTTPError) Error() string { return fmt.Sprintf("http %d: %s", e.Status, e.Body) }

// Do runs one JSON round trip against path under BaseURL; non-2xx
// statuses become *HTTPError and out (when non-nil) receives the
// decoded response body.
func (t HTTPTarget) Do(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, t.BaseURL+path, body)
	if err != nil {
		return err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &HTTPError{Status: resp.StatusCode, Body: strings.TrimSpace(string(data))}
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// wireAtom and wireBatch mirror the server's NDJSON apply vocabulary.
type wireAtom struct {
	Pred string   `json:"pred"`
	Args []string `json:"args"`
}

type wireBatch struct {
	Atoms []wireAtom `json:"atoms"`
}

// OpenSessionWithID opens a session under a client-chosen id — the
// form a consistent-hash router needs, since only a caller-supplied id
// makes the session's shard placement reproducible. The returned
// created flag is false when the id already named a live session (the
// server's 409), which callers wanting to reuse a warm session treat
// as success.
func (t HTTPTarget) OpenSessionWithID(ctx context.Context, id string) (created bool, err error) {
	body, err := json.Marshal(map[string]string{"id": id})
	if err != nil {
		return false, err
	}
	err = t.Do(ctx, "POST", "/v1/contexts/"+t.Context+"/sessions", bytes.NewReader(body), nil)
	var he *HTTPError
	if errors.As(err, &he) && he.Status == http.StatusConflict && strings.Contains(he.Body, "session_exists") {
		return false, nil
	}
	return err == nil, err
}

// ApplyBatch sends one delta batch as a single NDJSON line and decodes
// the per-batch result line. An error line mid-stream surfaces as an
// error.
func (t HTTPTarget) ApplyBatch(ctx context.Context, id string, atoms []datalog.Atom) error {
	batch := wireBatch{Atoms: make([]wireAtom, len(atoms))}
	for i, a := range atoms {
		wa := wireAtom{Pred: a.Pred, Args: make([]string, len(a.Args))}
		for j, arg := range a.Args {
			wa.Args[j] = arg.Name
		}
		batch.Atoms[i] = wa
	}
	data, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	var line struct {
		Inserted int             `json:"inserted"`
		Error    json.RawMessage `json:"error"`
	}
	if err := t.Do(ctx, "POST", "/v1/contexts/"+t.Context+"/sessions/"+id+"/apply", bytes.NewReader(append(data, '\n')), &line); err != nil {
		return err
	}
	if len(line.Error) > 0 {
		return fmt.Errorf("apply batch: %s", line.Error)
	}
	return nil
}

// Answers streams a query's answers off the session's current
// snapshot and returns the collected tuples. mode is "clean" or
// "raw"; q is an inline query or a declared query name.
func (t HTTPTarget) Answers(ctx context.Context, id, q, mode string) ([][]string, error) {
	path := "/v1/contexts/" + t.Context + "/sessions/" + id + "/answers?mode=" + mode + "&q=" + url.QueryEscape(q)
	req, err := http.NewRequestWithContext(ctx, "GET", t.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		return nil, &HTTPError{Status: resp.StatusCode, Body: strings.TrimSpace(string(data))}
	}
	var out [][]string
	count := -1
	dec := json.NewDecoder(resp.Body)
	for {
		var line struct {
			Answer []string        `json:"answer"`
			Count  *int            `json:"count"`
			Error  json.RawMessage `json:"error"`
		}
		if err := dec.Decode(&line); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		switch {
		case len(line.Error) > 0:
			return nil, fmt.Errorf("answers: %s", line.Error)
		case line.Count != nil:
			count = *line.Count
		default:
			out = append(out, line.Answer)
		}
	}
	if count != len(out) {
		return nil, fmt.Errorf("answers: stream count %d != %d tuples received", count, len(out))
	}
	return out, nil
}

// WireInstance renders a storage instance in the wire's
// relation → tuple-list form (all terms ground constants).
func WireInstance(db *storage.Instance) map[string][][]string {
	out := map[string][][]string{}
	for _, name := range db.RelationNames() {
		var tuples [][]string
		rel := db.Relation(name)
		for _, ids := range rel.Rows() {
			row := make([]string, len(ids))
			for i, id := range ids {
				row[i] = rel.Interner().TermOf(id).Name
			}
			tuples = append(tuples, row)
		}
		out[name] = tuples
	}
	return out
}
