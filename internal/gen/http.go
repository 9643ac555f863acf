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
	"repro/internal/hm"
	"repro/internal/par"
	"repro/internal/storage"
)

// This file is the HTTP half of the workload generator: a typed client
// for the mdserve wire API plus RunHTTPStress, the many-writers /
// many-readers workload behind the server's -race stress test and the
// HTTP-path benchmarks. The wire structs here deliberately mirror —
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

// do runs one JSON round trip; non-2xx statuses become *HTTPError and
// out (when non-nil) receives the decoded response body.
func (t HTTPTarget) do(ctx context.Context, method, path string, body io.Reader, out any) error {
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

// Assess posts a one-shot assessment. A nil instance assesses the
// server's default input for the context.
func (t HTTPTarget) Assess(ctx context.Context, instance map[string][][]string) error {
	var body io.Reader
	if instance != nil {
		data, err := json.Marshal(map[string]any{"instance": instance})
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	return t.do(ctx, "POST", "/v1/contexts/"+t.Context+"/assess", body, nil)
}

// OpenSession opens an assessment session over the server's default
// input and returns its id.
func (t HTTPTarget) OpenSession(ctx context.Context) (string, error) {
	var resp struct {
		ID string `json:"id"`
	}
	err := t.do(ctx, "POST", "/v1/contexts/"+t.Context+"/sessions", nil, &resp)
	return resp.ID, err
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
	err = t.do(ctx, "POST", "/v1/contexts/"+t.Context+"/sessions", bytes.NewReader(body), nil)
	var he *HTTPError
	if errors.As(err, &he) && he.Status == http.StatusConflict && strings.Contains(he.Body, "session_exists") {
		return false, nil
	}
	return err == nil, err
}

// CloseSession closes a session.
func (t HTTPTarget) CloseSession(ctx context.Context, id string) error {
	return t.do(ctx, "DELETE", "/v1/contexts/"+t.Context+"/sessions/"+id, nil, nil)
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
	if err := t.do(ctx, "POST", "/v1/contexts/"+t.Context+"/sessions/"+id+"/apply", bytes.NewReader(append(data, '\n')), &line); err != nil {
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

// SessionAssessment materializes the session's current assessment and
// returns the quality-version tuple count per original relation.
func (t HTTPTarget) SessionAssessment(ctx context.Context, id string) (map[string]int, error) {
	var resp struct {
		Versions map[string]struct {
			Tuples [][]string `json:"tuples"`
		} `json:"versions"`
	}
	if err := t.do(ctx, "GET", "/v1/contexts/"+t.Context+"/sessions/"+id+"/assessment", nil, &resp); err != nil {
		return nil, err
	}
	out := make(map[string]int, len(resp.Versions))
	for rel, v := range resp.Versions {
		out[rel] = len(v.Tuples)
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

// HTTPStressSpec parameterizes RunHTTPStress: Writers concurrent
// delta streams and Readers concurrent snapshot readers hammering one
// session of a quality-workload context (the schema NewQualityWorkload
// builds).
type HTTPStressSpec struct {
	Target HTTPTarget
	// Writers is the number of concurrent writer goroutines; each
	// applies BatchesPerWriter delta batches of PatientsPerBatch new
	// patients (one measurement per day each).
	Writers, BatchesPerWriter, PatientsPerBatch int
	// Readers is the number of concurrent reader goroutines; each
	// streams the full measurement relation ReadsPerReader times and
	// verifies batch atomicity, hitting the materialized assessment
	// every third read.
	Readers, ReadsPerReader int
	// Days and Wards must match the QualitySpec the served context was
	// generated from.
	Days, Wards int
}

// HTTPStressResult reports what the stress run did.
type HTTPStressResult struct {
	SessionID string
	Batches   int // apply batches acknowledged
	Reads     int // answer streams fully consumed
	Tuples    int // answer tuples observed across all reads
}

// StressDelta builds writer w's i-th delta batch: PatientsPerBatch
// new patients, each with a ward assignment, measurement-time members
// with day rollups, and one measurement per day. Patient names embed
// (w, i), so batches are disjoint across writers and iterations and a
// snapshot reader can verify each batch is visible atomically.
func StressDelta(spec HTTPStressSpec, w, i int) []datalog.Atom {
	timeCat := hm.CategoryPredName("Time")
	dayTime := hm.RollupPredName("Time", "Day")
	var delta []datalog.Atom
	for j := 0; j < spec.PatientsPerBatch; j++ {
		patient := fmt.Sprintf("w%db%dp%d", w, i, j)
		ward := fmt.Sprintf("GW%d", j%spec.Wards)
		if j%2 == 1 {
			ward = fmt.Sprintf("BW%d", j%spec.Wards)
		}
		for day := 0; day < spec.Days; day++ {
			dn := dayName(day)
			tm := fmt.Sprintf("%s-%s", dn, patient)
			delta = append(delta,
				datalog.A(timeCat, datalog.C(tm)),
				datalog.A(dayTime, datalog.C(dn), datalog.C(tm)),
				datalog.A("PatientWard", datalog.C(ward), datalog.C(dn), datalog.C(patient)),
				datalog.A("Measurements", datalog.C(tm), datalog.C(patient), datalog.C("37.0")),
			)
		}
	}
	return delta
}

// CheckApplyAtomicity verifies a snapshot of the full Measurements
// relation never shows a half-applied batch: every patient (base or
// delta) contributes exactly days measurements, so any other count
// means a reader caught a batch mid-apply. tuples are (time, patient,
// value) rows.
func CheckApplyAtomicity(tuples [][]string, days int) error {
	per := map[string]int{}
	for _, tup := range tuples {
		if len(tup) != 3 {
			return fmt.Errorf("stress: bad answer arity %d", len(tup))
		}
		per[tup[1]]++
	}
	for p, n := range per {
		if n != days {
			return fmt.Errorf("stress: patient %s shows %d of %d measurements — half-applied delta observed", p, n, days)
		}
	}
	return nil
}

// RunHTTPStress opens one session and fans Writers+Readers concurrent
// clients out over it (everyone runs at once — the pool is sized to
// the task count). Writers stream disjoint delta batches; readers
// stream consistent snapshots and fail the run on any atomicity
// violation. The session is closed on the way out.
func RunHTTPStress(ctx context.Context, spec HTTPStressSpec) (*HTTPStressResult, error) {
	if spec.Writers < 1 || spec.Readers < 1 || spec.Days < 1 || spec.Wards < 1 {
		return nil, fmt.Errorf("gen: invalid stress spec %+v", spec)
	}
	id, err := spec.Target.OpenSession(ctx)
	if err != nil {
		return nil, err
	}
	res := &HTTPStressResult{SessionID: id}
	tasks := spec.Writers + spec.Readers
	counts, err := par.Map(ctx, par.New(tasks), tasks, func(task int) ([2]int, error) {
		if task < spec.Writers {
			for i := 0; i < spec.BatchesPerWriter; i++ {
				if err := spec.Target.ApplyBatch(ctx, id, StressDelta(spec, task, i)); err != nil {
					return [2]int{}, fmt.Errorf("writer %d batch %d: %w", task, i, err)
				}
			}
			return [2]int{spec.BatchesPerWriter, 0}, nil
		}
		reader := task - spec.Writers
		tuples := 0
		for i := 0; i < spec.ReadsPerReader; i++ {
			got, err := spec.Target.Answers(ctx, id, "meas(t, p, v) <- Measurements(t, p, v).", "raw")
			if err != nil {
				return [2]int{}, fmt.Errorf("reader %d read %d: %w", reader, i, err)
			}
			if err := CheckApplyAtomicity(got, spec.Days); err != nil {
				return [2]int{}, err
			}
			tuples += len(got)
			if i%3 == 2 {
				if _, err := spec.Target.SessionAssessment(ctx, id); err != nil {
					return [2]int{}, fmt.Errorf("reader %d assessment: %w", reader, err)
				}
			}
		}
		return [2]int{0, tuples}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range counts {
		res.Batches += c[0]
		if i >= spec.Writers {
			res.Reads += spec.ReadsPerReader
		}
		res.Tuples += c[1]
	}
	return res, spec.Target.CloseSession(ctx, id)
}
