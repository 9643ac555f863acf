package load

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/server"
	"repro/mdqa"
)

// readLoadJSON reads a LOAD_<n>.json file back.
func readLoadJSON(path string) ([]Report, *Hardware, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc loadDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.Runs, &doc.Hardware, nil
}

func TestZipfCDFShapes(t *testing.T) {
	uniform := zipfCDF(4, 0)
	for r, want := range []float64{0.25, 0.5, 0.75, 1} {
		if math.Abs(uniform[r]-want) > 1e-9 {
			t.Fatalf("theta=0 cdf[%d] = %v, want %v", r, uniform[r], want)
		}
	}
	skewed := zipfCDF(100, 1.1)
	if skewed[0] < 0.15 {
		t.Fatalf("theta=1.1 head mass %v, want skew toward rank 0", skewed[0])
	}
	// pickCDF inverts the CDF.
	if pickCDF(uniform, 0.1) != 0 || pickCDF(uniform, 0.6) != 2 || pickCDF(uniform, 1.0) != 3 {
		t.Fatalf("pickCDF misroutes: %d %d %d",
			pickCDF(uniform, 0.1), pickCDF(uniform, 0.6), pickCDF(uniform, 1.0))
	}
}

// TestOpenLoopRunAgainstServer drives a short real run against an
// in-process mdserve: everything offered completes, reads and writes
// both happen, latencies are recorded, and the report round-trips
// through LOAD json.
func TestOpenLoopRunAgainstServer(t *testing.T) {
	srv, err := server.New(context.Background(), server.Config{Parallelism: 1}, []server.ContextSource{{
		Name:   "hospital",
		Source: mdqa.HospitalQualityExampleSource(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := Spec{
		Target:   gen.HTTPTarget{BaseURL: ts.URL, Context: "hospital"},
		Rate:     200,
		Duration: 1500 * time.Millisecond,
		Workers:  16,
		Sessions: 4,
		Zipf:     1.0,
		Seed:     3,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered < 250 {
		t.Fatalf("offered only %d arrivals at 200/s over 1.5s", res.Offered)
	}
	if res.Completed != res.Offered-res.Dropped {
		t.Fatalf("completed %d != offered %d - dropped %d", res.Completed, res.Offered, res.Dropped)
	}
	if res.ReadErrs+res.WriteErrs > 0 {
		t.Fatalf("unloaded run had %d/%d errors (last: %v)", res.ReadErrs, res.WriteErrs, res.LastErr)
	}
	if res.Read.Count() == 0 || res.Write.Count() == 0 {
		t.Fatalf("mix broken: %d reads, %d writes", res.Read.Count(), res.Write.Count())
	}
	if res.Read.Quantile(0.5) <= 0 {
		t.Fatal("read p50 is zero — latencies not recorded")
	}

	rep := NewReport("smoke", spec, res)
	if rep.ErrorRate() != 0 || rep.AchievedOps <= 0 {
		t.Fatalf("report: %+v", rep)
	}
	path := filepath.Join(t.TempDir(), "LOAD_test.json")
	if err := WriteLoadJSON(path, []Report{rep}); err != nil {
		t.Fatal(err)
	}
	runs, hw, err := readLoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Name != "smoke" || hw == nil || hw.NumCPU == 0 {
		t.Fatalf("round trip: %d runs, hw %+v", len(runs), hw)
	}
	if runs[0].Read.P50Us != rep.Read.P50Us {
		t.Fatalf("p50 did not round-trip: %v vs %v", runs[0].Read.P50Us, rep.Read.P50Us)
	}
}

// TestRunIsDeterministicInShape pins the seeded op sequence: two specs
// with the same seed offer the same read/write split.
func TestRunSeedControlsMix(t *testing.T) {
	// Pure-function check on the op decision stream (no server): the
	// rng consumption order in Run is (read?, session, patient) per op.
	mix := func(seed int64) (reads int) {
		rng := rand.New(rand.NewSource(seed))
		cdf := zipfCDF(8, 0.9)
		for i := 0; i < 1000; i++ {
			if rng.Float64() < 0.9 {
				reads++
			}
			pickCDF(cdf, rng.Float64())
			rng.Intn(16)
		}
		return reads
	}
	if mix(5) != mix(5) {
		t.Fatal("same seed, different mix")
	}
	got := mix(5)
	if got < 850 || got > 950 {
		t.Fatalf("0.9 read ratio produced %d/1000 reads", got)
	}
}

// TestReadCommittedLoadJSON pins that the committed LOAD_9.json still
// reads back, its "_hardware" annotation included.
func TestReadCommittedLoadJSON(t *testing.T) {
	runs, hw, err := readLoadJSON("../../LOAD_9.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 || runs[0].Name != "direct/shards=1" || runs[0].Read.P50Us <= 0 {
		t.Fatalf("LOAD_9.json runs: %+v", runs)
	}
	if hw.NumCPU != 1 || hw.GoOS != "linux" {
		t.Fatalf("LOAD_9.json hardware: %+v", hw)
	}
}
