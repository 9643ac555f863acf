package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/gen"
)

// The HTTP-path counterparts of BenchmarkColdAssess/BenchmarkWarmAssess:
// the same generated workload driven through a real HTTP round trip
// (serialization, routing, handler, engine), so PERF.md can record what
// the wire adds on top of the engine numbers.
//
//	go test ./internal/server -bench BenchmarkHTTP -benchtime 5x

func BenchmarkHTTPColdAssess(b *testing.B) {
	const n = 400
	wl, err := gen.NewQualityWorkload(gen.QualitySpec{
		Patients: n / 4, Days: 4, Wards: 3, DirtyRatio: 0.5, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := newWorkloadServer(b, n/4, 4, 3, 0)
	target := gen.HTTPTarget{BaseURL: ts.URL, Context: "ward"}
	instance := gen.WireInstance(wl.Instance)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := json.Marshal(AssessRequest{Instance: instance})
		if err != nil {
			b.Fatal(err)
		}
		if err := target.Do(ctx, http.MethodPost, "/v1/contexts/"+target.Context+"/assess", bytes.NewReader(body), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHTTPWarmApply(b *testing.B) {
	const n = 400
	const days, wards = 4, 3
	ts := newWorkloadServer(b, n/4, days, wards, 0)
	target := gen.HTTPTarget{BaseURL: ts.URL, Context: "ward"}
	ctx := context.Background()
	id, err := openTargetSession(ctx, target)
	if err != nil {
		b.Fatal(err)
	}
	spec := httpStressSpec{Days: days, Wards: wards, PatientsPerBatch: 1}
	b.ReportAllocs()
	b.ResetTimer()
	tick := 0
	for i := 0; i < b.N; i++ {
		// Rebuild the session (off-timer) every few ticks so the
		// instance stays near n, mirroring the engine-level warm
		// benchmark.
		if tick == 10 {
			b.StopTimer()
			if err := closeTargetSession(ctx, target, id); err != nil {
				b.Fatal(err)
			}
			if id, err = openTargetSession(ctx, target); err != nil {
				b.Fatal(err)
			}
			tick = 0
			b.StartTimer()
		}
		if err := target.ApplyBatch(ctx, id, stressDelta(spec, i, tick)); err != nil {
			b.Fatal(err)
		}
		tick++
	}
}
