package main

import (
	"io"
	"strings"
	"testing"
)

const header = `goos: linux
goarch: amd64
pkg: repro/internal/benchsuite
cpu: Intel(R) Xeon(R) Processor
`

// bench renders one `go test -bench` line per reading of name.
func bench(name string, ns ...string) string {
	var b strings.Builder
	for _, v := range ns {
		b.WriteString(name + "-2   \t      80\t  " + v + " ns/op\t 5632200 B/op\t    1550 allocs/op\n")
	}
	return b.String()
}

func mustParse(t *testing.T, out string) map[string][]float64 {
	t.Helper()
	m, err := parse(strings.NewReader(header + out + "PASS\nok  \trepro/internal/benchsuite\t4.3s\n"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGate(t *testing.T) {
	const cold = "BenchmarkColdAssess/n=400"
	cases := []struct {
		name         string
		base, change string
		wantErr      string // "" = pass
	}{{
		// One noisy pair (2.0) does not move the median (1.10).
		name:   "within tolerance",
		base:   bench(cold, "100", "100", "100", "100", "100"),
		change: bench(cold, "110", "200", "105", "112", "90"),
	}, {
		name:    "beyond tolerance",
		base:    bench(cold, "100", "100", "100"),
		change:  bench(cold, "140", "150", "120"),
		wantErr: "BenchmarkColdAssess/n=400-2",
	}, {
		name:    "no name on both sides",
		base:    bench(cold, "100"),
		change:  bench("BenchmarkWarmAssess/n=400", "100"),
		wantErr: "no benchmark is present on both sides",
	}, {
		// AdhocQuery exists only in the change, Legacy only in the
		// base: both are skipped and the matched one decides.
		name:   "one-sided names skipped",
		base:   bench(cold, "100", "100") + bench("BenchmarkLegacy", "1"),
		change: bench(cold, "101", "99") + bench("BenchmarkAdhocQuery/n=400/cache=on", "900"),
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := gate(io.Discard, mustParse(t, tc.base), mustParse(t, tc.change))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want an error naming %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("gate error %q, want it to name %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseKeepsRunOrder(t *testing.T) {
	m := mustParse(t, bench("BenchmarkWarmAssess/n=400", "3", "1", "2"))
	got := m["BenchmarkWarmAssess/n=400-2"]
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("readings = %v, want [3 1 2]", got)
	}
}
