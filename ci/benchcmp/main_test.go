package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

const header = `goos: linux
goarch: amd64
pkg: repro/internal/benchsuite
cpu: Intel(R) Xeon(R) Processor
`

// bench renders one `go test -bench -benchmem` line per ns/op reading
// of name, each at 5,632,200 B/op.
func bench(name string, ns ...string) string {
	var b strings.Builder
	for _, v := range ns {
		b.WriteString(name + "-2   \t      80\t  " + v + " ns/op\t 5632200 B/op\t    1550 allocs/op\n")
	}
	return b.String()
}

// benchBytes renders one line per B/op reading of name, each at 1 ms;
// a "" reading renders a line without -benchmem's columns.
func benchBytes(name string, bytes ...string) string {
	var b strings.Builder
	for _, v := range bytes {
		b.WriteString(name + "-2   \t      80\t  1000000 ns/op")
		if v != "" {
			b.WriteString("\t " + v + " B/op\t    1550 allocs/op")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func mustParse(t *testing.T, out string) map[string][]reading {
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
	}, {
		// One pair allocating twice as much does not move the median
		// B/op ratio (1.05).
		name:   "bytes within tolerance",
		base:   benchBytes(cold, "1000", "1000", "1000"),
		change: benchBytes(cold, "1050", "2000", "990"),
	}, {
		// Time is level, bytes are not.
		name:    "bytes beyond tolerance",
		base:    benchBytes(cold, "1000", "1000", "1000"),
		change:  benchBytes(cold, "1150", "1120", "1000"),
		wantErr: "B/op above 1.10: BenchmarkColdAssess/n=400-2",
	}, {
		// A benchmark that allocates nothing on both sides is level; one
		// that starts allocating is not.
		name:    "bytes from zero",
		base:    benchBytes(cold, "0", "0") + benchBytes("BenchmarkWarmAssess/n=400", "0", "0"),
		change:  benchBytes(cold, "0", "0") + benchBytes("BenchmarkWarmAssess/n=400", "16", "16"),
		wantErr: "B/op above 1.10: BenchmarkWarmAssess/n=400-2",
	}, {
		// Without -benchmem on one side only ns/op is gated.
		name:   "bytes missing on one side",
		base:   benchBytes(cold, "", ""),
		change: benchBytes(cold, "5000", "5000"),
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
	want := []reading{{3, 5632200}, {1, 5632200}, {2, 5632200}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("readings = %v, want %v", got, want)
	}
	m = mustParse(t, benchBytes("BenchmarkWarmAssess/n=400", ""))
	if got := m["BenchmarkWarmAssess/n=400-2"]; fmt.Sprint(got) != fmt.Sprint([]reading{{1e6, -1}}) {
		t.Fatalf("readings without -benchmem = %v, want B/op -1", got)
	}
}
