package obs

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWriterHistogramIsExact renders one histogram series and checks
// it against the raw observations: every _bucket counts exactly the
// observations at or below its le, including values one nanosecond
// either side of a bound; le="+Inf" equals _count; _sum is the total.
func TestWriterHistogramIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h Histogram
	var seen []time.Duration
	add := func(d time.Duration) {
		h.Observe(d)
		seen = append(seen, d)
	}
	for b := int64(firstBound); b <= lastBound; b *= 4 {
		add(time.Duration(b - 1))
		add(time.Duration(b))
		add(time.Duration(b + 1))
	}
	add(0)
	add(time.Duration(lastBound * 4))
	for i := 0; i < 20000; i++ {
		// Log-uniform over 1ns..~275s, so every bucket gets traffic.
		add(time.Duration(math.Exp(rng.Float64() * math.Log(float64(lastBound*4)))))
	}
	var total time.Duration
	for _, d := range seen {
		total += d
	}

	var w Writer
	w.Histogram("x_seconds", &h, "op", "assess")
	lines := strings.Split(strings.TrimSuffix(w.String(), "\n"), "\n")
	if lines[0] != "# TYPE x_seconds histogram" {
		t.Fatalf("first line %q", lines[0])
	}
	const prefix = `x_seconds_bucket{op="assess",le="`
	var les []string
	for _, line := range lines[1:] {
		sp := strings.LastIndexByte(line, ' ')
		series, value := line[:sp], line[sp+1:]
		switch {
		case strings.HasPrefix(series, prefix):
			le := strings.TrimSuffix(strings.TrimPrefix(series, prefix), `"}`)
			les = append(les, le)
			got, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			want := int64(len(seen))
			if le != "+Inf" {
				sec, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				bound := time.Duration(math.Round(sec * 1e9))
				want = 0
				for _, d := range seen {
					if d <= bound {
						want++
					}
				}
			}
			if got != want {
				t.Errorf("le=%s: bucket %d, want %d observations at or below", le, got, want)
			}
		case series == `x_seconds_sum{op="assess"}`:
			if want := fmt.Sprintf("%.6f", total.Seconds()); value != want {
				t.Errorf("_sum %s, want %s", value, want)
			}
		case series == `x_seconds_count{op="assess"}`:
			if want := strconv.Itoa(len(seen)); value != want {
				t.Errorf("_count %s, want %s", value, want)
			}
		default:
			t.Errorf("unexpected line %q", line)
		}
	}
	if len(les) != 13 || les[0] != "1.6384e-05" || les[11] != "68.719476736" || les[12] != "+Inf" {
		t.Fatalf("le bounds %v, want 4^7..4^18 ns then +Inf", les)
	}
	if len(lines) != 1+13+2 {
		t.Fatalf("%d lines, want 16:\n%s", len(lines), w.String())
	}
}

// TestWriterSamples pins the line format and that each family's
// # TYPE line comes once, before its first sample.
func TestWriterSamples(t *testing.T) {
	var w Writer
	w.Counter("a_total", 3, "context", "h", "source", `q"x`)
	w.Counter("a_total", 4, "context", "i", "source", "y")
	w.Counter("b_total", 7)
	w.GaugeSeconds("c_seconds", 1500*time.Microsecond)
	w.Gauge("d_open", 2, "context", "h")
	w.Histogram("e_seconds", nil, "op", "x")
	w.Histogram("e_seconds", &Histogram{}, "op", "x")
	want := "# TYPE a_total counter\n" +
		`a_total{context="h",source="q\"x"} 3` + "\n" +
		`a_total{context="i",source="y"} 4` + "\n" +
		"# TYPE b_total counter\nb_total 7\n" +
		"# TYPE c_seconds gauge\nc_seconds 0.001500\n" +
		"# TYPE d_open gauge\n" + `d_open{context="h"} 2` + "\n"
	if w.String() != want {
		t.Fatalf("got\n%s\nwant\n%s", w.String(), want)
	}
}
