package obs

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestHistogramQuantilesWithinResolution(t *testing.T) {
	// Uniform 1ms..100ms: quantiles must land within the ~3% bucket
	// resolution (plus sampling noise) of the exact values.
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	var exact []time.Duration
	for i := 0; i < 50000; i++ {
		d := time.Duration(1e6 + rng.Int63n(99e6))
		h.Observe(d)
		exact = append(exact, d)
	}
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(p).Seconds()
		want := (1e-3 + p*99e-3) // uniform quantile
		if math.Abs(got-want)/want > 0.06 {
			t.Fatalf("q%.3f = %.4fs, want ~%.4fs (>6%% off)", p, got, want)
		}
	}
	if h.Count() != 50000 {
		t.Fatalf("count %d", h.Count())
	}
	// Max/min are exact.
	var wantMax, wantMin time.Duration = 0, time.Hour
	for _, d := range exact {
		if d > wantMax {
			wantMax = d
		}
		if d < wantMin {
			wantMin = d
		}
	}
	if h.Max() != wantMax || h.Min() != wantMin {
		t.Fatalf("max/min %v/%v, want %v/%v", h.Max(), h.Min(), wantMax, wantMin)
	}
}

func TestHistogramMergeEqualsCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, all Histogram
	for i := 0; i < 10000; i++ {
		d := time.Duration(rng.Int63n(1e9))
		all.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	a.Merge(&b)
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if a.Quantile(p) != all.Quantile(p) {
			t.Fatalf("q%v: merged %v != combined %v", p, a.Quantile(p), all.Quantile(p))
		}
	}
	if a.Count() != all.Count() || a.Mean() != all.Mean() {
		t.Fatalf("merged count/mean diverge")
	}
}

func TestBucketIndexMonotoneAndBounded(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 1e6, 1e9, 1e12, math.MaxInt64} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d: not monotone", v, i, prev)
		}
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		// The bucket's representative value stays within 3.2% of v.
		if v >= linearMax {
			mid := bucketMid(i)
			if rel := math.Abs(float64(mid-v)) / float64(v); rel > 0.032 {
				t.Fatalf("bucketMid(%d)=%d for v=%d: relative error %.3f", i, mid, v, rel)
			}
		}
		prev = i
	}
}
