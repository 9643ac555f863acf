// Package obs holds the repo's one latency recorder, a mergeable
// log-linear Histogram, and Writer, which renders metrics in the
// Prometheus text format. It imports only the standard library, so the
// load harness, the source resolver and both servers can share it.
package obs

import (
	"math/bits"
	"time"
)

// Histogram is an HDR-style log-linear latency histogram over
// nanosecond values: exact below 64ns, then 32 sub-buckets per power
// of two, bounding relative error by 1/32 (~3%) at ~1900 buckets for
// the full int64 range. Recording is a single increment — cheap enough
// for the per-op hot path — and histograms merge exactly, so each
// worker keeps its own and the run merges them at the end. The zero
// value is empty and ready to use; a Histogram is not safe for
// concurrent use, so whoever shares one guards it with a lock.
//
// A value v > 0 is filed under bucketIndex(v-1), so buckets are closed
// above: the values at or below a power of two b ≥ 64ns fill exactly
// the buckets below bucketIndex(b). That lets Writer.Histogram count
// the observations at or below such a bound exactly.
type Histogram struct {
	counts [numBuckets]int64
	count  int64
	sum    int64
	max    int64
	min    int64
}

const (
	subBits    = 5
	subBuckets = 1 << subBits // 32 per octave
	linearMax  = 1 << (subBits + 1)
	numBuckets = linearMax + (63-subBits)*subBuckets
)

// bucketIndex maps a non-negative value to its bucket: identity below
// linearMax, log-linear above.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < linearMax {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // >= subBits+1
	sub := (u >> (uint(exp) - subBits)) & (subBuckets - 1)
	return linearMax + (exp-subBits-1)*subBuckets + int(sub)
}

// bucketMid returns a representative (midpoint) value for a bucket.
func bucketMid(i int) int64 {
	if i < linearMax {
		return int64(i)
	}
	oct := (i - linearMax) / subBuckets
	sub := (i - linearMax) % subBuckets
	exp := uint(oct + subBits + 1)
	low := (uint64(subBuckets) + uint64(sub)) << (exp - subBits)
	return int64(low + 1<<(exp-subBits-1))
}

// Observe records one latency. Negative values clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	i := 0
	if v > 0 {
		i = bucketIndex(v - 1) // closed above, see Histogram
	}
	h.counts[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if h.count == 1 || v < h.min {
		h.min = v
	}
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the exact mean (the sum is tracked outside the
// buckets).
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Max and Min are exact.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }
func (h *Histogram) Min() time.Duration { return time.Duration(h.min) }

// Quantile returns the value at quantile p in [0,1], within the
// bucket resolution (~3% relative error). The exact min and max are
// substituted at the extremes so p=0 and p=1 are artifact-free.
func (h *Histogram) Quantile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p >= 1 {
		return h.Max()
	}
	rank := int64(p * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			mid := bucketMid(i) + 1 // the slot holds v with v-1 in bucket i
			if mid > h.max {
				return time.Duration(h.max) // last occupied bucket can overshoot the true max
			}
			return time.Duration(mid)
		}
	}
	return h.Max()
}

// Summary condenses a histogram for the machine-readable report.
// Microseconds: latencies here run from tens of µs (raw reads, direct)
// to tens of ms (saturated applies), so µs keeps every regime readable
// without floats losing precision.
type Summary struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// Summarize builds the report form.
func (h *Histogram) Summarize() Summary {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return Summary{
		Count:  h.count,
		MeanUs: us(h.Mean()),
		P50Us:  us(h.Quantile(0.50)),
		P90Us:  us(h.Quantile(0.90)),
		P99Us:  us(h.Quantile(0.99)),
		P999Us: us(h.Quantile(0.999)),
		MaxUs:  us(h.Max()),
	}
}
