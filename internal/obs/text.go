package obs

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Writer renders metrics in the Prometheus text format (version
// 0.0.4). It holds no metrics of its own: each counter, gauge and
// histogram stays in the struct that owns it, and the owner writes one
// sample per label set, a family's samples together. The first sample
// of a family writes its # TYPE line. Label arguments alternate names
// and values; values are quoted with %q.
type Writer struct {
	b      strings.Builder
	family string // the family whose # TYPE line was written last
}

// Histogram lines carry one _bucket per power of four nanoseconds from
// 4^7 (16.4µs) to 4^18 (68.7s). Each bound is a power of two, which
// closes a bucket of Histogram, so its cumulative count is exact.
const (
	firstBound = 1 << 14
	lastBound  = 1 << 36
)

// String returns everything written so far.
func (w *Writer) String() string { return w.b.String() }

// Counter writes one counter sample.
func (w *Writer) Counter(name string, v int64, labels ...string) {
	w.sample(name, "counter", name, labels, fmt.Sprint(v))
}

// Gauge writes one integer gauge sample.
func (w *Writer) Gauge(name string, v int64, labels ...string) {
	w.sample(name, "gauge", name, labels, fmt.Sprint(v))
}

// GaugeSeconds writes one duration gauge sample in seconds.
func (w *Writer) GaugeSeconds(name string, d time.Duration, labels ...string) {
	w.sample(name, "gauge", name, labels, seconds(d))
}

// Histogram writes one histogram series: cumulative _bucket lines up
// to le="+Inf", then _sum in seconds and _count. A nil or empty
// histogram writes nothing, so a series appears with its first
// observation.
func (w *Writer) Histogram(name string, h *Histogram, labels ...string) {
	if h == nil || h.count == 0 {
		return
	}
	bucket := append(labels[:len(labels):len(labels)], "le", "")
	var cum int64
	from := 0
	for b := int64(firstBound); b <= lastBound; b *= 4 {
		// A value v is at or below b exactly when it is filed below
		// bucketIndex(b): b opens that bucket, and Observe files v
		// under bucketIndex(v-1).
		to := bucketIndex(b)
		for _, c := range h.counts[from:to] {
			cum += c
		}
		from = to
		bucket[len(labels)+1] = strconv.FormatFloat(float64(b)/1e9, 'g', -1, 64)
		w.sample(name, "histogram", name+"_bucket", bucket, fmt.Sprint(cum))
	}
	bucket[len(labels)+1] = "+Inf"
	w.sample(name, "histogram", name+"_bucket", bucket, fmt.Sprint(h.count))
	w.sample(name, "histogram", name+"_sum", labels, seconds(time.Duration(h.sum)))
	w.sample(name, "histogram", name+"_count", labels, fmt.Sprint(h.count))
}

// sample writes one line of family, preceded by the family's # TYPE
// line when the family changes.
func (w *Writer) sample(family, kind, name string, labels []string, value string) {
	if family != w.family {
		fmt.Fprintf(&w.b, "# TYPE %s %s\n", family, kind)
		w.family = family
	}
	w.b.WriteString(name)
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		fmt.Fprintf(&w.b, "%s%s=%q", sep, labels[i], labels[i+1])
		sep = ","
	}
	if sep == "," {
		w.b.WriteByte('}')
	}
	fmt.Fprintf(&w.b, " %s\n", value)
}

// seconds renders a duration in seconds, to the microsecond.
func seconds(d time.Duration) string { return fmt.Sprintf("%.6f", d.Seconds()) }
