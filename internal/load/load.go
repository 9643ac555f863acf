// Package load is the open-loop workload harness behind cmd/mdload: it
// offers requests to an mdserve (or mdrouter) endpoint at a fixed
// arrival rate — the rate does NOT slow down when the server does,
// unlike a closed loop whose in-flight cap hides overload — and
// measures every operation's latency from its scheduled arrival time,
// so queueing delay under saturation is counted instead of silently
// omitted (the "coordinated omission" artifact of naive closed-loop
// harnesses).
package load

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/datalog"
	"repro/internal/gen"
	"repro/internal/hospital"
	"repro/internal/obs"
)

// Histogram and Summary are the obs types under the names perfbench
// uses.
type (
	Histogram = obs.Histogram
	Summary   = obs.Summary
)

// Spec parameterizes one open-loop run against a hospital-context
// endpoint (mdserve directly, or mdrouter in front of several).
type Spec struct {
	// Target addresses the context under test. Target.Client nil uses
	// the gen package's shared pooled transport.
	Target gen.HTTPTarget
	// Rate is the offered arrival rate in ops/sec. This is the open
	// loop: arrivals are scheduled on a fixed grid regardless of how
	// fast responses come back.
	Rate float64
	// Duration is how long arrivals are offered.
	Duration time.Duration
	// Workers bounds concurrency: how many in-flight ops the harness
	// will carry before arrivals queue (queueing time counts toward
	// latency). 0 = 2 * Rate * 50ms, minimum 8.
	Workers int
	// Sessions is the session population ("<SessionPrefix>-<i>"),
	// opened (or reused) before the clock starts. 0 = 8.
	Sessions int
	// SessionPrefix defaults to "lg".
	SessionPrefix string
	// Zipf skews session popularity: 0 = uniform, larger = more skew
	// (weight of the rank-r session ∝ 1/r^Zipf).
	Zipf float64
	// ReadRatio is the fraction of ops that are reads (answers
	// streams); the rest are NDJSON apply batches. Default 0.9.
	ReadRatio float64
	// DeltaAtoms is the number of (Clock, Measurements) fact pairs per
	// write batch. Default 4.
	DeltaAtoms int
	// Patients bounds each session's patient population, so reads can
	// target patients writes have touched. Default 16.
	Patients int
	// SeedBatches pre-populates each session with this many write
	// batches before the clock starts (default 1). Raising it scales
	// the per-read data volume: the built-in hospital example is tiny,
	// so a realistic read weight needs seeded measurements.
	SeedBatches int
	// Mode is the answers mode: "clean" (quality-rewritten, default)
	// or "raw".
	Mode string
	// ReadScope selects the read query: "patient" (default) streams
	// one patient's measurements — a cheap point read — while
	// "relation" streams the session's full Measurements relation, the
	// heavier scan an assessment dashboard would issue.
	ReadScope string
	// Seed makes the op sequence reproducible. 0 = 1.
	Seed int64
}

func (s *Spec) defaults() error {
	if s.Target.BaseURL == "" || s.Target.Context == "" {
		return fmt.Errorf("load: Target.BaseURL and Target.Context are required")
	}
	if s.Rate <= 0 || s.Duration <= 0 {
		return fmt.Errorf("load: Rate and Duration must be positive")
	}
	if s.Workers <= 0 {
		s.Workers = int(2 * s.Rate * 0.05)
		if s.Workers < 8 {
			s.Workers = 8
		}
	}
	if s.Sessions <= 0 {
		s.Sessions = 8
	}
	if s.SessionPrefix == "" {
		s.SessionPrefix = "lg"
	}
	if s.ReadRatio == 0 {
		s.ReadRatio = 0.9
	}
	if s.ReadRatio < 0 || s.ReadRatio > 1 {
		return fmt.Errorf("load: ReadRatio %v outside [0,1]", s.ReadRatio)
	}
	if s.DeltaAtoms <= 0 {
		s.DeltaAtoms = 4
	}
	if s.Patients <= 0 {
		s.Patients = 16
	}
	if s.SeedBatches <= 0 {
		s.SeedBatches = 1
	}
	if s.Mode == "" {
		s.Mode = "clean"
	}
	switch s.ReadScope {
	case "":
		s.ReadScope = "patient"
	case "patient", "relation":
	default:
		return fmt.Errorf("load: ReadScope %q (want patient or relation)", s.ReadScope)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return nil
}

// op is one scheduled arrival.
type op struct {
	due     time.Time
	read    bool
	session string
	patient string
	seq     int // distinguishes write timestamps
}

// workerStats are worker-local so the hot path never contends.
type workerStats struct {
	read, write Histogram
	readErrs    int64
	writeErrs   int64
	lastErr     error
}

// Result is what one Run measured.
type Result struct {
	Offered   int64 // arrivals scheduled
	Dropped   int64 // arrivals shed because the queue was full (overload)
	Completed int64
	ReadErrs  int64
	WriteErrs int64
	Elapsed   time.Duration
	Read      Histogram
	Write     Histogram
	// LastErr samples one failure for diagnostics (errors are expected
	// under deliberate overload; the counts are the signal).
	LastErr error
}

// zipfCDF precomputes the session-pick distribution: weight of rank r
// (0-based) is 1/(r+1)^theta, normalized into a CDF for binary search.
// theta=0 degenerates to uniform.
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), theta)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return cdf
}

func pickCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// writeBatch builds op o's delta: DeltaAtoms (Clock, Measurements)
// pairs at distinct synthetic timestamps within the hospital's day
// vocabulary, targeting the op's patient.
func writeBatch(spec *Spec, o op) []datalog.Atom {
	atoms := make([]datalog.Atom, 0, 2*spec.DeltaAtoms)
	for k := 0; k < spec.DeltaAtoms; k++ {
		di := (o.seq + k) % len(hospital.Days)
		if di < 0 {
			di += len(hospital.Days) // seed batches use negative seqs
		}
		day := hospital.Days[di]
		tm := fmt.Sprintf("%s-%s-q%d.%d", day, o.patient, o.seq, k)
		val := fmt.Sprintf("%.1f", 36.0+float64((o.seq+k)%40)/10)
		atoms = append(atoms,
			datalog.A("Clock", datalog.C(tm), datalog.C(day)),
			datalog.A("Measurements", datalog.C(tm), datalog.C(o.patient), datalog.C(val)),
		)
	}
	return atoms
}

// Run executes the spec: opens the session population, then offers
// Rate ops/sec for Duration, measuring each op from its scheduled
// arrival. Session and patient choice, read/write mix and delta
// contents are a pure function of Seed.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.defaults(); err != nil {
		return nil, err
	}
	sessions := make([]string, spec.Sessions)
	for i := range sessions {
		sessions[i] = fmt.Sprintf("%s-%d", spec.SessionPrefix, i)
		if _, err := spec.Target.OpenSessionWithID(ctx, sessions[i]); err != nil {
			return nil, fmt.Errorf("load: open session %s: %w", sessions[i], err)
		}
		// Seed batches so reads have data from the first arrival.
		for b := 0; b < spec.SeedBatches; b++ {
			seed := op{session: sessions[i], patient: fmt.Sprintf("p%d", b%spec.Patients), seq: -1 - i - b*spec.Sessions}
			if err := spec.Target.ApplyBatch(ctx, sessions[i], writeBatch(&spec, seed)); err != nil {
				return nil, fmt.Errorf("load: seed session %s: %w", sessions[i], err)
			}
		}
	}

	// The arrival queue absorbs bursts; when the server falls behind by
	// more than the buffer, further arrivals are shed and counted —
	// sustained drops mean the offered rate exceeds capacity.
	queueCap := int(spec.Rate) // one second of backlog
	if queueCap < 1024 {
		queueCap = 1024
	}
	ops := make(chan op, queueCap)

	stats := make([]*workerStats, spec.Workers)
	var wg sync.WaitGroup
	for w := 0; w < spec.Workers; w++ {
		st := &workerStats{}
		stats[w] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range ops {
				if o.read {
					q := fmt.Sprintf("m(t, v) <- Measurements(t, %q, v).", o.patient)
					if spec.ReadScope == "relation" {
						q = "m(t, p, v) <- Measurements(t, p, v)."
					}
					_, err := spec.Target.Answers(ctx, o.session, q, spec.Mode)
					st.read.Observe(time.Since(o.due))
					if err != nil {
						st.readErrs++
						st.lastErr = err
					}
				} else {
					err := spec.Target.ApplyBatch(ctx, o.session, writeBatch(&spec, o))
					st.write.Observe(time.Since(o.due))
					if err != nil {
						st.writeErrs++
						st.lastErr = err
					}
				}
			}
		}()
	}

	res := &Result{}
	rng := rand.New(rand.NewSource(spec.Seed))
	cdf := zipfCDF(spec.Sessions, spec.Zipf)
	interval := time.Duration(float64(time.Second) / spec.Rate)
	start := time.Now()
	end := start.Add(spec.Duration)
scheduling:
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			break
		}
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				break scheduling
			case <-time.After(d):
			}
		} else if ctx.Err() != nil {
			break
		}
		o := op{
			due:     due,
			read:    rng.Float64() < spec.ReadRatio,
			session: sessions[pickCDF(cdf, rng.Float64())],
			seq:     i,
		}
		o.patient = fmt.Sprintf("p%d", rng.Intn(spec.Patients))
		res.Offered++
		select {
		case ops <- o:
		default:
			res.Dropped++
		}
	}
	close(ops)
	wg.Wait()
	res.Elapsed = time.Since(start)

	for _, st := range stats {
		res.Read.Merge(&st.read)
		res.Write.Merge(&st.write)
		res.ReadErrs += st.readErrs
		res.WriteErrs += st.writeErrs
		if st.lastErr != nil {
			res.LastErr = st.lastErr
		}
	}
	res.Completed = res.Read.Count() + res.Write.Count()
	return res, nil
}
