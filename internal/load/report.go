package load

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Report is the machine-readable record of one run, the unit of a
// LOAD_<n>.json file. Latencies are Summary quantiles in µs; the spec
// echo makes a report self-describing (a number without its offered
// rate and mix is noise).
type Report struct {
	Name string `json:"name"`

	// Spec echo.
	TargetURL   string  `json:"target_url"`
	Context     string  `json:"context"`
	RateOps     float64 `json:"rate_ops_per_sec"`
	DurationSec float64 `json:"duration_sec"`
	Workers     int     `json:"workers"`
	Sessions    int     `json:"sessions"`
	Zipf        float64 `json:"zipf"`
	ReadRatio   float64 `json:"read_ratio"`
	DeltaAtoms  int     `json:"delta_atoms"`
	SeedBatches int     `json:"seed_batches"`
	Mode        string  `json:"mode"`
	ReadScope   string  `json:"read_scope"`

	// Outcome.
	Offered     int64   `json:"offered"`
	Dropped     int64   `json:"dropped"`
	Completed   int64   `json:"completed"`
	ReadErrs    int64   `json:"read_errors"`
	WriteErrs   int64   `json:"write_errors"`
	AchievedOps float64 `json:"achieved_ops_per_sec"`

	Read  Summary `json:"read"`
	Write Summary `json:"write"`
}

// NewReport condenses a Result under its spec.
func NewReport(name string, spec Spec, res *Result) Report {
	elapsed := res.Elapsed.Seconds()
	achieved := 0.0
	if elapsed > 0 {
		achieved = float64(res.Completed) / elapsed
	}
	return Report{
		Name:        name,
		TargetURL:   spec.Target.BaseURL,
		Context:     spec.Target.Context,
		RateOps:     spec.Rate,
		DurationSec: spec.Duration.Seconds(),
		Workers:     spec.Workers,
		Sessions:    spec.Sessions,
		Zipf:        spec.Zipf,
		ReadRatio:   spec.ReadRatio,
		DeltaAtoms:  spec.DeltaAtoms,
		SeedBatches: spec.SeedBatches,
		Mode:        spec.Mode,
		ReadScope:   spec.ReadScope,
		Offered:     res.Offered,
		Dropped:     res.Dropped,
		Completed:   res.Completed,
		ReadErrs:    res.ReadErrs,
		WriteErrs:   res.WriteErrs,
		AchievedOps: achieved,
		Read:        res.Read.Summarize(),
		Write:       res.Write.Summarize(),
	}
}

// ErrorRate is the fraction of completed ops that failed.
func (r Report) ErrorRate() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.ReadErrs+r.WriteErrs) / float64(r.Completed)
}

// Hardware identifies the machine a LOAD_<n>.json file was recorded
// on, so load numbers are never compared across machine shapes by
// accident.
type Hardware struct {
	NumCPU     int    `json:"num_cpu"`
	Gomaxprocs int    `json:"gomaxprocs"`
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
}

// loadDoc is the LOAD_<n>.json shape: the runs plus the recording
// machine.
type loadDoc struct {
	Hardware Hardware `json:"_hardware"`
	Runs     []Report `json:"runs"`
}

// WriteLoadJSON writes the reports to path annotated with the
// recording machine.
func WriteLoadJSON(path string, runs []Report) error {
	hw := Hardware{
		NumCPU:     runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
	}
	data, err := json.MarshalIndent(loadDoc{Hardware: hw, Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatReport renders a human-readable block for terminal output.
func FormatReport(r Report) string {
	line := func(kind string, s Summary, errs int64) string {
		if s.Count == 0 {
			return fmt.Sprintf("  %-6s (none)\n", kind)
		}
		return fmt.Sprintf("  %-6s n=%-8d p50=%-9s p90=%-9s p99=%-9s max=%-9s errs=%d\n",
			kind, s.Count,
			time.Duration(s.P50Us*1e3).Round(time.Microsecond),
			time.Duration(s.P90Us*1e3).Round(time.Microsecond),
			time.Duration(s.P99Us*1e3).Round(time.Microsecond),
			time.Duration(s.MaxUs*1e3).Round(time.Microsecond),
			errs)
	}
	out := fmt.Sprintf("%s: offered %.0f ops/s for %.1fs -> achieved %.1f ops/s (%d completed, %d dropped)\n",
		r.Name, r.RateOps, r.DurationSec, r.AchievedOps, r.Completed, r.Dropped)
	out += line("reads", r.Read, r.ReadErrs)
	out += line("writes", r.Write, r.WriteErrs)
	return out
}
