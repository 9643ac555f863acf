// Command mdbench regenerates every table and figure of the paper and
// runs the complexity-claim experiments (the runner list is bench.All
// in internal/bench). Each experiment checks its own output against
// the paper and prints MATCH:/SHAPE: lines; a FAILED: line means the
// engine no longer reproduces it.
//
// Usage:
//
//	mdbench              # run everything
//	mdbench -exp T2      # one experiment
//	mdbench -scale 6400  # extend the C1 scaling sweep
//
// Micro-benchmarks are `go test -bench` in internal/benchsuite (see
// PERF.md, "Running the benchmarks").
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment ID to run (default: all); one of "+strings.Join(bench.IDs(), ","))
	scale := flag.String("scale", "", "comma-separated base sizes for an extended C1 scaling sweep")
	flag.Parse()

	if *scale != "" {
		if err := runScale(*scale); err != nil {
			fmt.Fprintln(os.Stderr, "mdbench:", err)
			os.Exit(1)
		}
		return
	}

	experiments := bench.All()
	if *exp != "" {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "mdbench: unknown experiment %q (have %s)\n", *exp, strings.Join(bench.IDs(), ", "))
			os.Exit(1)
		}
		experiments = []bench.Experiment{e}
	}
	failed := 0
	for _, e := range experiments {
		fmt.Printf("==== %s — %s ====\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(os.Stdout); err != nil {
			fmt.Printf("FAILED: %v\n", err)
			failed++
		}
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mdbench: %d experiments failed\n", failed)
		os.Exit(1)
	}
}

func runScale(spec string) error {
	var sizes []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -scale: bad value %q", part)
		}
		sizes = append(sizes, n)
	}
	rows, err := bench.RunScaling(sizes)
	if err != nil {
		return err
	}
	fmt.Printf("%8s  %12s  %12s  %12s  %10s\n", "n", "chase", "DetQA", "rewrite", "atoms")
	for _, r := range rows {
		fmt.Printf("%8d  %12v  %12v  %12v  %10d\n",
			r.N, r.Chase.Round(time.Microsecond), r.DetQA.Round(time.Microsecond),
			r.Rewrite.Round(time.Microsecond), r.Atoms)
	}
	return nil
}
