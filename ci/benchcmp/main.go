// Command benchcmp is the comparator behind ci/bench-gate.sh. It reads
// two `go test -bench` outputs, the base commit's and the change's,
// each holding one line per benchmark per run, in the order the
// alternating pairs ran. For every benchmark present on both sides it
// pairs the k-th base reading with the k-th change reading and takes
// the median of the change/base ns/op ratios: runs of one binary
// spread widely on a shared machine, but the two runs of a pair see
// the same machine. It fails when any median exceeds tolerance, or
// when no benchmark is present on both sides.
//
// Usage:
//
//	benchcmp base.txt change.txt
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// tolerance is the largest median change/base ns/op ratio that passes.
const tolerance = 1.30

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp base.txt change.txt")
		os.Exit(2)
	}
	var sides [2]map[string][]float64
	for i, path := range os.Args[1:] {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			os.Exit(1)
		}
		sides[i], err = parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcmp: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
	if err := gate(os.Stdout, sides[0], sides[1]); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

// parse returns each benchmark's ns/op readings in output order.
func parse(r io.Reader) (map[string][]float64, error) {
	out := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		out[f[0]] = append(out[f[0]], ns)
	}
	return out, sc.Err()
}

// gate prints each matched benchmark's median change/base ratio over
// its pairs and returns an error naming every benchmark above
// tolerance, or when no benchmark matched.
func gate(w io.Writer, base, change map[string][]float64) error {
	var names, slower []string
	for name := range base {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no benchmark is present on both sides")
	}
	sort.Strings(names)
	for _, name := range names {
		b, c := base[name], change[name]
		ratios := make([]float64, min(len(b), len(c)))
		for i := range ratios {
			ratios[i] = c[i] / b[i]
		}
		sort.Float64s(ratios)
		n := len(ratios)
		med := (ratios[(n-1)/2] + ratios[n/2]) / 2
		verdict := "ok"
		if med > tolerance {
			verdict = "SLOWER"
			slower = append(slower, name)
		}
		fmt.Fprintf(w, "%-45s pairs=%-3d median change/base=%.3f  %s\n", name, n, med, verdict)
	}
	if len(slower) > 0 {
		return fmt.Errorf("median change/base ns/op above %.2f: %s", tolerance, strings.Join(slower, ", "))
	}
	return nil
}
