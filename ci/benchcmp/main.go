// Command benchcmp is the comparator behind ci/bench-gate.sh. It reads
// two `go test -bench -benchmem` outputs, the base commit's and the
// change's, each holding one line per benchmark per run, in the order
// the alternating pairs ran. For every benchmark present on both sides
// it pairs the k-th base reading with the k-th change reading and takes
// the median of the change/base ns/op ratios, and of the B/op ratios:
// runs of one binary spread widely on a shared machine, but the two
// runs of a pair see the same machine. It fails when a median exceeds
// its tolerance, or when no benchmark is present on both sides. A
// benchmark whose lines lack B/op on either side (a run without
// -benchmem) has only its ns/op gated.
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

// bytesTolerance is the largest median change/base B/op ratio that
// passes. Bytes allocated per op barely vary between runs of one
// binary (well under 1% for the gated benchmarks), so a smaller bound
// than for time still leaves room for noise.
const bytesTolerance = 1.10

// reading is one benchmark line's ns/op and B/op; bytes is -1 on a
// line without B/op.
type reading struct{ ns, bytes float64 }

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp base.txt change.txt")
		os.Exit(2)
	}
	var sides [2]map[string][]reading
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

// parse returns each benchmark's readings in output order.
func parse(r io.Reader) (map[string][]reading, error) {
	out := map[string][]reading{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		rd := reading{bytes: -1}
		var err error
		if rd.ns, err = strconv.ParseFloat(f[2], 64); err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		for i := 5; i < len(f); i += 2 {
			if f[i] == "B/op" {
				if rd.bytes, err = strconv.ParseFloat(f[i-1], 64); err != nil {
					return nil, fmt.Errorf("bad B/op in %q: %w", sc.Text(), err)
				}
			}
		}
		out[f[0]] = append(out[f[0]], rd)
	}
	return out, sc.Err()
}

// gate prints each matched benchmark's median change/base ns/op and
// B/op ratios over its pairs and returns an error naming every
// benchmark above a tolerance, or when no benchmark matched.
func gate(w io.Writer, base, change map[string][]reading) error {
	var names, slower, heavier []string
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
		n := min(len(b), len(c))
		ns, bytes := make([]float64, n), make([]float64, 0, n)
		for i := range ns {
			ns[i] = c[i].ns / b[i].ns
			if b[i].bytes >= 0 && c[i].bytes >= 0 {
				bytes = append(bytes, ratio(c[i].bytes, b[i].bytes))
			}
		}
		var flags []string
		nsMed := median(ns)
		if nsMed > tolerance {
			flags = append(flags, "SLOWER")
			slower = append(slower, name)
		}
		bytesCol := "-"
		if len(bytes) == n {
			bytesMed := median(bytes)
			bytesCol = fmt.Sprintf("%.3f", bytesMed)
			if bytesMed > bytesTolerance {
				flags = append(flags, "MORE BYTES")
				heavier = append(heavier, name)
			}
		}
		verdict := "ok"
		if len(flags) > 0 {
			verdict = strings.Join(flags, ", ")
		}
		fmt.Fprintf(w, "%-45s pairs=%-3d median change/base ns/op=%.3f B/op=%-5s  %s\n", name, n, nsMed, bytesCol, verdict)
	}
	var errs []string
	if len(slower) > 0 {
		errs = append(errs, fmt.Sprintf("median change/base ns/op above %.2f: %s", tolerance, strings.Join(slower, ", ")))
	}
	if len(heavier) > 0 {
		errs = append(errs, fmt.Sprintf("median change/base B/op above %.2f: %s", bytesTolerance, strings.Join(heavier, ", ")))
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}

// ratio is c/b, where a benchmark that allocated nothing on both sides
// reads 1 (and one that starts allocating reads +Inf).
func ratio(c, b float64) float64 {
	if c == b {
		return 1
	}
	return c / b
}

// median returns the median of xs, which it sorts.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}
