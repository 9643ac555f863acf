package source

import (
	"strings"
	"testing"
)

// FuzzSourcePayload runs arbitrary bytes through the File and HTTP
// connectors' payload parsers, as JSON/NDJSON rows and as CSV, with and
// without declared attributes, and materializes every parse through
// Result.Instance. Nothing may panic, and an instance built without
// error must hold exactly the payload's distinct rows.
func FuzzSourcePayload(f *testing.F) {
	f.Add([]byte("[]\n[\"a\"]\n[\"b\"]"), false)
	f.Add([]byte(`[[],["a"]]`), false)
	f.Add([]byte("ward,day\nW1,Sep/5\nW2,Sep/6\nW1,Sep/5\n"), false)
	f.Add([]byte(`{"ward":"W1","day":"Sep/5"}`+"\n"+`{"day":"Sep/6","ward":"W2"}`), true)

	f.Fuzz(func(t *testing.T, data []byte, declared bool) {
		schema := Schema{Relation: "R"}
		if declared {
			schema.Attrs = []string{"ward", "day"}
		}
		for _, csv := range []bool{false, true} {
			res := &Result{Version: "v"}
			var err error
			if csv {
				res.Tuples, res.Attrs, err = parseCSV(data, declared)
			} else {
				res.Tuples, err = parseRows(data, schema.Attrs)
			}
			if err != nil {
				continue
			}
			inst, err := res.Instance(schema)
			if err != nil {
				continue
			}
			want := map[string]bool{}
			for _, tup := range res.Tuples {
				want[strings.Join(tup, "\x00")] = true
			}
			got := map[string]bool{}
			if rel := inst.Relation("R"); rel != nil {
				for _, tup := range rel.Tuples() {
					vals := make([]string, len(tup))
					for i, term := range tup {
						vals[i] = term.Name
					}
					got[strings.Join(vals, "\x00")] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("csv=%v: instance holds %d distinct rows, payload has %d: %q", csv, len(got), len(want), res.Tuples)
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("csv=%v: payload row %q missing from the instance", csv, strings.Split(k, "\x00"))
				}
			}
		}
	})
}
