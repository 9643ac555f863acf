package parser

import "testing"

// FuzzParseQuery feeds arbitrary text to ParseQuery, the parser behind
// the server's untrusted ?q= parameter. It must never panic; a query
// that parses must validate, and its String() must parse back to a
// query with the same String().
func FuzzParseQuery(f *testing.F) {
	// Seed with every query the example files declare, in source form
	// and as rendered, plus queries that reach conditions and negation.
	for _, src := range []string{FormatHospitalExample(), FormatHospitalQualityExample()} {
		file, err := Parse(src)
		if err != nil {
			f.Fatal(err)
		}
		for _, nq := range file.Queries {
			f.Add(nq.Query.String())
		}
	}
	f.Add(`marks(d) <- Shifts(W1, d, Mark, s).`)
	f.Add(`m(t, p, v) <- Measurements(t, p, v).`)
	f.Add(`q(t, v) <- Measurements(t, "Tom Waits", v), t >= "Sep/5-11:45", v < 38.5.`)
	f.Add(`q(p) <- PatientWard(w, d, p), not PatientUnit(Intensive, d, p), w != W3`)
	f.Add(`q() <- R("a\"b\\c\n\x01é")`)

	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("parsed query %q does not validate: %v", src, err)
		}
		s1 := q.String()
		q2, err := ParseQuery(s1)
		if err != nil {
			t.Fatalf("%q parsed to %q, which does not parse: %v", src, s1, err)
		}
		if s2 := q2.String(); s2 != s1 {
			t.Fatalf("%q parsed to %q, which reparses to %q", src, s1, s2)
		}
	})
}

// FuzzParseMDQ feeds arbitrary text to Parse, the parser behind
// ParseSource/ParseFile, mdq and mdserve start-up. It must never
// panic, and a file that parses and declares a quality context must
// build that context or return an error.
func FuzzParseMDQ(f *testing.F) {
	f.Add(FormatHospitalExample())
	f.Add(FormatHospitalQualityExample())
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil || !file.HasContext() {
			return
		}
		if qc, err := file.BuildContext(); err == nil && qc == nil {
			t.Fatalf("BuildContext returned neither a context nor an error for %q", src)
		}
	})
}
