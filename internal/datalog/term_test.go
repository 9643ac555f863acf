package datalog

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestTermKinds(t *testing.T) {
	c := C("W1")
	v := V("x")
	n := N("0")
	if !c.IsConst() || c.IsVar() || c.IsNull() {
		t.Errorf("C(W1) kind flags wrong: %+v", c)
	}
	if !v.IsVar() || v.IsConst() || v.IsNull() {
		t.Errorf("V(x) kind flags wrong: %+v", v)
	}
	if !n.IsNull() || n.IsConst() || n.IsVar() {
		t.Errorf("N(0) kind flags wrong: %+v", n)
	}
	if !c.IsGround() || v.IsGround() || !n.IsGround() {
		t.Errorf("groundness wrong: c=%v v=%v n=%v", c.IsGround(), v.IsGround(), n.IsGround())
	}
}

func TestTermEqualityAsMapKey(t *testing.T) {
	m := map[Term]int{}
	m[C("a")] = 1
	m[V("a")] = 2
	m[N("a")] = 3
	if len(m) != 3 {
		t.Fatalf("terms with same name but different kinds must be distinct keys, got %d entries", len(m))
	}
	if m[C("a")] != 1 || m[V("a")] != 2 || m[N("a")] != 3 {
		t.Fatalf("map lookups wrong: %v", m)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{C("W1"), "W1"},
		{C("Tom Waits"), `"Tom Waits"`},
		{C("Sep/5-12:10"), `"Sep/5-12:10"`},
		{C("38.2"), "38.2"},
		{C(""), `""`},
		{C("123"), "123"},
		// Numbers the lexer would not read whole are quoted: it reads
		// only digits with an optional fraction as a number.
		{C("night"), "night"},
		{C("-5"), `"-5"`},
		{C("1e5"), `"1e5"`},
		{C(".5"), `".5"`},
		{C("5."), `"5."`},
		{V("x"), "x"},
		{N("7"), "⊥7"},
	}
	for _, tc := range cases {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String(%+v) = %q, want %q", tc.term, got, tc.want)
		}
	}
}

func TestTermCompare(t *testing.T) {
	cases := []struct {
		a, b Term
		want int
	}{
		{C("a"), C("b"), -1},
		{C("b"), C("a"), 1},
		{C("a"), C("a"), 0},
		{C("2"), C("10"), -1}, // numeric, not lexicographic
		{C("10"), C("2"), 1},
		{C("1.5"), C("1.50"), 0},
		{C("z"), V("a"), -1}, // consts before vars
		{V("z"), N("a"), -1}, // vars before nulls
		{C("Sep/5-11:45"), C("Sep/5-12:15"), -1},
	}
	for _, tc := range cases {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestTermCompareAntisymmetric(t *testing.T) {
	f := func(a, b string) bool {
		x, y := C(a), C(b)
		return x.Compare(y) == -y.Compare(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refCompareNumeric is compareNumeric's definition: both names parse
// with strconv.ParseFloat, and compare as floats.
func refCompareNumeric(a, b string) (int, bool) {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA != nil || errB != nil {
		return 0, false
	}
	switch {
	case fa < fb:
		return -1, true
	case fa > fb:
		return 1, true
	default:
		return 0, true
	}
}

func parseNumericOK(s string) bool {
	_, ok := parseNumeric(s)
	return ok
}

func TestCompareNumericMatchesParseFloat(t *testing.T) {
	names := []string{
		"0", "2", "10", "-3", "+4", "1.5", "1.50", ".5", "-.5", "5.", "1e3", "1E-2", "1e400", "-1e400",
		"inf", "+Inf", "-INF", "infinity", "-Infinity", "infinite", "NaN", "nan", "-nan", "+NaN", "nano",
		"0x1p-2", "0X1P4", "0x10", "-0x1.8p1", "0b101", "1_000", "0x_1p0", "_1",
		"a", "W1", "Tom", "Intensive", "Nurse", "-x", "+", "-", ".", "", "Sep/5-12:10", "37.5C", "1.2.3", " 1", "1 ",
	}
	for _, a := range names {
		if _, err := strconv.ParseFloat(a, 64); parseNumericOK(a) != (err == nil) {
			t.Errorf("parseNumeric(%q) ok = %v, ParseFloat error %v", a, parseNumericOK(a), err)
		}
		for _, b := range names {
			gc, gok := compareNumeric(a, b)
			wc, wok := refCompareNumeric(a, b)
			if gc != wc || gok != wok {
				t.Errorf("compareNumeric(%q, %q) = %d, %v; ParseFloat gives %d, %v", a, b, gc, gok, wc, wok)
			}
		}
	}
	// Random names over the characters float literals are made of.
	const alphabet = "0123456789.+-_eEpPxXiInNfFaAtyb "
	f := func(seedA, seedB []uint8) bool {
		name := func(seed []uint8) string {
			out := make([]byte, len(seed)%8)
			for i := range out {
				out[i] = alphabet[int(seed[i])%len(alphabet)]
			}
			return string(out)
		}
		a, b := name(seedA), name(seedB)
		gc, gok := compareNumeric(a, b)
		wc, wok := refCompareNumeric(a, b)
		return gc == wc && gok == wok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestCompareNonNumericAllocs pins the screen in front of
// strconv.ParseFloat: comparing two constants that cannot be numbers
// allocates nothing.
func TestCompareNonNumericAllocs(t *testing.T) {
	for _, pair := range [][2]Term{
		{C("Tom"), C("W1")},
		{C("Intensive"), C("Nurse")},
		{C("-x"), C("Sep/5-12:10")},
		{C("37.5"), C("Standard")},
	} {
		if allocs := testing.AllocsPerRun(100, func() { pair[0].Compare(pair[1]) }); allocs != 0 {
			t.Errorf("Compare(%v, %v) allocates %.0f objects, want 0", pair[0], pair[1], allocs)
		}
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter("n")
	if got := c.Next(); got != "n0" {
		t.Errorf("first Next = %q, want n0", got)
	}
	if got := c.Next(); got != "n1" {
		t.Errorf("second Next = %q, want n1", got)
	}
	nu := c.FreshNull()
	if !nu.IsNull() || nu.Name != "n2" {
		t.Errorf("FreshNull = %v, want ⊥n2", nu)
	}
	va := c.FreshVar()
	if !va.IsVar() || va.Name != "n3" {
		t.Errorf("FreshVar = %v, want var n3", va)
	}
}

func TestTermsString(t *testing.T) {
	got := TermsString([]Term{C("W1"), V("x"), N("2")})
	want := "W1, x, ⊥2"
	if got != want {
		t.Errorf("TermsString = %q, want %q", got, want)
	}
}

func TestCloneTermsIndependence(t *testing.T) {
	orig := []Term{C("a"), V("x")}
	cl := CloneTerms(orig)
	cl[0] = C("b")
	if orig[0] != C("a") {
		t.Error("CloneTerms must not share backing array effects")
	}
}
