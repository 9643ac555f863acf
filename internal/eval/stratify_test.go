package eval

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	dl "repro/internal/datalog"
	"repro/internal/storage"
)

// strataIDs renders strata as rule ids, one slice per stratum.
func strataIDs(strata [][]*Rule) [][]string {
	out := make([][]string, len(strata))
	for i, rules := range strata {
		for _, r := range rules {
			out[i] = append(out[i], r.ID)
		}
	}
	return out
}

func unary(id, head, body string) *Rule {
	return NewRule(id, dl.A(head, dl.V("x")), dl.A(body, dl.V("x")))
}

func TestStratifyComponents(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rules []*Rule
		want  string
	}{
		{
			name:  "non-recursive chain listed in reverse",
			rules: []*Rule{unary("c", "C", "B"), unary("b", "B", "A"), unary("a", "A", "E")},
			want:  "[[a] [b] [c]]",
		},
		{
			name:  "self recursion is one stratum",
			rules: reachProgram().Rules,
			want:  "[[base step]]",
		},
		{
			name:  "mutual recursion is one stratum",
			rules: []*Rule{unary("pq", "P", "Q"), unary("qp", "Q", "P"), unary("pe", "P", "E")},
			want:  "[[pq qp pe]]",
		},
		{
			name: "rules keep source order within a stratum",
			rules: []*Rule{
				unary("q1", "Q", "P"), unary("s", "S", "Q"), unary("p1", "P", "E"),
				unary("q2", "Q", "E"), unary("p2", "P", "Q"),
			},
			want: "[[q1 p1 q2 p2] [s]]",
		},
		{
			name: "diamond orders each side before the join",
			rules: []*Rule{
				NewRule("d", dl.A("D", dl.V("x")), dl.A("B", dl.V("x")), dl.A("C", dl.V("x"))),
				unary("b", "B", "A"), unary("c", "C", "A"), unary("a", "A", "E"),
			},
			want: "[[a] [b] [c] [d]]",
		},
		{
			name: "negation across components is ordered",
			rules: []*Rule{
				unary("n", "N", "E").WithNegated(dl.A("R", dl.V("x"))),
				unary("r1", "R", "E"), unary("r2", "R", "R"),
			},
			want: "[[r1 r2] [n]]",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProgram()
			p.Add(tc.rules...)
			strata, err := p.Stratify()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(strataIDs(strata)); got != tc.want {
				t.Fatalf("strata %s, want %s", got, tc.want)
			}
			if err := checkStrata(p, strata); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStratifyRejectsNegationInsideComponent covers recursion through
// negation in a component that a positive edge closes: P reads Q
// positively, Q negates P.
func TestStratifyRejectsNegationInsideComponent(t *testing.T) {
	p := NewProgram()
	p.Add(unary("p", "P", "Q"))
	p.Add(unary("q", "Q", "E").WithNegated(dl.A("P", dl.V("x"))))
	if _, err := p.Stratify(); err == nil {
		t.Fatal("negation inside a component must be rejected")
	}
	self := NewProgram()
	self.Add(unary("p", "P", "E").WithNegated(dl.A("P", dl.V("x"))))
	if _, err := self.Stratify(); err == nil {
		t.Fatal("a predicate negating itself must be rejected")
	}
}

// TestNonRecursiveInitAllocs pins the one-pass evaluation of
// non-recursive strata: Init of a two-rule chain collects no per-row
// delta, so it allocates far fewer objects than it derives rows (the
// remaining allocations are plans, relation growth and arena chunks).
func TestNonRecursiveInitAllocs(t *testing.T) {
	const n = 12000
	db := storage.NewInstance()
	for i := 0; i < n; i++ {
		db.MustInsert("E", dl.C(fmt.Sprintf("a%d", i)), dl.C(fmt.Sprintf("b%d", i%97)))
	}
	p := NewProgram()
	p.Add(NewRule("a", dl.A("A", dl.V("y"), dl.V("x")), dl.A("E", dl.V("x"), dl.V("y"))))
	p.Add(NewRule("b", dl.A("B", dl.V("x"), dl.V("y")), dl.A("A", dl.V("y"), dl.V("x"))))
	strata, err := p.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(strata, db.CloneDetached())
	st.SetParallelism(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := st.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	derived := st.Instance().TotalTuples() - n
	if derived < 2*n {
		t.Fatalf("derived %d rows, want at least %d", derived, 2*n)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs*10 >= uint64(derived) {
		t.Fatalf("Init allocated %d objects for %d derived rows, want fewer than one per 10 rows", allocs, derived)
	}
}
