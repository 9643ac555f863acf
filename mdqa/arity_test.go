package mdqa_test

import (
	"context"
	"strings"
	"testing"

	"repro/mdqa"
)

// TestRuleArityContract: a mapping, quality or version rule atom whose
// arity differs from the ontology's or the base's use of its predicate
// fails Prepare, naming the rule and the predicate, and a session over
// an instance holding a relation the rules use at another arity fails
// to open, as Apply fails on such an atom. Each would otherwise derive
// nothing, or fail only once an assessment runs it.
func TestRuleArityContract(t *testing.T) {
	ctx := context.Background()
	w, i, x := mdqa.Var("w"), mdqa.Var("i"), mdqa.Var("x")
	hot := mdqa.NewAtom("Hot", w)
	foo := mdqa.NewAtom("Foo", w)
	// sales is salesContext's ontology with rule as the only rule, over
	// CitySales(Ottawa, skates) and foo.
	sales := func(rule mdqa.Option, foo ...mdqa.Term) (*mdqa.Context, *mdqa.Instance) {
		o, err := salesOntology()
		if err != nil {
			t.Fatal(err)
		}
		qc, err := mdqa.NewContext(o, rule)
		if err != nil {
			t.Fatal(err)
		}
		d := mdqa.NewInstance()
		d.MustInsert("CitySales", mdqa.Const("Ottawa"), mdqa.Const("skates"))
		d.MustInsert("Foo", foo...)
		return qc, d
	}
	ottawa := mdqa.Const("Ottawa")
	hospital := func(extra string) (*mdqa.Context, *mdqa.Instance) {
		f, err := mdqa.ParseSource(mdqa.HospitalQualityExampleSource() + extra)
		if err != nil {
			t.Fatal(err)
		}
		qc, err := mdqa.NewContextFromFile(f)
		if err != nil {
			t.Fatal(err)
		}
		return qc, mdqa.InputInstance(f)
	}
	for _, tc := range []struct {
		name    string
		open    func() (*mdqa.Context, *mdqa.Instance)
		session bool     // the rules prepare, and NewSession fails
		wants   []string // what the error names
	}{
		{"negated atom", func() (*mdqa.Context, *mdqa.Instance) {
			return sales(mdqa.WithQualityRule(mdqa.NewRule("hot", hot, foo).WithNegated(mdqa.NewAtom("CitySales", w))), ottawa)
		}, false, []string{"rule hot", "CitySales"}},
		{"body atom", func() (*mdqa.Context, *mdqa.Instance) {
			return sales(mdqa.WithQualityRule(mdqa.NewRule("hot", hot, mdqa.NewAtom("CitySales", w, i, x))), ottawa)
		}, false, []string{"rule hot", "CitySales"}},
		{"head atom", func() (*mdqa.Context, *mdqa.Instance) {
			return sales(mdqa.WithMapping(mdqa.NewRule("country", mdqa.NewAtom("CountrySales", w), foo)), ottawa)
		}, false, []string{"rule country", "CountrySales"}},
		{"mdq quality rule", func() (*mdqa.Context, *mdqa.Instance) {
			return hospital("\nquality bad: Hot(w) <- PatientWard(w, d).\n")
		}, false, []string{"rule bad", "PatientWard"}},
		{"session instance", func() (*mdqa.Context, *mdqa.Instance) {
			return sales(mdqa.WithQualityRule(mdqa.NewRule("hot", hot, foo)), ottawa, mdqa.Const("x"))
		}, true, []string{"Foo", "arity 1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qc, inst := tc.open()
			prep, err := qc.Prepare(ctx)
			if tc.session {
				if err != nil {
					t.Fatal(err)
				}
				_, err = prep.NewSession(ctx, inst)
			}
			if err == nil {
				t.Fatal("the rules open with an atom of the wrong arity")
			}
			for _, want := range tc.wants {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
		})
	}
}
