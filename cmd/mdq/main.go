// Command mdq loads a .mdq multidimensional ontology file and operates
// on it: describe its contents, classify the compiled Datalog± program,
// chase it, check its constraints, answer its named queries with a
// chosen engine, or run the quality-assessment pipeline.
//
// Usage (a global -parallelism flag before the command bounds the
// worker pool: 0 = all cores, 1 = no worker goroutines):
//
//	mdq [-parallelism n] describe file.mdq
//	mdq classify file.mdq
//	mdq chase    file.mdq
//	mdq check    file.mdq
//	mdq query    file.mdq [-engine chase|det|rewrite] [name]
//	mdq assess   file.mdq            # quality versions + measures
//	mdq clean    file.mdq [-explain] [name]
//
// assess and clean accept repeated global -source rel=url-or-path
// flags binding a live external source (HTTP endpoint or CSV/NDJSON
// file) to a contextual relation, fetched once for the assessment:
//
//	mdq -source PatientWard=wards.csv assess file.mdq
//	                                 # clean answers to named queries;
//	                                 # -explain prints the compiled join
//	                                 # plan (atom order + cost estimates)
//	                                 # instead of the answers
//	mdq example                      # print the built-in hospital example
//	mdq example -quality             # ... with the Example 7 context
//
// With no query name, every named query in the file is answered.
//
// The command is a thin shell over the public repro/mdqa facade; every
// operation honors interrupt-driven cancellation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"repro/mdqa"
)

// sourceFlags collects repeated -source rel=url-or-path flags; each
// becomes a live source binding on the quality context (fetched once
// per assessment — the CLI has no long-lived session to refresh).
type sourceFlags []mdqa.Option

func (s *sourceFlags) String() string { return fmt.Sprintf("%d sources", len(*s)) }

func (s *sourceFlags) Set(v string) error {
	rel, spec, ok := strings.Cut(v, "=")
	if !ok || rel == "" || spec == "" {
		return fmt.Errorf("want relation=url-or-path, got %q", v)
	}
	schema := mdqa.SourceSchema{Relation: rel}
	var src mdqa.Source
	if strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://") {
		src = mdqa.NewHTTPSource(spec, schema)
	} else {
		src = mdqa.NewFileSource(spec, schema)
	}
	*s = append(*s, mdqa.WithSource(rel, src))
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mdq:", err)
		os.Exit(1)
	}
}

// run dispatches the CLI; out receives all normal output.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mdq", flag.ContinueOnError)
	fs.SetOutput(out)
	parallelism := fs.Int("parallelism", 0,
		"worker pool bound for chase/eval rounds (0 = all cores, 1 = no worker goroutines)")
	var liveSources sourceFlags
	fs.Var(&liveSources, "source",
		"live external source for assess/clean, as relation=url-or-path (repeatable)")
	fs.Usage = func() {
		fmt.Fprintln(out, usageError().Error())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help printed the usage; a clean exit
		}
		return err
	}
	args = fs.Args()
	if len(args) < 1 {
		return usageError()
	}
	cmd := args[0]
	if cmd == "example" {
		if len(args) > 1 && args[1] == "-quality" {
			fmt.Fprint(out, mdqa.HospitalQualityExampleSource())
		} else {
			fmt.Fprint(out, mdqa.HospitalExampleSource())
		}
		return nil
	}
	if len(args) < 2 {
		return usageError()
	}
	path := args[1]
	rest := args[2:]
	file, err := mdqa.ParseFile(path)
	if err != nil {
		return err
	}
	switch cmd {
	case "describe":
		return describe(file, out)
	case "classify":
		return classify(file, out)
	case "chase":
		return runChase(ctx, file, *parallelism, out)
	case "check":
		return check(ctx, file, *parallelism, out)
	case "query":
		return runQuery(ctx, file, rest, *parallelism, out)
	case "assess":
		return assess(ctx, file, *parallelism, liveSources, out)
	case "clean":
		return cleanAnswer(ctx, file, rest, *parallelism, liveSources, out)
	default:
		return usageError()
	}
}

func usageError() error {
	return fmt.Errorf("usage: mdq <describe|classify|chase|check|query|assess|clean|example> [file.mdq] [args]")
}

func describe(f *mdqa.File, out io.Writer) error {
	fmt.Fprint(out, f.Ontology.Summary())
	if len(f.Queries) > 0 {
		fmt.Fprintln(out, "Queries:")
		for _, nq := range f.Queries {
			fmt.Fprintf(out, "  %s\n", nq.Query)
		}
	}
	if mdqa.HasQualityContext(f) {
		c := f.Context
		fmt.Fprintf(out, "Quality context: %d input tuples, %d mappings, %d quality rules, %d versions\n",
			c.Input.TotalTuples(), len(c.Mappings), len(c.QualityRules), len(c.Versions))
	}
	sep, reason := f.Ontology.SeparabilityHeuristic()
	fmt.Fprintf(out, "EGD separability: %v (%s)\n", sep, reason)
	fmt.Fprintf(out, "Upward-only: %v\n", f.Ontology.IsUpwardOnly())
	return nil
}

func classify(f *mdqa.File, out io.Writer) error {
	comp, err := f.Ontology.Compile(mdqa.CompileOptions{ReferentialNCs: true})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, comp.Report)
	if comp.Report.StickyWitness != "" {
		fmt.Fprintln(out, "not sticky because:", comp.Report.StickyWitness)
	}
	if comp.Report.WSWitness != "" {
		fmt.Fprintln(out, "not weakly sticky because:", comp.Report.WSWitness)
	}
	for _, t := range f.Ontology.Rules() {
		fmt.Fprintf(out, "rule %s: %s navigation, %s\n", t.ID, comp.Directions[t.ID], comp.Forms[t.ID])
	}
	return nil
}

func runChase(ctx context.Context, f *mdqa.File, parallelism int, out io.Writer) error {
	comp, err := f.Ontology.Compile(mdqa.CompileOptions{})
	if err != nil {
		return err
	}
	res, err := mdqa.Chase(ctx, comp, mdqa.ChaseOptions{Parallelism: parallelism})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "chase: %d rounds, %d rule firings, %d nulls invented, saturated=%v\n",
		res.Rounds, res.Fired, res.NullsCreated, res.Saturated)
	for _, name := range f.Ontology.Relations() {
		rel := res.Instance.Relation(name)
		if rel == nil || rel.Len() == 0 {
			continue
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, mdqa.FormatRelationSorted(rel))
	}
	return nil
}

func check(ctx context.Context, f *mdqa.File, parallelism int, out io.Writer) error {
	comp, err := f.Ontology.Compile(mdqa.CompileOptions{ReferentialNCs: true})
	if err != nil {
		return err
	}
	res, err := mdqa.Chase(ctx, comp, mdqa.ChaseOptions{Parallelism: parallelism})
	if err != nil {
		return err
	}
	if res.Consistent() {
		fmt.Fprintln(out, "consistent: no constraint violations")
		return nil
	}
	fmt.Fprintf(out, "%d constraint violations:\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Fprintf(out, "  %s\n", v)
	}
	return nil
}

func runQuery(ctx context.Context, f *mdqa.File, args []string, parallelism int, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	fs.SetOutput(out)
	engineName := fs.String("engine", "det", "answering engine: chase, det, or rewrite")
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine, err := mdqa.QueryEngineByName(*engineName)
	if err != nil {
		return err
	}
	comp, err := f.Ontology.Compile(mdqa.CompileOptions{})
	if err != nil {
		return err
	}
	queries := f.Queries
	if fs.NArg() > 0 {
		q := f.QueryByName(fs.Arg(0))
		if q == nil {
			return fmt.Errorf("no query named %s", fs.Arg(0))
		}
		queries = []mdqa.NamedQuery{{Name: fs.Arg(0), Query: q}}
	}
	if len(queries) == 0 {
		return fmt.Errorf("the file declares no queries")
	}
	for _, nq := range queries {
		as, err := mdqa.CertainAnswers(ctx, comp, nq.Query, mdqa.AnswerOptions{
			Engine:          engine,
			Chase:           mdqa.ChaseOptions{Parallelism: parallelism},
			AllowViolations: true,
		})
		if err != nil {
			return fmt.Errorf("query %s: %w", nq.Name, err)
		}
		fmt.Fprintf(out, "%s (%d answers):\n%s", nq.Query, as.Len(), as)
	}
	return nil
}

// assessFile runs the quality pipeline through the facade's prepared
// session layer; shared by assess and clean.
func assessFile(ctx context.Context, f *mdqa.File, parallelism int, sources []mdqa.Option) (*mdqa.Assessment, error) {
	if !mdqa.HasQualityContext(f) {
		return nil, fmt.Errorf("the file declares no quality context (input/mapping/quality/version statements)")
	}
	opts := append([]mdqa.Option{mdqa.WithParallelism(parallelism)}, sources...)
	qc, err := mdqa.NewContextFromFile(f, opts...)
	if err != nil {
		return nil, err
	}
	return qc.Assess(ctx, mdqa.InputInstance(f))
}

func assess(ctx context.Context, f *mdqa.File, parallelism int, sources []mdqa.Option, out io.Writer) error {
	a, err := assessFile(ctx, f, parallelism, sources)
	if err != nil {
		return err
	}
	for _, v := range a.Violations() {
		fmt.Fprintln(out, "violation:", v)
	}
	for _, spec := range f.Context.Versions {
		rel, err := a.Version(spec.Original)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "quality version of %s:\n", spec.Original)
		fmt.Fprint(out, mdqa.FormatRelationSorted(rel))
		if m, ok := a.Measures()[spec.Original]; ok {
			fmt.Fprintf(out, "measure: |D|=%d |D_q|=%d clean-fraction=%.3f distance=%.3f\n\n",
				m.Original, m.Quality, m.CleanFraction(), m.Distance())
		}
	}
	return nil
}

func cleanAnswer(ctx context.Context, f *mdqa.File, args []string, parallelism int, sources []mdqa.Option, out io.Writer) error {
	fs := flag.NewFlagSet("clean", flag.ContinueOnError)
	fs.SetOutput(out)
	explain := fs.Bool("explain", false,
		"print each query's compiled join plan (atom order + cost estimates) instead of its answers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	a, err := assessFile(ctx, f, parallelism, sources)
	if err != nil {
		return err
	}
	queries := f.Queries
	if len(args) > 0 {
		q := f.QueryByName(args[0])
		if q == nil {
			return fmt.Errorf("no query named %s", args[0])
		}
		queries = []mdqa.NamedQuery{{Name: args[0], Query: q}}
	}
	if len(queries) == 0 {
		return fmt.Errorf("the file declares no queries")
	}
	// Stream the clean answers off the assessment's snapshot; answers
	// are sorted via the materialized set only for stable CLI output.
	// Explain reads the same snapshot the answers come from — a plan is
	// costed against one snapshot's statistics, so rendering it off any
	// other version would show a plan the query never executes.
	snap := a.Snapshot()
	for _, nq := range queries {
		if *explain {
			text, err := snap.Explain(nq.Query, true, nil)
			if err != nil {
				return fmt.Errorf("query %s: %w", nq.Name, err)
			}
			if v, ok := snap.Version(); ok {
				fmt.Fprintf(out, "-- plan at session version %d\n", v.Seq)
			}
			fmt.Fprintf(out, "%s -> %s", snap.RewriteClean(nq.Query), text)
			continue
		}
		as, err := collectAnswers(snap.CleanAnswers(nq.Query))
		if err != nil {
			return fmt.Errorf("query %s: %w", nq.Name, err)
		}
		fmt.Fprintf(out, "%s -> clean answers (%d):\n%s", snap.RewriteClean(nq.Query), as.Len(), as)
	}
	return nil
}

// collectAnswers drains a streamed answer sequence into a set.
func collectAnswers(seq func(func(mdqa.Answer, error) bool)) (*mdqa.AnswerSet, error) {
	var streamErr error
	as := mdqa.NewAnswerSet()
	seq(func(ans mdqa.Answer, err error) bool {
		if err != nil {
			streamErr = err
			return false
		}
		as.Add(ans)
		return true
	})
	if streamErr != nil {
		return nil, streamErr
	}
	return as, nil
}
