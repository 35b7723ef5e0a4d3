package ocqa_test

// The facade golden-output test pins every seeded output of the
// approximate entry points bitwise against values recorded from an
// earlier build: Value, Samples and Converged of each estimate, the
// run's Accounting (draws, reused draws, workers, per-worker split,
// cancelled flag; chunks only on the whole-instance routes) and the
// QueryPlan where the plan describes the run. The engine's own golden
// test pins the draw loops; this one pins what the facade does around
// them: option defaults, the approximability check, the choice between
// the block product form and the whole-instance estimators, and the
// summing of per-target and per-stratum accounting. Wall time is never
// pinned. Floats are rendered with %v, so equal strings mean equal
// bits.

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	ocqa "repro"
)

const facadeGoldenFile = "testdata/facade_golden.txt"

// goldenModes are the six operational modes.
var goldenModes = []ocqa.Mode{
	{Gen: ocqa.UniformRepairs},
	{Gen: ocqa.UniformRepairs, Singleton: true},
	{Gen: ocqa.UniformSequences},
	{Gen: ocqa.UniformSequences, Singleton: true},
	{Gen: ocqa.UniformOperations},
	{Gen: ocqa.UniformOperations, Singleton: true},
}

// goldenEstimators names the three estimator choices of ApproxOptions.
var goldenEstimators = []string{"default", "aa", "chernoff"}

func goldenOpts(estimator string, workers, maxSamples int) ocqa.ApproxOptions {
	return ocqa.ApproxOptions{
		Epsilon:     0.2,
		Delta:       0.1,
		Seed:        7,
		Workers:     workers,
		MaxSamples:  maxSamples,
		UseAA:       estimator == "aa",
		UseChernoff: estimator == "chernoff",
	}
}

// productForm reports whether the options route a primary-key query
// under the witness cap through the block product form, whose chunk
// count is not pinned.
func productForm(mode ocqa.Mode, opts ocqa.ApproxOptions) bool {
	return mode.Gen == ocqa.UniformRepairs && !opts.UseAA && !opts.UseChernoff
}

func renderFacadeAcct(a ocqa.Accounting, chunks bool) string {
	per := "nil"
	if a.PerWorker != nil {
		per = fmt.Sprint(a.PerWorker)
	}
	s := fmt.Sprintf("draws=%d reused=%d workers=%d per=%s cancelled=%t",
		a.Draws, a.ReusedDraws, a.Workers, per, a.Cancelled)
	if chunks {
		s += fmt.Sprintf(" chunks=%d", a.Chunks)
	}
	return s
}

func renderFacadeEst(e ocqa.Estimate) string {
	return fmt.Sprintf("v=%v n=%d conv=%t", e.Value, e.Samples, e.Converged)
}

func renderFacadeErr(err error) string {
	if err == nil {
		return "err=nil"
	}
	return "err=" + err.Error()
}

func renderFacadePlan(pl ocqa.QueryPlan, err error) string {
	if err != nil {
		return "plan:" + renderFacadeErr(err)
	}
	return fmt.Sprintf("plan:%+v", pl)
}

// The three entry points, rendered. chunks selects whether the run's
// chunk count is pinned.

func goldenApprox(ctx context.Context, p *ocqa.Prepared, mode ocqa.Mode, q *ocqa.Query, c ocqa.Tuple, opts ocqa.ApproxOptions, chunks bool) string {
	e, err := p.Approximate(ctx, mode, q, c, opts)
	return renderFacadeEst(e) + " " + renderFacadeAcct(e.Acct, chunks) + " " + renderFacadeErr(err)
}

func goldenAnswers(ctx context.Context, p *ocqa.Prepared, mode ocqa.Mode, q *ocqa.Query, opts ocqa.ApproxOptions, chunks bool) string {
	out, acct, err := p.ApproximateAnswers(ctx, mode, q, opts)
	parts := make([]string, len(out))
	for i, a := range out {
		parts[i] = fmt.Sprintf("%v:%s %s", a.Tuple, renderFacadeEst(a.Estimate), renderFacadeAcct(a.Estimate.Acct, chunks))
	}
	return "[" + strings.Join(parts, "; ") + "] " + renderFacadeAcct(acct, chunks) + " " + renderFacadeErr(err)
}

func goldenMarginals(ctx context.Context, p *ocqa.Prepared, mode ocqa.Mode, opts ocqa.ApproxOptions) string {
	vals, acct, err := p.ApproximateFactMarginals(ctx, mode, opts)
	h := fnv.New64a()
	for _, v := range vals {
		fmt.Fprintf(h, "%v\n", v)
	}
	return fmt.Sprintf("n=%d vals=%016x %s %s", len(vals), h.Sum64(), renderFacadeAcct(acct, true), renderFacadeErr(err))
}

func goldenQuery(s string) *ocqa.Query {
	q, err := ocqa.ParseQuery(s)
	if err != nil {
		panic(err)
	}
	return q
}

type facadeCase struct {
	name string
	run  func(t *testing.T) string
}

func facadeGoldenCases() []facadeCase {
	var cases []facadeCase
	add := func(name string, run func(t *testing.T) string) {
		cases = append(cases, facadeCase{name, run})
	}
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()

	// Small primary-key fixture: candidates a, b, c, d with distinct
	// probabilities; every product-form cluster enumerates.
	small := func(t *testing.T) *ocqa.Prepared {
		inst, _ := answersFixture(t)
		return inst.Prepare()
	}
	qAns := goldenQuery("Ans(x) :- R(k, x)")
	qBool := goldenQuery("Ans() :- R(k, 'b')")
	qZero := goldenQuery("Ans() :- R('1', 'a'), R('1', 'b')")
	tupleB := ocqa.Tuple{"b"}

	for _, mode := range goldenModes {
		for _, est := range goldenEstimators {
			for _, workers := range []int{1, 2} {
				opts := goldenOpts(est, workers, 20_000)
				chunks := !productForm(mode, opts)
				tag := fmt.Sprintf("%s/%s/w%d", mode.Symbol(), est, workers)
				add("tuple/"+tag, func(t *testing.T) string {
					p := small(t)
					plan, perr := p.PlanApproximate(mode, qAns, tupleB, true, opts)
					return goldenApprox(bg, p, mode, qAns, tupleB, opts, chunks) + " " + renderFacadePlan(plan, perr)
				})
				add("bool/"+tag, func(t *testing.T) string {
					p := small(t)
					plan, perr := p.PlanApproximate(mode, qBool, ocqa.Tuple{}, true, opts)
					return goldenApprox(bg, p, mode, qBool, ocqa.Tuple{}, opts, chunks) + " " + renderFacadePlan(plan, perr)
				})
				add("answers/"+tag, func(t *testing.T) string {
					p := small(t)
					plan, perr := p.PlanApproximate(mode, qAns, nil, false, opts)
					return goldenAnswers(bg, p, mode, qAns, opts, chunks) + " " + renderFacadePlan(plan, perr)
				})
				add("cancelled-tuple/"+tag, func(t *testing.T) string {
					return goldenApprox(cancelled, small(t), mode, qAns, tupleB, opts, chunks)
				})
				add("cancelled-answers/"+tag, func(t *testing.T) string {
					return goldenAnswers(cancelled, small(t), mode, qAns, opts, chunks)
				})
			}
		}
		for _, workers := range []int{1, 2} {
			tag := fmt.Sprintf("%s/w%d", mode.Symbol(), workers)
			// A zero-probability target: the whole-instance estimators
			// burn their cap, the product form answers 0 at once.
			zeroOpts := goldenOpts("default", workers, 3_000)
			add("zero-capped/"+tag, func(t *testing.T) string {
				p := small(t)
				plan, perr := p.PlanApproximate(mode, qZero, ocqa.Tuple{}, true, zeroOpts)
				return goldenApprox(bg, p, mode, qZero, ocqa.Tuple{}, zeroOpts, !productForm(mode, zeroOpts)) + " " + renderFacadePlan(plan, perr)
			})
			mopts := ocqa.ApproxOptions{Seed: 7, Workers: workers, MaxSamples: 5_000}
			add("marginals/"+tag, func(t *testing.T) string {
				return goldenMarginals(bg, small(t), mode, mopts)
			})
			add("cancelled-marginals/"+tag, func(t *testing.T) string {
				return goldenMarginals(cancelled, small(t), mode, mopts)
			})
		}
	}
	add("zero-capped/ur/aa", func(t *testing.T) string {
		opts := goldenOpts("aa", 1, 3_000)
		p := small(t)
		plan, perr := p.PlanApproximate(ocqa.Mode{Gen: ocqa.UniformRepairs}, qZero, ocqa.Tuple{}, true, opts)
		return goldenApprox(bg, p, ocqa.Mode{Gen: ocqa.UniformRepairs}, qZero, ocqa.Tuple{}, opts, true) + " " + renderFacadePlan(plan, perr)
	})

	// Two 64-fact blocks coupled into one cluster of 65² outcomes: the
	// product form draws it as a stratum, cold and after mutations.
	// T(y) keeps the images of qStratT well under the witness cap; the
	// answers query has two candidates sharing that cluster. qStrat's
	// 64² images sit exactly at the cap, so one more image overflows it.
	strat := func(t *testing.T) *ocqa.Prepared {
		var b strings.Builder
		for blk := 0; blk < 2; blk++ {
			for i := 0; i < 64; i++ {
				fmt.Fprintf(&b, "R(b%d,v%d)\n", blk, i)
			}
		}
		for i := 0; i < 16; i++ {
			fmt.Fprintf(&b, "T(v%d)\n", i)
		}
		b.WriteString("S(t1)\nS(t2)\n")
		inst, err := ocqa.NewInstanceFromText(b.String(), "R: A1 -> A2")
		if err != nil {
			t.Fatal(err)
		}
		return inst.Prepare()
	}
	qStrat := goldenQuery("Ans() :- R('b0', x), R('b1', y)")
	qStratT := goldenQuery("Ans() :- R('b0', x), R('b1', y), T(y)")
	qStratAns := goldenQuery("Ans(t) :- S(t), R('b0', x), R('b1', y), T(y)")
	// 64·64·128 images: past the witness cap, so the whole instance is
	// sampled even under the default estimator.
	qOver := goldenQuery("Ans() :- R('b0', x), R('b1', y), R(k, z)")
	for _, mode := range goldenModes[:2] {
		opts := goldenOpts("default", 1, 0)
		tag := mode.Symbol()
		for _, qc := range []struct {
			name string
			q    *ocqa.Query
		}{{"strat-bool", qStrat}, {"strat-bool-t", qStratT}} {
			q := qc.q
			add(qc.name+"/"+tag, func(t *testing.T) string {
				p := strat(t)
				plan, perr := p.PlanApproximate(mode, q, ocqa.Tuple{}, true, opts)
				out := "cold: " + goldenApprox(bg, p, mode, q, ocqa.Tuple{}, opts, false) + " " + renderFacadePlan(plan, perr)
				out += " | again: " + goldenApprox(bg, p, mode, q, ocqa.Tuple{}, opts, false)
				p, _, err := p.ApplyInsert(mustFact(t, "R(zz,w)"))
				if err != nil {
					t.Fatal(err)
				}
				out += " | unrelated: " + goldenApprox(bg, p, mode, q, ocqa.Tuple{}, opts, false)
				p, _, err = p.ApplyInsert(mustFact(t, "R(b0,v64)"))
				if err != nil {
					t.Fatal(err)
				}
				plan, perr = p.PlanApproximate(mode, q, ocqa.Tuple{}, true, opts)
				return out + " | touched: " + goldenApprox(bg, p, mode, q, ocqa.Tuple{}, opts, false) + " " + renderFacadePlan(plan, perr)
			})
		}
		add("strat-answers/"+tag, func(t *testing.T) string {
			p := strat(t)
			plan, perr := p.PlanApproximate(mode, qStratAns, nil, false, opts)
			out := "cold: " + goldenAnswers(bg, p, mode, qStratAns, opts, false) + " " + renderFacadePlan(plan, perr)
			p, _, err := p.ApplyInsert(mustFact(t, "R(b1,v64)"))
			if err != nil {
				t.Fatal(err)
			}
			plan, perr = p.PlanApproximate(mode, qStratAns, nil, false, opts)
			return out + " | touched: " + goldenAnswers(bg, p, mode, qStratAns, opts, false) + " " + renderFacadePlan(plan, perr)
		})
		add("strat-cancelled/"+tag, func(t *testing.T) string {
			return goldenApprox(cancelled, strat(t), mode, qStratT, ocqa.Tuple{}, opts, false) +
				" | " + goldenAnswers(cancelled, strat(t), mode, qStratAns, opts, false)
		})
		for _, workers := range []int{1, 2} {
			oopts := goldenOpts("default", workers, 20_000)
			add(fmt.Sprintf("over-cap/%s/w%d", tag, workers), func(t *testing.T) string {
				p := strat(t)
				plan, perr := p.PlanApproximate(mode, qOver, ocqa.Tuple{}, true, oopts)
				return goldenApprox(bg, p, mode, qOver, ocqa.Tuple{}, oopts, true) + " " + renderFacadePlan(plan, perr)
			})
		}
	}
	return cases
}

func readFacadeGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(facadeGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, line, ok := strings.Cut(sc.Text(), "\t")
		if ok {
			want[name] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestFacadeGolden(t *testing.T) {
	want := readFacadeGolden(t)
	cases := facadeGoldenCases()
	if len(want) != len(cases) {
		t.Errorf("%s holds %d cases, the test runs %d", facadeGoldenFile, len(want), len(cases))
	}
	for _, c := range cases {
		if got := c.run(t); got != want[c.name] {
			t.Errorf("%s\n got: %s\nwant: %s\n(golden line: %s\t%s)", c.name, got, want[c.name], c.name, got)
		}
	}
}
