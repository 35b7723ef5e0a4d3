package ocqa_test

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"
	"testing"

	ocqa "repro"
	"repro/internal/engine"
)

// deltaModes are the generator modes the delta engine serves.
var deltaModes = []ocqa.Mode{
	{Gen: ocqa.UniformRepairs},
	{Gen: ocqa.UniformRepairs, Singleton: true},
}

func mustQuery(t *testing.T, s string) *ocqa.Query {
	t.Helper()
	q, err := ocqa.ParseQuery(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestDeltaExactMatchesCore checks that the delta engine's factorized
// exact probabilities are big.Rat-identical to the core enumeration
// engines across witness shapes: certain (all-fixed witness),
// impossible (two facts of one block), single-block, and multi-block
// coupled clusters.
func TestDeltaExactMatchesCore(t *testing.T) {
	inst := mustInstance(t,
		"Emp(1,Alice)\nEmp(1,Tom)\nEmp(1,Bob)\nEmp(2,Bob)\nEmp(3,Carol)\nEmp(3,Dan)",
		"Emp: A1 -> A2")
	p := inst.Prepare()
	queries := []struct {
		q     string
		tuple ocqa.Tuple
	}{
		{"Ans() :- Emp(x, 'Bob')", ocqa.Tuple{}},                      // certain: Emp(2,Bob) is fixed
		{"Ans() :- Emp('1', x), Emp('3', y)", ocqa.Tuple{}},           // coupled blocks 1 and 3
		{"Ans() :- Emp('1', 'Alice'), Emp('1', 'Tom')", ocqa.Tuple{}}, // impossible
		{"Ans(n) :- Emp(i, n)", ocqa.Tuple{"Tom"}},
		{"Ans(n) :- Emp(i, n)", ocqa.Tuple{"Bob"}},
		{"Ans(n) :- Emp(i, n)", ocqa.Tuple{"Nobody"}}, // absent tuple
	}
	for _, mode := range deltaModes {
		for _, tc := range queries {
			q := mustQuery(t, tc.q)
			got, err := p.ExactProbability(mode, q, tc.tuple, 0)
			if err != nil {
				t.Fatalf("%s %s delta: %v", mode.Symbol(), tc.q, err)
			}
			want, err := inst.ExactProbability(mode, q, tc.tuple, 0)
			if err != nil {
				t.Fatalf("%s %s core: %v", mode.Symbol(), tc.q, err)
			}
			if got.Cmp(want) != 0 {
				t.Errorf("%s %s @%v: delta %v, core %v", mode.Symbol(), tc.q, tc.tuple, got, want)
			}
		}
	}
}

// TestDeltaConsistentAnswersMatchesCore checks the delta exact answers
// pass against the core shared pass — including zero-probability
// candidates, which must be listed with probability 0, in the same
// sorted order.
func TestDeltaConsistentAnswersMatchesCore(t *testing.T) {
	inst := mustInstance(t,
		"R(a,x)\nR(a,y)\nR(b,x)\nR(b,z)\nR(c,w)",
		"R: A1 -> A2")
	p := inst.Prepare()
	q := mustQuery(t, "Ans(v) :- R(k, v)")
	for _, mode := range deltaModes {
		got, err := p.ConsistentAnswers(mode, q, 0)
		if err != nil {
			t.Fatalf("%s delta: %v", mode.Symbol(), err)
		}
		want, err := inst.ConsistentAnswers(mode, q, 0)
		if err != nil {
			t.Fatalf("%s core: %v", mode.Symbol(), err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: delta %d answers, core %d", mode.Symbol(), len(got), len(want))
		}
		for i := range got {
			if got[i].Tuple.Key() != want[i].Tuple.Key() || got[i].Prob.Cmp(want[i].Prob) != 0 {
				t.Errorf("%s answer %d: delta (%v, %v), core (%v, %v)",
					mode.Symbol(), i, got[i].Tuple, got[i].Prob, want[i].Tuple, want[i].Prob)
			}
		}
	}
}

// TestDeltaExactAcrossMutations drives a Prepared lineage through a
// scripted mix of ApplyInsert/ApplyDelete — growing blocks, shrinking
// blocks, making facts fixed and unfixed — and checks after every step
// that the delta-refreshed exact results equal a from-scratch core
// recomputation, big.Rat for big.Rat.
func TestDeltaExactAcrossMutations(t *testing.T) {
	inst := mustInstance(t,
		"R(a,x)\nR(a,y)\nR(b,x)\nR(c,u)",
		"R: A1 -> A2")
	p := inst.Prepare()
	queries := []*ocqa.Query{
		mustQuery(t, "Ans() :- R(k, 'x')"),
		mustQuery(t, "Ans(v) :- R(k, v)"),
		mustQuery(t, "Ans() :- R('a', v), R('b', w)"),
		// A self-join whose tuples (x, y) and (y, x) share one image.
		mustQuery(t, "Ans(x, y) :- R(x, z), R(y, z)"),
	}
	// Warm the delta state for every fingerprint before mutating.
	for _, q := range queries {
		for _, mode := range deltaModes {
			if _, err := p.ExactProbability(mode, q, make(ocqa.Tuple, len(q.AnswerVars)), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	type step struct {
		insert string // fact text, or ""
		delete int    // index, when insert == ""
	}
	steps := []step{
		{insert: "R(b,v)"}, // grow block b to 2
		{insert: "R(c,t)"}, // unfix c: block c becomes size 2
		{delete: 0},        // shrink block a: R(a,x) gone
		{insert: "R(a,z)"}, // regrow block a
		{insert: "R(d,q)"}, // fresh singleton block
		{delete: 2},        // indices shifted; exercise remap
		{insert: "R(d,x)"}, // joins R(a,x) and R(b,x) both ways
	}
	for si, st := range steps {
		var err error
		if st.insert != "" {
			f, ferr := ocqa.ParseFact(st.insert)
			if ferr != nil {
				t.Fatal(ferr)
			}
			p, _, err = p.ApplyInsert(f)
		} else {
			p, err = p.ApplyDelete(st.delete)
		}
		if err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		fresh := ocqa.NewInstance(p.DB(), p.Sigma())
		for _, q := range queries {
			for _, mode := range deltaModes {
				got, err := p.ConsistentAnswers(mode, q, 0)
				if err != nil {
					t.Fatalf("step %d %s %v delta: %v", si, mode.Symbol(), q, err)
				}
				want, err := fresh.ConsistentAnswers(mode, q, 0)
				if err != nil {
					t.Fatalf("step %d %s %v core: %v", si, mode.Symbol(), q, err)
				}
				if len(got) != len(want) {
					t.Fatalf("step %d %s %v: delta %d answers, core %d",
						si, mode.Symbol(), q, len(got), len(want))
				}
				for i := range got {
					if got[i].Tuple.Key() != want[i].Tuple.Key() || got[i].Prob.Cmp(want[i].Prob) != 0 {
						t.Errorf("step %d %s %v answer %d: delta (%v, %v), core (%v, %v)",
							si, mode.Symbol(), q, i, got[i].Tuple, got[i].Prob, want[i].Tuple, want[i].Prob)
					}
				}
			}
		}
	}
}

// stratifiedFixture builds an instance with two 64-fact blocks and a
// query coupling them into one cluster whose outcome product (65²)
// exceeds the exact enumeration cap — the minimal sampled-stratum
// workload.
func stratifiedFixture(t *testing.T) (*ocqa.Prepared, *ocqa.Query) {
	t.Helper()
	facts := ""
	for b := 0; b < 2; b++ {
		for i := 0; i < 64; i++ {
			facts += fmt.Sprintf("R(b%d,v%d)\n", b, i)
		}
	}
	inst := mustInstance(t, facts, "R: A1 -> A2")
	return inst.Prepare(), mustQuery(t, "Ans() :- R('b0', x), R('b1', y)")
}

// TestDeltaStratifiedReuse checks the stratified path end to end: a
// warm generation draws its stratum fresh, a repeat query reuses the
// carried statistics (zero fresh draws, identical value), an unrelated
// mutation keeps reusing them, and a mutation into a coupled block
// invalidates the stratum's signature and forces a redraw. Estimates
// must stay inside the (ε, δ) envelope of the known exact probability
// throughout.
func TestDeltaStratifiedReuse(t *testing.T) {
	p, q := stratifiedFixture(t)
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	opts := ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 7}
	ctx := context.Background()

	// Warm the lineage with an unrelated insert.
	f, _ := ocqa.ParseFact("R(zz,w)")
	p, _, err := p.ApplyInsert(f)
	if err != nil {
		t.Fatal(err)
	}
	est1, err := p.Approximate(ctx, mode, q, ocqa.Tuple{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est1.Acct.Draws == 0 || est1.Acct.ReusedDraws != 0 {
		t.Fatalf("first warm call: draws=%d reused=%d, want fresh draws only",
			est1.Acct.Draws, est1.Acct.ReusedDraws)
	}
	pExact := (64.0 / 65.0) * (64.0 / 65.0)
	if math.Abs(est1.Value-pExact) > opts.Epsilon*pExact {
		t.Fatalf("estimate %v outside ε-envelope of %v", est1.Value, pExact)
	}

	// Repeat on the same generation: the stratum is reused verbatim.
	est2, err := p.Approximate(ctx, mode, q, ocqa.Tuple{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est2.Acct.Draws != 0 || est2.Acct.ReusedDraws != est1.Acct.Draws {
		t.Fatalf("repeat call: draws=%d reused=%d, want 0 fresh and %d reused",
			est2.Acct.Draws, est2.Acct.ReusedDraws, est1.Acct.Draws)
	}
	if est2.Value != est1.Value {
		t.Fatalf("repeat call changed value: %v -> %v", est1.Value, est2.Value)
	}

	// An unrelated mutation leaves the stratum signature untouched.
	f2, _ := ocqa.ParseFact("R(yy,w)")
	p, _, err = p.ApplyInsert(f2)
	if err != nil {
		t.Fatal(err)
	}
	est3, err := p.Approximate(ctx, mode, q, ocqa.Tuple{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est3.Acct.Draws != 0 || est3.Acct.ReusedDraws == 0 {
		t.Fatalf("post-unrelated-mutation: draws=%d reused=%d, want pure reuse",
			est3.Acct.Draws, est3.Acct.ReusedDraws)
	}

	// Mutating a coupled block changes the signature: redraw.
	f3, _ := ocqa.ParseFact("R(b0,v64)")
	p, _, err = p.ApplyInsert(f3)
	if err != nil {
		t.Fatal(err)
	}
	est4, err := p.Approximate(ctx, mode, q, ocqa.Tuple{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est4.Acct.Draws == 0 {
		t.Fatalf("post-touch mutation: no fresh draws, stale stratum served")
	}
	pExact = (65.0 / 66.0) * (64.0 / 65.0)
	if math.Abs(est4.Value-pExact) > opts.Epsilon*pExact {
		t.Fatalf("post-touch estimate %v outside ε-envelope of %v", est4.Value, pExact)
	}
}

// TestDeltaStratifiedDeterminism replays an identical mutation history
// with the same seed and expects bit-identical estimates.
func TestDeltaStratifiedDeterminism(t *testing.T) {
	run := func() float64 {
		p, q := stratifiedFixture(t)
		f, _ := ocqa.ParseFact("R(zz,w)")
		p, _, err := p.ApplyInsert(f)
		if err != nil {
			t.Fatal(err)
		}
		est, err := p.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformRepairs}, q,
			ocqa.Tuple{}, ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return est.Value
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same history, same seed, different estimates: %v vs %v", a, b)
	}
}

// TestDeltaColdApproximateUnchanged pins the cold-path contract: on a
// first-generation Prepared (no mutation history) the answer is
// identical to a lazy prepare's, and no draws are reported as reused.
func TestDeltaColdApproximateUnchanged(t *testing.T) {
	inst := mustInstance(t,
		"R(a,x)\nR(a,y)\nR(b,x)\nR(b,z)",
		"R: A1 -> A2")
	q := mustQuery(t, "Ans() :- R(k, 'x')")
	opts := ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 5}
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	want, err := inst.PrepareLazy().Approximate(context.Background(), mode, q, ocqa.Tuple{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inst.Prepare().Approximate(context.Background(), mode, q, ocqa.Tuple{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value || got.Samples != want.Samples {
		t.Fatalf("cold Prepared diverged from Instance: (%v, %d) vs (%v, %d)",
			got.Value, got.Samples, want.Value, want.Samples)
	}
	if got.Acct.ReusedDraws != 0 {
		t.Fatalf("cold path reported reused draws: %d", got.Acct.ReusedDraws)
	}
}

// TestDeltaPlanRoutes checks the planner's routing: delta-exact for
// fully enumerable decompositions, delta-stratified when a cluster
// must be sampled — on cold and warm generations alike, since the
// route never depends on mutation history.
func TestDeltaPlanRoutes(t *testing.T) {
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	opts := ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 1}

	// Cold + sampled cluster: delta-stratified.
	pCold, qBig := stratifiedFixture(t)
	plan, err := pCold.PlanApproximate(mode, qBig, ocqa.Tuple{}, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Route != ocqa.RouteDeltaStratified {
		t.Fatalf("cold sampled route = %q, want %q", plan.Route, ocqa.RouteDeltaStratified)
	}

	// Past the witness cap (64·64·128 images), or with another
	// estimator, the whole-instance routes stay.
	qOver := mustQuery(t, "Ans() :- R('b0', x), R('b1', y), R(k, z)")
	for _, tc := range []struct {
		q    *ocqa.Query
		opts ocqa.ApproxOptions
		want string
	}{
		{qOver, opts, ocqa.RouteDKLR},
		{qBig, ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, UseAA: true}, ocqa.RouteAA},
		{qBig, ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, UseChernoff: true}, ocqa.RouteChernoff},
	} {
		plan, err := pCold.PlanApproximate(mode, tc.q, ocqa.Tuple{}, true, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Route != tc.want {
			t.Fatalf("%v %+v: route %q, want %q", tc.q, tc.opts, plan.Route, tc.want)
		}
	}

	// Warm + sampled cluster: delta-stratified.
	f, _ := ocqa.ParseFact("R(zz,w)")
	pWarm, _, err := pCold.ApplyInsert(f)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = pWarm.PlanApproximate(mode, qBig, ocqa.Tuple{}, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Route != ocqa.RouteDeltaStratified {
		t.Fatalf("warm sampled route = %q, want %q", plan.Route, ocqa.RouteDeltaStratified)
	}

	// Small blocks: delta-exact, zero draws, cold and warm.
	instSmall := mustInstance(t, "R(a,x)\nR(a,y)\nR(b,x)", "R: A1 -> A2")
	pSmallCold := instSmall.Prepare()
	pSmall, _, err := pSmallCold.ApplyInsert(mustFact(t, "R(b,q)"))
	if err != nil {
		t.Fatal(err)
	}
	qSmall := mustQuery(t, "Ans() :- R(k, 'x')")
	for _, gen := range []struct {
		name string
		p    *ocqa.Prepared
	}{{"cold", pSmallCold}, {"warm", pSmall}} {
		plan, err = gen.p.PlanApproximate(mode, qSmall, ocqa.Tuple{}, true, opts)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Route != ocqa.RouteDeltaExact {
			t.Fatalf("%s enumerable route = %q, want %q", gen.name, plan.Route, ocqa.RouteDeltaExact)
		}
		if plan.PredictedDraws != 0 || plan.RequiredDraws != 0 {
			t.Fatalf("%s delta-exact plan predicts draws: required=%d predicted=%d",
				gen.name, plan.RequiredDraws, plan.PredictedDraws)
		}
	}
}

func mustFact(t *testing.T, s string) ocqa.Fact {
	t.Helper()
	f, err := ocqa.ParseFact(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDeltaExactAtScaleBeyondEnumeration pins the tentpole's exact
// payoff: an instance far past any enumeration budget still answers
// exact M^ur probabilities through the factorization, and the answer
// matches the closed form 1 − Π(1 − p_c).
func TestDeltaExactAtScaleBeyondEnumeration(t *testing.T) {
	facts := ""
	for b := 0; b < 2000; b++ {
		for i := 0; i < 4; i++ {
			facts += fmt.Sprintf("R(k%d,v%d)\n", b, i)
		}
	}
	inst := mustInstance(t, facts, "R: A1 -> A2")
	p := inst.Prepare()
	q := mustQuery(t, "Ans() :- R('k0', 'v0')")
	got, err := p.ExactProbability(ocqa.Mode{Gen: ocqa.UniformRepairs}, q, ocqa.Tuple{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := big.NewRat(1, 5); got.Cmp(want) != 0 {
		t.Fatalf("P = %v, want %v", got, want)
	}
	// The bare core engine refuses this size; the Prepared path is the
	// only exact route.
	if _, err := inst.ExactProbability(ocqa.Mode{Gen: ocqa.UniformRepairs}, q, ocqa.Tuple{}, 100000); err == nil {
		t.Fatal("core enumeration unexpectedly succeeded at 8000 facts")
	}
}

// TestDeltaColdExactZeroDraws pins the cold delta-exact contract: on a
// never-mutated instance, an M^ur or M^{ur,1} estimate whose clusters
// all enumerate equals the exact probability rounded to float64, with
// zero draws, through a lazy and an eager Prepared alike. The
// shapes cover several independent clusters, a coupled cluster, a
// certain answer, an impossible witness and an absent tuple.
func TestDeltaColdExactZeroDraws(t *testing.T) {
	inst := mustInstance(t,
		"R(a,x)\nR(a,y)\nR(b,x)\nR(b,z)\nR(c,x)\nR(c,w)\nR(c,u)\nR(d,q)",
		"R: A1 -> A2")
	cases := []struct {
		q     string
		tuple ocqa.Tuple
	}{
		{"Ans(v) :- R(k, v)", ocqa.Tuple{"x"}}, // three single-block clusters
		{"Ans(v) :- R(k, v)", ocqa.Tuple{"q"}}, // certain: R(d,q) is fixed
		{"Ans(v) :- R(k, v)", ocqa.Tuple{"nope"}},
		{"Ans() :- R('a', v), R('b', w)", ocqa.Tuple{}},     // coupled blocks a and b
		{"Ans() :- R('a', 'x'), R('a', 'y')", ocqa.Tuple{}}, // impossible
	}
	for _, mode := range deltaModes {
		for _, tc := range cases {
			q := mustQuery(t, tc.q)
			exact, err := inst.ExactProbability(mode, q, tc.tuple, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := exact.Float64()
			for _, a := range []*ocqa.Prepared{inst.PrepareLazy(), inst.Prepare()} {
				est, err := a.Approximate(context.Background(), mode, q, tc.tuple, ocqa.ApproxOptions{Seed: 3})
				if err != nil {
					t.Fatalf("%s %s @%v: %v", mode.Symbol(), tc.q, tc.tuple, err)
				}
				if est.Value != want || !est.Converged || est.Acct.Draws != 0 || est.Samples != 0 {
					t.Fatalf("%s %s @%v (%T): value %v converged %v draws %d samples %d, want %v (= %s) with 0 draws",
						mode.Symbol(), tc.q, tc.tuple, a, est.Value, est.Converged, est.Acct.Draws, est.Samples, want, exact.RatString())
				}
			}
		}
	}
}

// TestDeltaColdZeroProbability: a candidate whose only witness needs
// two facts of one block has probability 0. Under the default 5M draw
// cap the whole-instance stopping rule could never meet its threshold
// and would burn the cap; the product form answers 0 at once.
func TestDeltaColdZeroProbability(t *testing.T) {
	inst := mustInstance(t, "R(a,x)\nR(a,y)\nR(b,x)", "R: A1 -> A2")
	q := mustQuery(t, "Ans() :- R('a', 'x'), R('a', 'y')")
	for _, mode := range deltaModes {
		est, err := inst.Prepare().Approximate(context.Background(), mode, q, ocqa.Tuple{}, ocqa.ApproxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if est.Value != 0 || !est.Converged || est.Acct.Draws != 0 {
			t.Fatalf("%s: value %v converged %v draws %d, want 0, converged, 0 draws",
				mode.Symbol(), est.Value, est.Converged, est.Acct.Draws)
		}
	}
}

// TestDeltaColdStratified: on a never-mutated instance a cluster too
// large to enumerate is drawn as its own stratum — fresh draws only,
// within ε of the exact probability, and deterministic in the seed.
func TestDeltaColdStratified(t *testing.T) {
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	opts := ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 13}
	run := func() ocqa.Estimate {
		p, q := stratifiedFixture(t)
		est, err := p.Approximate(context.Background(), mode, q, ocqa.Tuple{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	est := run()
	if est.Acct.Draws == 0 || est.Acct.ReusedDraws != 0 || est.Samples != int(est.Acct.Draws) {
		t.Fatalf("cold stratified accounting: draws=%d reused=%d samples=%d, want fresh draws only",
			est.Acct.Draws, est.Acct.ReusedDraws, est.Samples)
	}
	pExact := (64.0 / 65.0) * (64.0 / 65.0)
	if math.Abs(est.Value-pExact) > opts.Epsilon*pExact {
		t.Fatalf("cold stratified estimate %v outside ε-envelope of %v", est.Value, pExact)
	}
	if again := run(); again.Value != est.Value || again.Samples != est.Samples {
		t.Fatalf("same seed, different cold estimates: (%v, %d) vs (%v, %d)",
			est.Value, est.Samples, again.Value, again.Samples)
	}
}

// clusterFixture builds a primary-key instance for the query
// Ans(x) :- T(x, k), R(k, v), S(k, v) under R: A1 -> A2 and
// S: A1 -> A2. Each tuple x gets clusters[x] clusters: a fact T(x, k_i)
// plus 64-fact R and S blocks on k_i, coupled into one cluster of 65²
// outcomes — too many to enumerate, so each is a sampled stratum.
// Tuple b has one witness T(b, m), R(m, u), S(m, u) of fixed facts and
// is certain. The lazy prepare skips the sequence-sampler tables M^ur
// never reads.
func clusterFixture(t *testing.T, clusters map[string]int) (*ocqa.Prepared, *ocqa.Query) {
	t.Helper()
	var b strings.Builder
	xs := make([]string, 0, len(clusters))
	for x := range clusters {
		xs = append(xs, x)
	}
	sort.Strings(xs)
	for _, x := range xs {
		for i := 0; i < clusters[x]; i++ {
			k := fmt.Sprintf("%s%d", x, i)
			fmt.Fprintf(&b, "T(%s,%s)\n", x, k)
			for j := 0; j < 64; j++ {
				fmt.Fprintf(&b, "R(%s,v%d)\nS(%s,v%d)\n", k, j, k, j)
			}
		}
	}
	b.WriteString("T(b,m)\nR(m,u)\nS(m,u)\n")
	inst := mustInstance(t, b.String(), "R: A1 -> A2\nS: A1 -> A2")
	return inst.PrepareLazy(), mustQuery(t, "Ans(x) :- T(x, k), R(k, v), S(k, v)")
}

// TestDeltaDeclinedAnswersPassDrawsNothing: an answers pass the product
// form must decline (tuple z has more sampled strata than the
// stratified estimator accepts) is declined before any stratum is
// drawn, so the draws the engine performs are exactly the draws the
// returned Accounting reports.
func TestDeltaDeclinedAnswersPassDrawsNothing(t *testing.T) {
	p, q := clusterFixture(t, map[string]int{"a": 2, "z": 17})
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	opts := ocqa.ApproxOptions{Epsilon: 0.3, Delta: 0.1, Seed: 3, Workers: 1}
	before := engine.SamplesDrawn()
	out, acct, err := p.ApproximateAnswers(context.Background(), mode, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	drawn := engine.SamplesDrawn() - before
	if len(out) != 3 {
		t.Fatalf("%d answers, want 3 (a, b, z)", len(out))
	}
	if acct.Draws != drawn {
		t.Fatalf("Accounting reports %d draws, the engine drew %d", acct.Draws, drawn)
	}
}

// TestDeltaStratifiedAccounting: a delta-stratified estimate that draws
// fresh samples reports the wall time and chunks of its stratum runs,
// and the Prepared's usage totals advance by that wall time.
func TestDeltaStratifiedAccounting(t *testing.T) {
	p, q := stratifiedFixture(t)
	before := p.Usage()
	est, err := p.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformRepairs}, q, ocqa.Tuple{},
		ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if est.Acct.Draws == 0 {
		t.Fatal("no fresh draws; the fixture must draw a stratum")
	}
	if est.Acct.WallNanos <= 0 || est.Acct.Chunks < 1 {
		t.Fatalf("draws=%d but wall=%dns chunks=%d, want both positive",
			est.Acct.Draws, est.Acct.WallNanos, est.Acct.Chunks)
	}
	if after := p.Usage(); after.WallNanos <= before.WallNanos {
		t.Fatalf("Usage().WallNanos %d -> %d, want it to advance", before.WallNanos, after.WallNanos)
	}
}
