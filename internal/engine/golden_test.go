package engine

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// The golden-output test pins every seeded estimator output bitwise
// against values recorded from an earlier build: Value, Samples,
// Converged, the run's accounting (draws, chunks, per-worker split)
// and the convergence curve. The other determinism tests compare two
// runs of the same build, so they cannot see a refactor that moves a
// substream, a chunk boundary or a checkpoint; this one can. Floats
// are rendered with %v (the shortest decimal that round-trips, so
// equal strings mean equal bits).

const goldenFile = "testdata/golden_outputs.txt"

// goldenSeeds are the two user seeds every estimator case runs with.
var goldenSeeds = []int64{7, 1234567}

// goldenMulti is a shared-stream sampler over len(ps) targets: one
// uniform per draw, thresholded per target, evaluating only the
// active targets (nil: all).
func goldenMulti(ps []float64) func() MultiSampler {
	return func() MultiSampler {
		return func(rng *rand.Rand, out []bool, active []int) {
			u := rng.Float64()
			if active == nil {
				for t, p := range ps {
					out[t] = u < p
				}
				return
			}
			for _, t := range active {
				out[t] = u < ps[t]
			}
		}
	}
}

func renderEstimate(e Estimate) string {
	return fmt.Sprintf("v=%v n=%d conv=%t", e.Value, e.Samples, e.Converged)
}

func renderAcct(a Accounting) string {
	per := "nil"
	if a.PerWorker != nil {
		per = fmt.Sprint(a.PerWorker)
	}
	return fmt.Sprintf("draws=%d chunks=%d workers=%d per=%s cancelled=%t",
		a.Draws, a.Chunks, a.Workers, per, a.Cancelled)
}

func renderMulti(ests []Estimate) string {
	parts := make([]string, len(ests))
	for t, e := range ests {
		parts[t] = renderEstimate(e)
	}
	return "[" + strings.Join(parts, "; ") + "] " + renderAcct(ests[0].Acct)
}

// renderTrace digests the curve (every checkpoint, bitwise) and lists
// the span names in completion order.
func renderTrace(tr *Trace) string {
	curve := tr.Curve()
	h := fnv.New64a()
	for _, cp := range curve {
		fmt.Fprintf(h, "%d %v %v %d\n", cp.Draws, cp.Value, cp.HalfWidth, cp.Open)
	}
	var names []string
	for _, sp := range tr.Spans() {
		names = append(names, sp.Name)
	}
	last := "-"
	if len(curve) > 0 {
		cp := curve[len(curve)-1]
		last = fmt.Sprintf("%d/%v/%d", cp.Draws, cp.Value, cp.Open)
	}
	return fmt.Sprintf("curve=%d:%016x last=%s spans=%s", len(curve), h.Sum64(), last, strings.Join(names, ","))
}

func renderErr(err error) string {
	if err == nil {
		return "err=nil"
	}
	return "err=" + err.Error()
}

type goldenCase struct {
	name      string
	cancelled bool
	run       func(ctx context.Context) string
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	add := func(name string, cancelled bool, run func(ctx context.Context) string) {
		cases = append(cases, goldenCase{name, cancelled, run})
	}
	fixed := func(workers int, seed int64) func(ctx context.Context) string {
		return func(ctx context.Context) string {
			e, err := EstimateFixed(ctx, factory(0.3), 10_001, seed, workers)
			return renderEstimate(e) + " " + renderAcct(e.Acct) + " " + renderErr(err)
		}
	}
	rule := func(p float64, workers int, seed int64, maxSamples int) func(ctx context.Context) string {
		return func(ctx context.Context) string {
			e, err := EstimateStoppingRule(ctx, factory(p), 0.1, 0.05, seed, workers, maxSamples)
			return renderEstimate(e) + " " + renderAcct(e.Acct) + " " + renderErr(err)
		}
	}
	fixedMulti := func(workers int, seed int64) func(ctx context.Context) string {
		return func(ctx context.Context) string {
			ests, err := EstimateFixedMulti(ctx, goldenMulti([]float64{0.5, 0.3, 0.1}), 3, 10_001, seed, workers)
			return renderMulti(ests) + " " + renderErr(err)
		}
	}
	ruleMulti := func(ps []float64, workers int, seed int64, maxSamples int) func(ctx context.Context) string {
		return func(ctx context.Context) string {
			ests, err := EstimateStoppingRuleMulti(ctx, goldenMulti(ps), len(ps), 0.1, 0.05, seed, workers, maxSamples)
			return renderMulti(ests) + " " + renderErr(err)
		}
	}
	marginals := func(workers int, seed int64) func(ctx context.Context) string {
		return func(ctx context.Context) string {
			p := make([]float64, 20)
			for i := range p {
				p[i] = float64(i) / 19
			}
			counts, acct, err := Marginals(ctx, biasedCounter(p), len(p), 5_001, seed, workers)
			h := fnv.New64a()
			fmt.Fprint(h, counts)
			return fmt.Sprintf("counts=%016x %s %s", h.Sum64(), renderAcct(acct), renderErr(err))
		}
	}
	aa := func(maxSamples int, seed int64) func(ctx context.Context) string {
		return func(ctx context.Context) string {
			e, err := EstimateAA(ctx, bernoulli(0.3), 0.1, 0.05, seed, maxSamples)
			return renderEstimate(e) + " " + renderAcct(e.Acct) + " " + renderErr(err)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		for _, seed := range goldenSeeds {
			tag := fmt.Sprintf("w%d/s%d", workers, seed)
			add("fixed/"+tag, false, fixed(workers, seed))
			add("rule/"+tag, false, rule(0.3, workers, seed, 0))
			add("fixed-multi/"+tag, false, fixedMulti(workers, seed))
			add("rule-multi/"+tag, false, ruleMulti([]float64{0.5, 0.3, 0.1}, workers, seed, 0))
			add("marginals/"+tag, false, marginals(workers, seed))
		}
	}
	for _, workers := range []int{1, 4} {
		tag := fmt.Sprintf("w%d", workers)
		add("rule-zero-capped/"+tag, false, rule(0, workers, 7, 1000))
		add("rule-multi-zero-capped/"+tag, false, ruleMulti([]float64{0.5, 0}, workers, 7, 1000))
		add("fixed-cancelled/"+tag, true, fixed(workers, 7))
		add("rule-cancelled/"+tag, true, rule(0.3, workers, 7, 0))
		add("fixed-multi-cancelled/"+tag, true, fixedMulti(workers, 7))
		add("rule-multi-cancelled/"+tag, true, ruleMulti([]float64{0.5, 0.3, 0.1}, workers, 7, 0))
		add("marginals-cancelled/"+tag, true, marginals(workers, 7))
		// Long enough to decimate the convergence curve.
		add("rule-rare/"+tag, false, rule(0.004, workers, 7, 0))
	}
	for _, seed := range goldenSeeds {
		tag := fmt.Sprintf("s%d", seed)
		add("aa/"+tag, false, aa(0, seed))
		add("aa-capped-phase1/"+tag, false, aa(300, seed))
	}
	add("aa-cancelled", true, aa(0, 7))
	return cases
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
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

func TestGoldenOutputs(t *testing.T) {
	want := readGolden(t)
	cases := goldenCases()
	if len(want) != len(cases) {
		t.Errorf("%s holds %d cases, the test runs %d", goldenFile, len(want), len(cases))
	}
	for _, c := range cases {
		tr := NewTrace()
		ctx := ContextWithTrace(context.Background(), tr)
		if c.cancelled {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			cancel()
		}
		got := c.run(ctx) + " " + renderTrace(tr)
		if got != want[c.name] {
			t.Errorf("%s\n got: %s\nwant: %s\n(golden line: %s\t%s)", c.name, got, want[c.name], c.name, got)
		}
	}
}
