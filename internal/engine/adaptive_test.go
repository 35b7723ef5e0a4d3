package engine

import (
	"math"
	"testing"
)

func TestEstimateAAAccuracy(t *testing.T) {
	for _, p := range []float64{0.5, 0.1, 0.02} {
		e, err := EstimateAA(bg, bernoulli(p), 0.1, 0.05, 23, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Converged {
			t.Fatalf("p=%v: did not converge", p)
		}
		if math.Abs(e.Value-p) > 0.15*p {
			t.Fatalf("p=%v: estimate %.5f outside tolerance", p, e.Value)
		}
	}
}

// TestEstimateAABeatsSRAForLargeMu: for μ ≫ ε the variance phase lets
// AA stop with far fewer samples than the plain stopping rule, which
// is the whole point of [8]'s optimality.
func TestEstimateAABeatsSRAForLargeMu(t *testing.T) {
	const p, eps, delta = 0.9, 0.05, 0.05
	aa, err := EstimateAA(bg, bernoulli(p), eps, delta, 29, 0)
	if err != nil {
		t.Fatal(err)
	}
	sra, err := EstimateStoppingRule(bg, factory(p), eps, delta, 29, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !aa.Converged || !sra.Converged {
		t.Fatal("estimators did not converge")
	}
	if math.Abs(aa.Value-p) > eps*p {
		t.Fatalf("AA estimate %.4f outside ε", aa.Value)
	}
	if aa.Samples >= sra.Samples {
		t.Fatalf("AA used %d samples, SRA %d: variance phase should win at μ=0.9",
			aa.Samples, sra.Samples)
	}
}

func TestEstimateAACapped(t *testing.T) {
	e, err := EstimateAA(bg, bernoulli(0), 0.1, 0.1, 31, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if e.Converged {
		t.Fatal("p=0 cannot converge")
	}
	if e.Samples > 3000 {
		t.Fatalf("budget exceeded: %d", e.Samples)
	}
}

// TestEstimateAAPhase3PartialMean: a run capped inside phase 3 reports
// the mean of the phase-3 draws it actually took. With an always-true
// sampler at ε=0.1, δ=0.05 phase 1 takes 156 draws and phase 2 takes
// 557 pairs, so phase 3 starts at draw 1270; every phase-3 draw is a
// success, so the partial mean must be 1 (μ̂ ≈ 1 when no phase-3 draw
// was taken).
func TestEstimateAAPhase3PartialMean(t *testing.T) {
	for _, maxSamples := range []int{1270, 1271, 1275, 1400} {
		e, err := EstimateAA(bg, bernoulli(1), 0.1, 0.05, 53, maxSamples)
		if err != nil {
			t.Fatal(err)
		}
		if e.Converged || e.Samples != maxSamples {
			t.Fatalf("cap %d: converged=%v samples=%d, want a capped run", maxSamples, e.Converged, e.Samples)
		}
		if math.Abs(e.Value-1) > 0.01 {
			t.Fatalf("cap %d: partial mean %v of an always-true stream, want ≈ 1", maxSamples, e.Value)
		}
	}
}

func TestEstimateAAPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EstimateAA(bg, bernoulli(0.5), 0, 0.1, 1, 0)
}

func TestStoppingRuleParallelAccuracy(t *testing.T) {
	for _, p := range []float64{0.3, 0.05} {
		e, err := EstimateStoppingRule(bg, factory(p), 0.1, 0.05, 37, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Converged {
			t.Fatalf("p=%v: did not converge", p)
		}
		if math.Abs(e.Value-p) > 0.15*p {
			t.Fatalf("p=%v: estimate %.5f outside tolerance", p, e.Value)
		}
	}
}

func TestStoppingRuleParallelSingleWorkerDelegates(t *testing.T) {
	a, _ := EstimateStoppingRule(bg, factory(0.4), 0.1, 0.05, 41, 1, 0)
	b, _ := EstimateStoppingRule(bg, factory(0.4), 0.1, 0.05, 41, 1, 0)
	if a.Value != b.Value || a.Samples != b.Samples {
		t.Fatal("workers=1 must delegate to the sequential rule")
	}
}

func TestStoppingRuleParallelDeterministic(t *testing.T) {
	a, _ := EstimateStoppingRule(bg, factory(0.2), 0.1, 0.05, 43, 4, 0)
	b, _ := EstimateStoppingRule(bg, factory(0.2), 0.1, 0.05, 43, 4, 0)
	if a.Value != b.Value || a.Samples != b.Samples {
		t.Fatal("same seed and workers must reproduce")
	}
}

func TestStoppingRuleParallelCapped(t *testing.T) {
	e, err := EstimateStoppingRule(bg, factory(0), 0.1, 0.1, 47, 4, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if e.Converged || e.Value != 0 {
		t.Fatalf("capped run wrong: %+v", e)
	}
}

// TestParallelMatchesSequentialLaw: across many seeds, the parallel
// rule's estimates have the same accuracy profile as the sequential
// rule (both honour the (ε, δ) guarantee).
func TestParallelMatchesSequentialLaw(t *testing.T) {
	const p, eps = 0.15, 0.2
	failSeq, failPar := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		seq, _ := EstimateStoppingRule(bg, factory(p), eps, 0.1, 1000+seed, 1, 0)
		par, _ := EstimateStoppingRule(bg, factory(p), eps, 0.1, 2000+seed, 3, 0)
		if math.Abs(seq.Value-p) > eps*p {
			failSeq++
		}
		if math.Abs(par.Value-p) > eps*p {
			failPar++
		}
	}
	if failSeq > 10 || failPar > 10 {
		t.Fatalf("failure rates too high: seq %d, par %d of 40", failSeq, failPar)
	}
}
