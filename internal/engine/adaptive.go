package engine

import (
	"context"
	"math"
	"time"
)

// EstimateAA runs the full 𝒜𝒜 (approximation algorithm) of Dagum,
// Karp, Luby and Ross, "An Optimal Algorithm for Monte Carlo
// Estimation" [reference 8 of the paper] — the estimator whose
// expected sample count is within a constant factor of optimal for any
// random variable on [0,1]. The stopping rule of EstimateStoppingRule
// is its first phase; the full algorithm adds a variance-estimation
// phase so that low-variance targets (probabilities near 0 or 1) cost
// fewer samples than the plain 1/μ rule.
//
// Phases (for Bernoulli Z with mean μ):
//  1. Stopping rule with ε' = min(1/2, √ε) and δ/3 → crude estimate μ̂.
//  2. Estimate ρ = max(σ², εμ) with N = Υ₂·ε/μ̂ sample pairs, where
//     Υ₂ = 2(1+√ε)(1+2√ε)(1+ln(3/2)/ln(2/δ))·Υ and
//     Υ = 4(e−2)ln(2/δ)/ε².
//  3. Final estimate with N = Υ₂·ρ̂/μ̂² samples.
//
// Guarantee: Pr[|μ̃ − μ| ≤ ε·μ] ≥ 1−δ, with E[N] = O(ρ·ln(1/δ)/(ε²μ²)),
// which for Bernoulli variables is O(ln(1/δ)/(ε²·max(μ, ε))) — a
// factor min(1/ε, 1/μ) better than the plain stopping rule when μ ≫ ε.
//
// maxSamples caps the total draws across all three phases (0 = no
// cap); on exhaustion the current phase's plain mean is returned with
// Converged = false. The context is checked once per Chunk draws; a
// cancelled run returns the current phase's partial estimate and
// ctx.Err().
func EstimateAA(ctx context.Context, s Sampler, eps, delta float64, seed int64, maxSamples int) (Estimate, error) {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic("engine: invalid parameters for EstimateAA")
	}
	tr := TraceFrom(ctx)
	defer tr.StartSpan(PhaseAA.span())()
	// endPhase closes the sub-span of whichever 𝒜𝒜 phase is running;
	// finish calls it so budget-exhausted and cancelled exits still
	// close the current phase.
	endPhase := func() {}
	start := time.Now()
	rng := rngFor(seed, PhaseAA, 0)
	used := 0
	chunks := int64(0)
	var ctxErr error
	// draw returns false when the budget is exhausted or the context is
	// cancelled (recorded in ctxErr); the caller then reports the
	// current phase's partial estimate.
	draw := func() (float64, bool) {
		if maxSamples > 0 && used >= maxSamples {
			return 0, false
		}
		if used%Chunk == 0 {
			chunks++
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return 0, false
			}
		}
		used++
		if s(rng) {
			return 1, true
		}
		return 0, true
	}
	finish := func(value float64, converged bool) (Estimate, error) {
		endPhase()
		open := 1
		if converged {
			open = 0
		}
		tr.FinalCheckpoint(int64(used), value, open)
		e := Estimate{Value: value, Samples: used, Epsilon: eps, Delta: delta, Converged: converged, Acct: Accounting{
			Draws: int64(used), Chunks: chunks, Workers: 1,
			WallNanos: time.Since(start).Nanoseconds(), Cancelled: ctxErr != nil,
		}}
		record(PhaseAA, 0, e.Acct)
		return e, ctxErr
	}

	upsilon := 4 * (math.E - 2) * math.Log(3/delta) / (eps * eps)
	upsilon2 := 2 * (1 + math.Sqrt(eps)) * (1 + 2*math.Sqrt(eps)) *
		(1 + math.Log(1.5)/math.Log(3/delta)) * upsilon

	// Phase 1: stopping rule with ε' = min(1/2, √ε).
	endPhase = tr.StartSpan("aa:phase1")
	eps1 := math.Min(0.5, math.Sqrt(eps))
	upsilon1 := 1 + (1+eps1)*4*(math.E-2)*math.Log(3/delta)/(eps1*eps1)
	sum := 0.0
	n1 := 0
	for sum < upsilon1 {
		x, ok := draw()
		if !ok {
			return finish(safeDiv(sum, n1), false)
		}
		n1++
		sum += x
		if n1%Chunk == 0 {
			tr.Checkpoint(int64(used), sum/float64(n1), 1)
		}
	}
	muHat := upsilon1 / float64(n1)

	// Phase 2: variance estimation from sample pairs.
	endPhase()
	endPhase = tr.StartSpan("aa:phase2")
	n2 := int(math.Ceil(upsilon2 * eps / muHat))
	if n2 < 1 {
		n2 = 1
	}
	var s2 float64
	for i := 0; i < n2; i++ {
		a, ok := draw()
		if !ok {
			return finish(muHat, false)
		}
		b, ok := draw()
		if !ok {
			return finish(muHat, false)
		}
		d := a - b
		s2 += d * d / 2
	}
	rhoHat := math.Max(s2/float64(n2), eps*muHat)

	// Phase 3: final estimate.
	endPhase()
	endPhase = tr.StartSpan("aa:phase3")
	n3 := int(math.Ceil(upsilon2 * rhoHat / (muHat * muHat)))
	if n3 < 1 {
		n3 = 1
	}
	total := 0.0
	for i := 0; i < n3; i++ {
		x, ok := draw()
		if !ok {
			// i phase-3 draws were taken; with none, fall back to μ̂ as
			// the phase-2 exit does.
			mean := muHat
			if i > 0 {
				mean = total / float64(i)
			}
			return finish(mean, false)
		}
		total += x
		if (i+1)%Chunk == 0 {
			tr.Checkpoint(int64(used), total/float64(i+1), 1)
		}
	}
	return finish(total/float64(n3), true)
}
