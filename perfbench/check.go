package main

// Correctness of the answers the system served. Exact answers must
// equal the reference bitwise (the same rational). An estimate is
// wrong only when it misses the reference by more than the request's
// relative ε; a run that stopped at its draw cap before the stopping
// rule converged promises no ε, so it is also allowed the
// distribution-free Hoeffding half-width at the draws it actually
// made. The share of wrong estimates is then audited like an
// empirical (ε, δ) coverage check: the run fails when it exceeds δ
// plus three binomial standard errors.

import (
	"math"
	"math/big"
)

// verdict is one checked answer.
type verdict struct {
	estimate bool // an (ε, δ) estimate rather than an exact value
	ok       bool
	key      string // identity of the computation, to count it once
}

// hoeffding is the two-sided additive half-width a mean of n draws
// stays within with probability 1−δ.
func hoeffding(n int, delta float64) float64 {
	if n <= 0 {
		return 1
	}
	return math.Sqrt(math.Log(2/delta) / (2 * float64(n)))
}

// estimateOK judges one estimate against the true probability p.
func estimateOK(est, p, eps, delta float64, samples int, converged bool) bool {
	tol := eps*p + 1e-12
	if !converged {
		tol = math.Max(tol, hoeffding(samples, delta))
	}
	return math.Abs(est-p) <= tol
}

// exactOK compares a served rational ("1/3") with the reference.
func exactOK(served string, want *big.Rat) bool {
	r, ok := new(big.Rat).SetString(served)
	return ok && r.Cmp(want) == 0
}

// audit summarises a run's verdicts.
type audit struct {
	checked        int // answers checked
	wrong          int
	exactWrong     int
	estimates      int // distinct estimates
	wrongEstimates int // distinct estimates beyond tolerance
}

func auditVerdicts(vs []verdict) audit {
	var a audit
	seen := map[string]bool{}
	for _, v := range vs {
		a.checked++
		if !v.ok {
			a.wrong++
		}
		if !v.estimate {
			if !v.ok {
				a.exactWrong++
			}
			continue
		}
		// A cached estimate is served many times; its coverage counts
		// once, as the one computation it is.
		if seen[v.key] {
			continue
		}
		seen[v.key] = true
		a.estimates++
		if !v.ok {
			a.wrongEstimates++
		}
	}
	return a
}

// estimateBudget is the largest wrong-estimate share the audit accepts.
func estimateBudget(n int, delta float64) float64 {
	if n == 0 {
		return 1
	}
	return delta + 3*math.Sqrt(delta*(1-delta)/float64(n))
}

func (a audit) pass(delta float64) bool {
	if a.exactWrong > 0 {
		return false
	}
	if a.estimates == 0 {
		return true
	}
	return float64(a.wrongEstimates)/float64(a.estimates) <= estimateBudget(a.estimates, delta)
}
