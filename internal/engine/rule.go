package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// MultiSampler draws ONE repair (or sequence, or chain walk) and
// records, per estimation target, whether the draw satisfies it. It
// is the multi-target form of Sampler — the shared-draw answers hot
// path, where one drawn subset is evaluated against every candidate
// answer tuple at once, so K targets cost one sampler walk instead of
// K. active lists, in ascending order, the target indices whose
// outputs the caller will consume; nil means all targets.
// Implementations may skip evaluating targets outside active and
// leave their out entries stale — the rule driver uses this to stop
// paying for targets that have already converged. Implementations are
// typically stateful and not safe for concurrent use; the drivers call
// the factory once per worker.
type MultiSampler func(rng *rand.Rand, out []bool, active []int)

// EstimateStoppingRule implements the Dagum–Karp–Luby–Ross stopping-
// rule algorithm [8] for Bernoulli variables: sample until the running
// sum of successes reaches Υ₁ = 1 + 4(e−2)(1+ε)·ln(2/δ)/ε², and output
// Υ₁/N. For any true mean μ > 0 it guarantees Pr[|est − μ| ≤ ε·μ] ≥
// 1−δ with E[N] = O(ln(1/δ)/(ε²·μ)) — the "number of samples
// proportional to 1/p" the paper refers to. maxSamples caps the run
// (0 = no cap; the rule does not terminate when μ = 0): on exhaustion
// the plain mean is returned with Converged = false.
//
// It is the rule driver at one target on the PhaseStoppingRule
// substreams. Samples counts the consumed prefix; Acct.Draws also
// counts a parallel run's discarded tail. A cancelled run returns the
// partial mean and ctx.Err().
func EstimateStoppingRule(ctx context.Context, newSampler func() Sampler, eps, delta float64, seed int64, workers, maxSamples int) (Estimate, error) {
	multi := func() MultiSampler {
		s := newSampler()
		return func(rng *rand.Rand, out []bool, _ []int) { out[0] = s(rng) }
	}
	ests, err := runRule(ctx, PhaseStoppingRule, multi, 1, eps, delta, seed, workers, maxSamples)
	return ests[0], err
}

// EstimateStoppingRuleMulti applies the Dagum–Karp–Luby–Ross stopping
// rule to every target over ONE shared i.i.d. draw stream: target t
// stops at the first draw where its running success count reaches Υ₁
// and outputs Υ₁/n_t, exactly the law of EstimateStoppingRule applied
// to t's Bernoulli marginal of the stream — so each estimate carries
// the same (ε, δ) multiplicative guarantee the per-target rule gives,
// while K targets consume max_t n_t draws instead of Σ_t n_t. Draws
// continue until every target has met the rule or maxSamples is
// exhausted (0 = no cap; a zero-probability target never meets the
// rule); targets still open at exhaustion report the plain mean with
// Converged = false. Per-target Samples records the consumed prefix
// length at that target's stopping point.
//
// It is the rule driver at nTargets targets on the PhaseMultiStopping
// substreams; every estimate carries the same run-level Acct.
func EstimateStoppingRuleMulti(ctx context.Context, newSampler func() MultiSampler, nTargets int, eps, delta float64, seed int64, workers, maxSamples int) ([]Estimate, error) {
	return runRule(ctx, PhaseMultiStopping, newSampler, nTargets, eps, delta, seed, workers, maxSamples)
}

// runRule is the rule driver: it applies the stopping rule to k
// targets over one i.i.d. draw stream until every target has met it,
// maxSamples draws are consumed (0 = no cap), or ctx is cancelled. One
// worker runs on the caller's goroutine and consumes each draw as it
// is made, checking the cap per draw and ctx every Chunk draws. With
// more, each round every worker fills a batch of Chunk draws and the
// rule consumes the canonical interleaving (worker 0's batch, then
// worker 1's, ...), stopping each target mid-batch where the serial
// rule would and discarding the rest; ctx and the cap are checked
// between rounds. Result and curve are deterministic in (seed, workers).
func runRule(ctx context.Context, phase Phase, newSampler func() MultiSampler, k int, eps, delta float64, seed int64, workers, maxSamples int) ([]Estimate, error) {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("engine: invalid parameters eps=%v delta=%v", eps, delta))
	}
	if k == 0 {
		return nil, nil
	}
	upsilon1 := 1 + (1+eps)*4*(math.E-2)*math.Log(2/delta)/(eps*eps)
	// n counts the consumed draws, sums[t] target t's successes among
	// them and stops[t] the draw at which t met the rule (0 while open);
	// open lists the targets still running, ascending.
	n, sums, stops, open := 0, make([]int, k), make([]int, k), make([]int, k)
	for t := range open {
		open[t] = t
	}
	consume := func(out []bool) {
		n++
		kept := open[:0]
		for _, t := range open {
			if out[t] {
				sums[t]++
				if float64(sums[t]) >= upsilon1 {
					stops[t] = n
					continue
				}
			}
			kept = append(kept, t)
		}
		open = kept
	}
	// progress is the scalar a checkpoint reports: a single-target
	// rule's running mean, or the fraction of targets that have met it.
	progress := func() float64 {
		if phase == PhaseStoppingRule {
			return safeDiv(float64(sums[0]), n)
		}
		return float64(k-len(open)) / float64(k)
	}

	tr := TraceFrom(ctx)
	defer tr.StartSpan(phase.span())()
	start := time.Now()
	workers = max(workers, 1)
	acct := Accounting{Workers: workers}
	var err error
	if workers == 1 {
		s, rng, out := newSampler(), rngFor(seed, phase, 0), make([]bool, k)
		for len(open) > 0 {
			if n%Chunk == 0 {
				acct.Chunks++
				if err = ctx.Err(); err != nil {
					break
				}
				if n > 0 {
					tr.Checkpoint(int64(n), progress(), len(open))
				}
			}
			if maxSamples > 0 && n >= maxSamples {
				break
			}
			s(rng, out, open)
			consume(out)
		}
		acct.Draws = int64(n)
	} else {
		samplers := make([]MultiSampler, workers)
		rngs := make([]*rand.Rand, workers)
		// batches[w] holds worker w's round: Chunk outcome vectors of k
		// entries each, allocated once and reused.
		batches := make([][]bool, workers)
		for w := range samplers {
			samplers[w], rngs[w] = newSampler(), rngFor(seed, phase, w)
			batches[w] = make([]bool, Chunk*k)
		}
		for len(open) > 0 {
			if err = ctx.Err(); err != nil || maxSamples > 0 && n >= maxSamples {
				break
			}
			// Workers evaluate the targets open at the round's start;
			// consume changes open only after they are done.
			active := open
			fanOut(workers, func(w int) {
				s, rng, batch := samplers[w], rngs[w], batches[w]
				for i := 0; i < Chunk; i++ {
					s(rng, batch[i*k:(i+1)*k], active)
				}
			})
			acct.Chunks++
			for _, batch := range batches {
				for i := 0; i < Chunk && len(open) > 0; i++ {
					consume(batch[i*k : (i+1)*k])
				}
			}
			if len(open) > 0 {
				tr.Checkpoint(int64(n), progress(), len(open))
			}
		}
		for range samplers {
			acct.PerWorker = append(acct.PerWorker, acct.Chunks*Chunk)
		}
		acct.Draws = acct.Chunks * int64(workers) * Chunk
	}
	acct.WallNanos = time.Since(start).Nanoseconds()
	acct.Cancelled = err != nil
	tr.FinalCheckpoint(int64(n), progress(), len(open))
	record(phase, k, acct)
	// Targets still open report the plain mean over the consumed prefix.
	ests := make([]Estimate, k)
	for t := range ests {
		ests[t] = Estimate{Value: safeDiv(float64(sums[t]), n), Samples: n, Epsilon: eps, Delta: delta, Acct: acct}
		if stop := stops[t]; stop > 0 {
			ests[t].Value, ests[t].Samples, ests[t].Converged = upsilon1/float64(stop), stop, true
		}
	}
	return ests, err
}
