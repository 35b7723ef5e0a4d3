package engine

import (
	"context"
	"math/rand"
	"time"
)

// CountSampler draws one sample and adds its outcome to a count
// vector — the quota driver's draw interface. A marginals drawer
// increments the counter of every fact the drawn repair contains, so
// all per-fact estimates share one sample stream; it may skip facts
// that survive every repair (the caller accounts for them separately)
// and must not retain counts across calls.
type CountSampler func(rng *rand.Rand, counts []int)

// runQuota is the quota driver: n draws split over workers by
// splitQuota, each worker with its own sampler (newSampler is called
// once per worker with a quota; samplers are typically stateful and
// not safe for concurrent use), phase substream and width-sized count
// vector, filled in Chunk-sized steps with ctx checked before each.
// The vectors merge in worker order, so the counts are deterministic
// in (seed, workers). One worker runs on the caller's goroutine and
// offers a checkpoint per chunk; parallel runs offer only the terminal
// point, after the merge; marginals offer none (a summary of a
// |D|-sized vector would cost O(nFacts) per checkpoint). A cancelled
// run returns the counts of the draws performed and ctx.Err().
func runQuota(ctx context.Context, phase Phase, newSampler func() CountSampler, width, n int, seed int64, workers int) ([]int, Accounting, error) {
	if n <= 0 {
		panic("engine: need a positive sample count")
	}
	tr := TraceFrom(ctx)
	defer tr.StartSpan(phase.span())()
	curve := tr != nil && phase != PhaseMarginals
	start := time.Now()
	workers = max(workers, 1)
	perCounts := make([][]int, workers)
	perDrawn := make([]int64, workers)
	perChunks := make([]int64, workers)
	fanOut(workers, func(w int) {
		quota := splitQuota(n, workers, w)
		if quota == 0 {
			return
		}
		s, rng := newSampler(), rngFor(seed, phase, w)
		local := make([]int, width)
		drawn := 0
		for drawn < quota && ctx.Err() == nil {
			perChunks[w]++
			step := min(Chunk, quota-drawn)
			for i := 0; i < step; i++ {
				s(rng, local)
			}
			drawn += step
			if workers == 1 && curve {
				tr.Checkpoint(int64(drawn), meanCount(local, int64(drawn)), 0)
			}
		}
		perCounts[w], perDrawn[w] = local, int64(drawn)
	})
	counts := perCounts[0] // worker 0 always has a quota
	for _, local := range perCounts[1:] {
		for i, c := range local {
			counts[i] += c
		}
	}
	acct := Accounting{Workers: workers, WallNanos: time.Since(start).Nanoseconds()}
	for w := range perDrawn {
		acct.Draws += perDrawn[w]
		acct.Chunks += perChunks[w]
	}
	if workers > 1 {
		acct.PerWorker = perDrawn
	}
	var err error
	if acct.Draws < int64(n) {
		err = ctx.Err()
		acct.Cancelled = true
	}
	if curve {
		tr.FinalCheckpoint(acct.Draws, meanCount(counts, acct.Draws), 0)
	}
	record(phase, width, acct)
	return counts, acct, err
}

// meanCount is the scalar a fixed-sample checkpoint reports: the mean
// of the per-target running estimates (for one target, its running
// mean). O(width), so it is computed only when a trace is attached.
func meanCount(counts []int, drawn int64) float64 {
	if drawn == 0 || len(counts) == 0 {
		return 0
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / (float64(drawn) * float64(len(counts)))
}

// EstimateFixed draws exactly n samples and returns the empirical
// mean: the quota driver at width 1 on the PhaseFixed substreams. A
// cancelled run returns the mean over the draws actually performed,
// their count, and ctx.Err().
func EstimateFixed(ctx context.Context, newSampler func() Sampler, n int, seed int64, workers int) (Estimate, error) {
	ests, err := estimateFixed(ctx, PhaseFixed, func() CountSampler {
		s := newSampler()
		return func(rng *rand.Rand, counts []int) {
			if s(rng) {
				counts[0]++
			}
		}
	}, 1, n, seed, workers)
	return ests[0], err
}

// EstimateFixedMulti draws exactly n shared samples and returns the
// per-target empirical means, all computed from the SAME draws: the
// quota driver at width nTargets on the PhaseMultiFixed substreams.
// Cancellation behaves as in EstimateFixed; every estimate carries the
// same run-level Acct.
func EstimateFixedMulti(ctx context.Context, newSampler func() MultiSampler, nTargets, n int, seed int64, workers int) ([]Estimate, error) {
	return estimateFixed(ctx, PhaseMultiFixed, func() CountSampler {
		s, out := newSampler(), make([]bool, nTargets)
		return func(rng *rand.Rand, counts []int) {
			s(rng, out, nil)
			for t, hit := range out {
				if hit {
					counts[t]++
				}
			}
		}
	}, nTargets, n, seed, workers)
}

// estimateFixed runs the quota driver and returns each slot's mean.
func estimateFixed(ctx context.Context, phase Phase, count func() CountSampler, width, n int, seed int64, workers int) ([]Estimate, error) {
	counts, acct, err := runQuota(ctx, phase, count, width, n, seed, workers)
	ests := make([]Estimate, width)
	for t, c := range counts {
		ests[t] = Estimate{Value: safeDiv(float64(c), int(acct.Draws)), Samples: int(acct.Draws), Converged: err == nil, Acct: acct}
	}
	return ests, err
}

// Marginals draws n repairs and accumulates per-fact survival counts:
// the quota driver at width nFacts on the PhaseMarginals substreams. A
// cancelled run returns the counts so far, the accounting of the draws
// they represent, and ctx.Err(); callers must divide by acct.Draws,
// not n.
func Marginals(ctx context.Context, newSampler func() CountSampler, nFacts, n int, seed int64, workers int) ([]int, Accounting, error) {
	return runQuota(ctx, PhaseMarginals, newSampler, nFacts, n, seed, workers)
}
