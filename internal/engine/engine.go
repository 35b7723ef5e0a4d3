// Package engine is the shared Monte-Carlo estimation engine every
// sampling consumer of the reproduction runs through. The statistical
// machinery (sample-count bounds, probability lower bounds) stays in
// internal/fpras; this package owns the draws, in three loops:
//
//   - the quota driver (quota.go) performs a fixed number of draws into
//     per-worker count vectors: the fixed-sample Chernoff construction
//     behind the paper's FPRAS theorems (5.1(2), 6.1(2), 7.1(2), 7.5)
//     at one slot (EstimateFixed) or one per target
//     (EstimateFixedMulti), and the per-fact Marginals;
//   - the rule driver (rule.go) runs the Dagum–Karp–Luby–Ross stopping
//     rule [reference 8 of the paper] over one shared draw stream for
//     one target (EstimateStoppingRule) or K (EstimateStoppingRuleMulti);
//   - EstimateAA (adaptive.go), the sequential three-phase 𝒜𝒜 estimator
//     of the same reference.
//
// Every run is cancellable: it checks its context between chunks
// (Chunk draws per worker), so a server deadline or a vanished client
// stops the work within one chunk, and returns the partial estimate
// with the context's error. Both drivers split their draws across
// workers and merge deterministically, so the same (seed, workers)
// pair reproduces the same estimate regardless of scheduling; one
// worker runs on the caller's goroutine. Every worker RNG is derived
// here, by Substream — SplitMix64-style mixing of (seed, phase,
// worker) — so distinct phases never hand identical substreams to
// their workers for the same user seed. The drivers take the Phase as
// a parameter, so a single-target run keeps its own substreams.
package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// Sampler draws one Bernoulli observation: whether a sampled repair
// (or sequence, or chain walk) satisfies the query.
type Sampler func(rng *rand.Rand) bool

// Estimate is the outcome of a randomized estimation.
type Estimate struct {
	// Value is the estimate of the target probability.
	Value float64
	// Samples is the number of draws consumed.
	Samples int
	// Epsilon and Delta echo the requested guarantee (0 when a raw
	// fixed-sample estimate was requested).
	Epsilon, Delta float64
	// Converged is false when a capped stopping-rule run exhausted its
	// budget before meeting the rule; Value is then the plain mean.
	Converged bool
	// Acct is the run's cost accounting. Multi-target runs stamp every
	// returned estimate with the same run-level record (one shared
	// PerWorker slice — treat as read-only).
	Acct Accounting
}

// Chunk is the cancellation granularity: every estimation loop checks
// its context at least once per Chunk draws per worker, so a cancelled
// run overshoots the cancellation point by at most workers × Chunk
// samples.
const Chunk = 256

// Phase names an estimation phase for substream derivation. Distinct
// phases mix differently into Substream, so two phases that happen to
// run with the same user seed and worker index still draw from
// independent streams.
type Phase uint64

const (
	// PhaseFixed: the fixed-sample-count loops (EstimateFixed).
	PhaseFixed Phase = 1 + iota
	// PhaseStoppingRule: the DKLR stopping rule, serial and parallel.
	PhaseStoppingRule
	// PhaseAA: the full three-phase 𝒜𝒜 estimator.
	PhaseAA
	// PhaseMarginals: the per-fact marginal counting loop.
	PhaseMarginals
	// PhaseMultiFixed: the fixed-sample multi-target loop
	// (EstimateFixedMulti).
	PhaseMultiFixed
	// PhaseMultiStopping: the multi-target stopping rule, serial and
	// parallel.
	PhaseMultiStopping
)

// span is the name of the trace span a run of this phase records
// (indexed by Phase, which starts at 1).
func (p Phase) span() string {
	return [...]string{"", "sample:fixed", "sample:stopping-rule", "sample:aa",
		"sample:marginals", "sample:multi-fixed", "sample:multi-stopping"}[p]
}

// splitmix64 is the finalizer of the SplitMix64 generator (Steele,
// Lea, Flood 2014) — a bijective avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Substream derives the deterministic RNG seed for one worker of one
// estimation phase. All worker streams in this package come from here:
// the (seed, phase, worker) triple is avalanche-mixed, so neighbouring
// seeds, phases or worker indices share no structure.
func Substream(seed int64, phase Phase, worker int) int64 {
	x := splitmix64(uint64(seed))
	x = splitmix64(x ^ uint64(phase))
	x = splitmix64(x ^ uint64(worker))
	return int64(x)
}

// rngFor builds the worker's rand.Rand on its derived substream.
func rngFor(seed int64, phase Phase, worker int) *rand.Rand {
	return rand.New(rand.NewSource(Substream(seed, phase, worker)))
}

// Process-wide operational counters, exposed by the server as
// engine_* fields of /varz.
var (
	samplesDrawn  atomic.Int64
	cancelledRuns atomic.Int64
	multiRuns     atomic.Int64
	multiTargets  atomic.Int64
)

// SamplesDrawn returns the total Monte-Carlo draws performed by this
// package's loops process-wide (partial draws of cancelled runs
// included).
func SamplesDrawn() int64 { return samplesDrawn.Load() }

// CancelledRuns returns the number of estimation runs stopped early by
// context cancellation process-wide.
func CancelledRuns() int64 { return cancelledRuns.Load() }

// MultiRuns returns the number of multi-target estimation runs
// (shared-draw passes serving every answer tuple at once) performed
// process-wide, cancelled runs included.
func MultiRuns() int64 { return multiRuns.Load() }

// MultiTargets returns the total number of targets estimated by
// multi-target runs process-wide — MultiTargets/MultiRuns is the mean
// number of answer tuples a single shared pass served.
func MultiTargets() int64 { return multiTargets.Load() }

// splitQuota divides n draws over workers as evenly as possible
// (earlier workers take the remainder): the quota driver's
// deterministic split.
func splitQuota(n, workers, w int) int {
	per, extra := n/workers, n%workers
	if w < extra {
		return per + 1
	}
	return per
}

// fanOut runs f for every worker index and waits for all of them: on
// the caller's goroutine for one worker, one goroutine each otherwise.
func fanOut(workers int, f func(w int)) {
	if workers == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

func safeDiv(a float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return a / float64(n)
}
