package main

// approx-100k: one client in a closed loop (a caller waits for each
// estimate) against the never-mutated 100k-fact instance: selective
// single-tuple M^ur and M^{ur,1} stopping-rule queries, each with a
// fresh seed, and fixed-budget fact marginals. The whole-instance draw
// and evaluate steps do almost all the work. The instance is never
// mutated because after one mutation the same queries take the
// delta-exact route and skip sampling; M^us is left out because its
// estimates on this instance run into the 30 s server deadline.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/server"
)

// bigMarginalDraws is the fixed draw budget of one marginals request.
const bigMarginalDraws = 300

type approxBig struct {
	seed  int64
	facts string
	id    string
}

func newApproxBig(seed int64) *approxBig {
	return &approxBig{seed: seed, facts: bigFactsText()}
}

func (w *approxBig) setup(ctx context.Context, tp *topology, client *http.Client) error {
	id, err := register(ctx, client, tp.front.URL, w.facts, bigFDs)
	if err != nil {
		return err
	}
	w.id = id
	return nil
}

// warm does nothing: the instance is measured cold and never mutated.
func (w *approxBig) warm(context.Context, *topology, *http.Client) error { return nil }

func (w *approxBig) next(rng *rand.Rand, i int) *op {
	seed := rng.Int63n(1<<40) + 1
	// A cycle of five: three M^ur estimates, one M^{ur,1} estimate and
	// one marginals pass, so every median falls inside the M^ur group
	// rather than on the edge between two groups.
	if i%5 == 4 {
		req := server.MarginalsRequest{Generator: "ur", Mode: "approx", Seed: seed, MaxSamples: bigMarginalDraws}
		return &op{
			class:  "marginals",
			method: http.MethodPost,
			path:   "/v1/instances/" + w.id + "/marginals",
			body:   jsonBody(req),
			check: func(o *outcome) []verdict {
				return []verdict{checkBigMarginals(o.resp.Marginals, bigMarginalDraws, 0.05, fmt.Sprint(seed))}
			},
		}
	}
	singleton := i%5 == 3
	b := rng.Intn(bigBlocks)
	req := server.QueryRequest{Generator: "ur", Singleton: singleton, Mode: "approx", Query: factQuery(blockKey(b), "v0"), Seed: seed}
	num, den := survival(2, singleton)
	return &op{
		class:  "approx",
		method: http.MethodPost,
		path:   "/v1/instances/" + w.id + "/query",
		body:   jsonBody(req),
		check: func(o *outcome) []verdict {
			return checkSingle(o.resp.Answers, float64(num)/float64(den), fmt.Sprintf("%d|%v|%d", b, singleton, seed))
		},
	}
}

// checkSingle judges a single-tuple estimate served with the default
// ε = 0.1, δ = 0.05.
func checkSingle(got []server.Answer, p float64, key string) []verdict {
	if len(got) != 1 {
		return []verdict{{estimate: true, ok: false, key: key}}
	}
	a := got[0]
	conv := a.Converged != nil && *a.Converged
	return []verdict{{estimate: true, ok: estimateOK(a.Value, p, 0.1, 0.05, a.Samples, conv), key: key}}
}

// checkBigMarginals judges one fixed-budget marginals response over
// the pristine 100k instance: clean facts must read exactly 1, and at
// most a δ share of the block facts may miss 1/3 by more than the
// Hoeffding half-width of the draw budget.
func checkBigMarginals(ms []server.FactMarginal, draws int, delta float64, key string) verdict {
	if len(ms) != bigFacts {
		return verdict{estimate: true, key: key}
	}
	tol := hoeffding(draws, delta)
	miss := 0
	for _, m := range ms {
		if strings.HasPrefix(m.Fact, "R(c") {
			if m.Value != 1 {
				return verdict{estimate: true, key: key}
			}
			continue
		}
		if d := m.Value - 1.0/3; d > tol || d < -tol {
			miss++
		}
	}
	return verdict{estimate: true, ok: float64(miss) <= delta*2*bigBlocks, key: key}
}

func (w *approxBig) run(ctx context.Context, g *gen, dur time.Duration) runPhases {
	rng := rand.New(rand.NewSource(w.seed))
	g.closedLoop(ctx, "main", dur, func(i int) *op { return w.next(rng, i) })
	return runPhases{}
}
