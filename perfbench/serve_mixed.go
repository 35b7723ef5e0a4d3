package main

// serve-mixed: open-loop traffic over 64 small random primary-key and
// key scenarios, half exact and half approx under every generator,
// with approx seeds drawn from a pool of 32 and max_samples capped at
// 20000. That is 384 exact and 8192 approx computations, far more than
// the two backends' 1024-entry result caches hold, but a run sends
// only about 2k requests, too few to fill them. So an untimed warm-up
// first fills each backend's cache past capacity, and the measured
// phases start from the state long traffic settles into: every exact
// pair cached, one approx computation in five, about 60% hits. The
// engines then run only on misses over tiny instances, and decode,
// registry, cache, proxy and encode are the rest. Every answer is
// checked against brute-force oracle probabilities computed before
// the run. It runs at a low and a high fixed rate (35 and 70 requests
// per second: higher rates put the median on the queue that forms
// behind the heaviest estimates, and it then moves by 20–40% from run
// to run), and a traced run climbs a rate ladder on top.

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/oracle"
	"repro/internal/parse"
	"repro/internal/rel"
	"repro/internal/server"
	"repro/internal/workload"
)

const (
	mixedScenarios  = 64
	mixedSeedPool   = 32
	mixedMaxSamples = 20000
	mixedLowRate    = 35 // requests per second
	mixedHighRate   = 70
	// sloP99 is the ladder's latency limit. On a 2-CPU host a capped or
	// multi-target approx miss alone takes up to 90 ms and requests on
	// the generator's two connections queue behind it, so p99 sits near
	// 100–150 ms at any rate; 250 ms separates that service-time tail
	// from a growing queue.
	sloP99 = 250 * time.Millisecond
	// maxOutstanding bounds in-flight requests of one open-loop stream;
	// beyond it slots are missed, not queued.
	maxOutstanding = 256
)

type mixedScenario struct {
	facts, fds, query string
	insert            string // a fresh fact, for the library timings
	boolean           bool
	class             fd.Class
	// ref[i] is the oracle's answer under core.AllModes()[i]: tuple
	// key → exact probability.
	ref [6]map[string]*big.Rat
	id  string
}

type serveMixed struct {
	seed  int64
	scen  []*mixedScenario
	seeds []int64
}

func wireGen(g core.Generator) string {
	switch g {
	case core.UniformRepairs:
		return "ur"
	case core.UniformSequences:
		return "us"
	default:
		return "uo"
	}
}

func tupleKey(t []string) string { return strings.Join(t, "\x00") }

// mixedCatalogSeed fixes the 64 scenarios. Their costs are heavy
// tailed — a zero-probability candidate burns the whole max_samples
// cap on every estimate, and one scenario's estimates can take 90 ms
// where most take under 2 ms — so two random draws of 64 differ by up
// to 60% in total engine time, which would swamp any regression
// bound. --seed drives the traffic instead: which scenario, mode and
// approx seed each request takes.
const mixedCatalogSeed = 1

func newServeMixed(seed int64) (*serveMixed, error) {
	catalog := rand.New(rand.NewSource(mixedCatalogSeed))
	w := &serveMixed{seed: seed}
	for i := 0; i < mixedScenarios; i++ {
		ms, err := newMixedScenario(catalog, i%4)
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		w.scen = append(w.scen, ms)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < mixedSeedPool; i++ {
		w.seeds = append(w.seeds, rng.Int63n(1<<40)+1)
	}
	return w, nil
}

// newMixedScenario draws one scenario — on primary keys or keys (k
// odd), with answer variables for k ≥ 2 — and its oracle answers under
// every mode.
func newMixedScenario(rng *rand.Rand, k int) (*mixedScenario, error) {
	class := fd.PrimaryKeys
	if k%2 == 1 {
		class = fd.Keys
	}
	sc := workload.RandomScenario(rng, workload.ScenarioSpec{
		Class: class, Shape: workload.ShapeBlocks, AnswerVars: k >= 2,
	})
	o, err := oracle.New(sc.DB, sc.Sigma)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	ms := &mixedScenario{
		facts:   parse.FormatDatabase(sc.DB),
		fds:     parse.FormatFDs(sc.Sigma),
		query:   sc.Query.String(),
		boolean: sc.Query.IsBoolean(),
		class:   class,
	}
	f0 := sc.DB.Fact(0)
	ms.insert = parse.FormatFact(rel.NewFact(f0.Rel, append([]string{"fresh"}, f0.Args[1:]...)...))
	for mi, m := range core.AllModes() {
		ref := map[string]*big.Rat{}
		if ms.boolean {
			p, err := o.Probability(m, sc.Query, nil)
			if err != nil {
				return nil, err
			}
			ref[""] = p
		} else {
			ans, err := o.Answers(m, sc.Query)
			if err != nil {
				return nil, err
			}
			for _, a := range ans {
				ref[tupleKey(a.Tuple)] = a.Prob
			}
		}
		ms.ref[mi] = ref
	}
	return ms, nil
}

func (w *serveMixed) setup(ctx context.Context, tp *topology, client *http.Client) error {
	for i, s := range w.scen {
		id, err := register(ctx, client, tp.front.URL, s.facts, s.fds)
		if err != nil {
			return fmt.Errorf("registering scenario %d: %w", i, err)
		}
		s.id = id
	}
	return nil
}

// warmSlack is how many computations past its cache's capacity the
// warm-up sends each backend, so each cache is full and has evicted.
const warmSlack = 64

// warm fills each backend's result cache the way the measured traffic
// keeps it: distinct approx computations of the scenarios the backend
// owns (from the run's seed pool) until, with every exact pair after
// them, the backend has seen warmSlack more than its cache holds. The
// exact pairs go last, as the most recently used entries, as they are
// under steady traffic, where each recurs every few hundred requests.
func (w *serveMixed) warm(ctx context.Context, tp *topology, client *http.Client) error {
	backend := map[string]int{} // instance id → owning backend
	for _, sh := range tp.coord.Shards() {
		for i, b := range tp.backends {
			if b.URL == sh.Owner {
				backend[sh.ID] = i
			}
		}
	}
	exact, approx := w.pairs()
	var exactOps []*op
	perBackend := make([][]*op, len(tp.backends))
	exactCount := make([]int, len(tp.backends))
	for _, p := range exact {
		exactOps = append(exactOps, w.request(p, 0))
		exactCount[backend[w.scen[p.si].id]]++
	}
	var keys []pairSeed
	for _, p := range approx {
		for _, seed := range w.seeds {
			keys = append(keys, pairSeed{p, seed})
		}
	}
	rng := rand.New(rand.NewSource(w.seed * 1000))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		b := backend[w.scen[k.p.si].id]
		if len(perBackend[b])+exactCount[b] < resultCacheSize+warmSlack {
			perBackend[b] = append(perBackend[b], w.request(k.p, k.seed))
		}
	}
	var ops []*op
	for _, b := range perBackend {
		ops = append(ops, b...)
	}
	if err := sendAll(ctx, tp.front.URL, runtime.NumCPU(), ops); err != nil {
		return err
	}
	return sendAll(ctx, tp.front.URL, runtime.NumCPU(), exactOps)
}

type pairSeed struct {
	p    pair
	seed int64
}

// sendAll sends ops through the front door over conns connections,
// each connection in a closed loop, and fails on the first error.
func sendAll(ctx context.Context, front string, conns int, ops []*op) error {
	g := newGen(front, conns, false)
	defer g.close()
	var next atomic.Int64
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		go func() {
			for i := int(next.Add(1)) - 1; i < len(ops); i = int(next.Add(1)) - 1 {
				o := &outcome{op: ops[i], id: g.nextID()}
				if g.do(ctx, g.client, o); !o.ok() {
					errs <- fmt.Errorf("warm-up: %v", o.err)
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for c := 0; c < conns; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pair is one (scenario, mode) computation of the mix.
type pair struct {
	si, mi int
	approx bool
}

// deck is a phase's n requests: its composition is fixed — exact
// pairs (every scenario under every mode) and approx pairs (every
// scenario under every mode with an FPRAS: all six on primary keys,
// M^uo and M^{uo,1} on keys) alternate, cycling through each list in
// order — and the seed only shuffles the order and draws each approx
// request's seed from the pool. A run thus always carries the same
// number of each computation, heavy ones included, instead of a
// Poisson-varying number of them.
func (w *serveMixed) deck(rng *rand.Rand, n int) []*op {
	exact, approx := w.pairs()
	list := make([]pair, 0, n)
	for j := 0; len(list) < n; j++ {
		list = append(list, exact[j%len(exact)])
		if len(list) < n {
			list = append(list, approx[j%len(approx)])
		}
	}
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	ops := make([]*op, n)
	for i, p := range list {
		var seed int64
		if p.approx {
			seed = w.seeds[rng.Intn(len(w.seeds))]
		}
		ops[i] = w.request(p, seed)
	}
	return ops
}

// pairs lists the exact pairs (every scenario under every mode) and
// the approx pairs (every scenario under every mode with an FPRAS).
func (w *serveMixed) pairs() (exact, approx []pair) {
	for si, s := range w.scen {
		for mi, m := range core.AllModes() {
			exact = append(exact, pair{si, mi, false})
			if st, _ := core.Approximability(m, s.class); st == core.StatusFPRAS {
				approx = append(approx, pair{si, mi, true})
			}
		}
	}
	return exact, approx
}

// request builds the query of one pair (seed only for approx).
func (w *serveMixed) request(p pair, seed int64) *op {
	s := w.scen[p.si]
	m := core.AllModes()[p.mi]
	req := server.QueryRequest{Query: s.query, Generator: wireGen(m.Gen), Singleton: m.Singleton, Mode: "exact"}
	if p.approx {
		req.Mode, req.Seed, req.MaxSamples = "approx", seed, mixedMaxSamples
	}
	key := fmt.Sprintf("%s|%d|%s|%d", s.id, p.mi, req.Mode, seed)
	return &op{
		class:  req.Mode,
		method: http.MethodPost,
		path:   "/v1/instances/" + s.id + "/query",
		body:   jsonBody(req),
		check: func(o *outcome) []verdict {
			return checkAnswers(o.resp.Answers, s.ref[p.mi], p.approx, 0.1, 0.05, key)
		},
	}
}

// checkAnswers compares a served answer set with the reference.
func checkAnswers(got []server.Answer, ref map[string]*big.Rat, approx bool, eps, delta float64, key string) []verdict {
	if len(got) != len(ref) {
		return []verdict{{estimate: false, ok: false, key: key}}
	}
	var out []verdict
	for _, a := range got {
		k := tupleKey(a.Tuple)
		p, ok := ref[k]
		if !ok {
			out = append(out, verdict{ok: false, key: key})
			continue
		}
		if !approx {
			out = append(out, verdict{ok: exactOK(a.Prob, p), key: key})
			continue
		}
		pf, _ := p.Float64()
		conv := a.Converged != nil && *a.Converged
		out = append(out, verdict{estimate: true, ok: estimateOK(a.Value, pf, eps, delta, a.Samples, conv), key: key + "|" + k})
	}
	return out
}

// run drives the low-rate and high-rate phases over dur, and in a
// traced run the rate ladder too, which feeds only a per-layer metric;
// an untraced run gives its time to the high-rate phase the gated
// metrics come from.
func (w *serveMixed) run(ctx context.Context, g *gen, dur time.Duration) runPhases {
	var rp runPhases
	stream := func(phase int64, rate float64, d time.Duration) func(int) *op {
		rng := rand.New(rand.NewSource(w.seed*1000 + phase))
		ops := w.deck(rng, slotCount(rate, d))
		return func(i int) *op { return ops[i] }
	}
	low := time.Duration(float64(dur) * 0.25)
	high := dur - low
	if g.trace {
		high = time.Duration(float64(dur) * 0.40)
	}
	// The rate ladder: the low and high phases are its first two rungs,
	// and a traced run adds two more at 1.5× and 2.25× the high rate.
	// max_rps_at_slo is the highest rung, climbing in order, whose p99
	// from the intended send (failures counting as misses) meets the
	// SLO with no failed or missed slot; the first rung that fails ends the climb.
	type rung struct {
		phase string
		rate  float64
		d     time.Duration
	}
	rungs := []rung{{"low", mixedLowRate, low}, {"high", mixedHighRate, high}}
	if g.trace {
		d := (dur - low - high) / 2
		rungs = append(rungs, rung{"ladder-1", 1.5 * mixedHighRate, d}, rung{"ladder-2", 2.25 * mixedHighRate, d})
	}
	climbing := true
	for i, r := range rungs {
		c := g.openLoop(ctx, r.phase, "reads", r.rate, r.d, maxOutstanding, stream(int64(i+1), r.rate, r.d))
		rp.cells = append(rp.cells, c)
		outs := g.phaseOutcomes(r.phase)
		if p99 := quantileMs(outs, 0.99); failures(outs) > 0 || p99 > ms(sloP99) {
			climbing = false
		}
		if climbing {
			rp.maxRPS = r.rate
		}
	}
	return rp
}

// runPhases is what a workload's run reports beside its outcomes: its
// open-loop cells and, for serve-mixed, the ladder's highest rate that
// met the SLO.
type runPhases struct {
	cells  []cell
	maxRPS float64
}

// libInput lists the scenarios for the library timings; each insert is
// the scenario's first fact under a fresh first constant.
func (w *serveMixed) libInput() libInput {
	var in libInput
	for _, s := range w.scen {
		in.facts = append(in.facts, s.facts)
		in.fds = append(in.fds, s.fds)
		in.query = append(in.query, s.query)
		in.insert = append(in.insert, s.insert)
	}
	return in
}
