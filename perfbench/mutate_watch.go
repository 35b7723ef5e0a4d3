package main

// mutate-watch: writes beside reads on the same result cache. One
// ordered writer toggles an extra fact in 8 churn blocks of the 100k
// instance (insert when absent, delete when present) at a low fixed
// rate; an open-loop reader asks 8 hot queries, exact and approx,
// which the server delta-refreshes after every write (the hot set fits
// DeltaRefreshLimit, 8); 4 watchers long-poll 4 of them. The write
// path — core apply, WAL fsync, follower sync, delta refresh, watch
// wake — does most of the work. A write costs O(instance), about
// 115 ms at 100k facts and 168 ms through the coordinator.

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/parse"
	"repro/internal/rel"
	"repro/internal/server"
)

const (
	mwReadRate   = 100 // hot reads per second
	mwWriteRate  = 2   // writes per second
	mwHot        = 4   // hot blocks: each with an exact M^ur query and an approx query
	mwChurn      = 8   // blocks the writer toggles (the hot ones among them)
	mwWatchers   = 4
	mwApproxSeed = 7
	mwApproxEps  = 0.2 // keeps the warm-up's cold estimates near a second
	extraVal     = "vx"
)

// hotQuery is one of the 8 hot queries.
type hotQuery struct {
	block     int // index into mutateWatch.churn
	singleton bool
	approx    bool
}

// mwState is the writer's view after one acknowledged write.
type mwState struct {
	gen     int64
	due     time.Time // the write's slot
	sent    time.Time
	acked   time.Time
	present [mwChurn]bool
}

type mutateWatch struct {
	seed  int64
	facts string
	id    string
	churn [mwChurn]int // block numbers; the first mwHot are hot
	hot   []hotQuery

	mu       sync.Mutex
	present  [mwChurn]bool // current extra-fact state, writer-owned
	timeline []mwState     // initial state first, then one per acked write
}

func newMutateWatch(seed int64) *mutateWatch {
	rng := rand.New(rand.NewSource(seed))
	w := &mutateWatch{seed: seed, facts: bigFactsText()}
	perm := rng.Perm(bigBlocks)
	copy(w.churn[:], perm[:mwChurn])
	for h := 0; h < mwHot; h++ {
		w.hot = append(w.hot, hotQuery{block: h})
		w.hot = append(w.hot, hotQuery{block: h, singleton: h >= mwHot/2, approx: true})
	}
	return w
}

func (w *mutateWatch) queryReq(h hotQuery) server.QueryRequest {
	req := server.QueryRequest{Generator: "ur", Singleton: h.singleton, Mode: "exact", Query: factQuery(blockKey(w.churn[h.block]), "v0")}
	if h.approx {
		req.Mode, req.Seed, req.Epsilon = "approx", mwApproxSeed, mwApproxEps
	}
	return req
}

// factIndex is the sorted-order index of block b's extra fact given
// which extras are present: every clean key sorts before every block
// key, a block's extra "vx" sorts after its "v0" and "v1", and extras
// of lower blocks shift it.
func (w *mutateWatch) factIndex(ci int, present [mwChurn]bool) int {
	b := w.churn[ci]
	idx := bigClean + 2*b + 2
	for j, p := range present {
		if p && j != ci && w.churn[j] < b {
			idx++
		}
	}
	return idx
}

// writeOp builds the write for churn block ci from the current state.
func (w *mutateWatch) writeOp(ci int) *op {
	w.mu.Lock()
	present := w.present
	w.mu.Unlock()
	fact := parse.FormatFact(rel.NewFact("R", blockKey(w.churn[ci]), extraVal))
	wantIdx := w.factIndex(ci, present)
	o := &op{class: "mutate"}
	if present[ci] {
		o.method = http.MethodDelete
		o.path = fmt.Sprintf("/v1/instances/%s/facts/%d", w.id, wantIdx)
	} else {
		o.method = http.MethodPost
		o.path = "/v1/instances/" + w.id + "/facts"
		o.body = jsonBody(server.InsertFactRequest{Fact: fact})
	}
	o.check = func(out *outcome) []verdict {
		ok := out.resp.Index == wantIdx && out.resp.Fact == fact
		return []verdict{{ok: ok, key: out.id}}
	}
	return o
}

// acked records a successful write in the timeline.
func (w *mutateWatch) acked(o *outcome, ci int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.present[ci] = !w.present[ci]
	w.timeline = append(w.timeline, mwState{gen: o.resp.Gen, due: o.due, sent: o.sent, acked: o.done, present: w.present})
}

func (w *mutateWatch) setup(ctx context.Context, tp *topology, client *http.Client) error {
	id, err := register(ctx, client, tp.front.URL, w.facts, bigFDs)
	if err != nil {
		return err
	}
	w.id = id
	return nil
}

// warm computes the hot set, then toggles one non-hot churn block
// twice so the hot entries ride the delta-refresh path from the first
// measured write on.
func (w *mutateWatch) warm(ctx context.Context, tp *topology, _ *http.Client) error {
	w.present = [mwChurn]bool{}
	w.timeline = nil
	g := newGen(tp.front.URL, 1, false)
	defer g.close()
	for _, h := range w.hot {
		o := &outcome{op: &op{class: "exact", method: http.MethodPost, path: "/v1/instances/" + w.id + "/query", body: jsonBody(w.queryReq(h))}, id: g.nextID()}
		if g.do(ctx, g.client, o); !o.ok() {
			return fmt.Errorf("warming hot query: %v", o.err)
		}
	}
	var gen int64
	for i := 0; i < 2; i++ {
		o := &outcome{op: w.writeOp(mwChurn - 1), id: g.nextID()}
		if g.do(ctx, g.client, o); !o.ok() {
			return fmt.Errorf("warming writes: %v", o.err)
		}
		w.present[mwChurn-1] = !w.present[mwChurn-1]
		gen = o.resp.Gen
	}
	w.timeline = []mwState{{gen: gen}}
	return nil
}

// stateAt returns the timeline entry for a generation.
func (w *mutateWatch) stateAt(gen int64) (mwState, bool) {
	for _, s := range w.timeline {
		if s.gen == gen {
			return s, true
		}
	}
	return mwState{}, false
}

// candidates are the states a read in [sent, done] may have seen: the
// last one acked before it was sent and every later write sent before
// it returned.
func (w *mutateWatch) candidates(sent, done time.Time) []mwState {
	var out []mwState
	for i, s := range w.timeline {
		if i+1 < len(w.timeline) && w.timeline[i+1].acked.Before(sent) {
			continue // superseded before the read was sent
		}
		if i > 0 && s.sent.After(done) {
			break
		}
		out = append(out, s)
	}
	return out
}

// hotValue is the closed-form answer of hot query h in state s.
func (w *mutateWatch) hotValue(h hotQuery, s mwState) *big.Rat {
	k := 2
	if s.present[h.block] {
		k = 3
	}
	num, den := survival(k, h.singleton)
	return big.NewRat(num, den)
}

// checkHot accepts a read that matches any state it may have seen, and
// a watch result only if it matches its generation's state exactly.
// key names an answer that could not be judged (a malformed one).
func (w *mutateWatch) checkHot(h hotQuery, got []server.Answer, states []mwState, key string) []verdict {
	if len(got) != 1 {
		return []verdict{{estimate: h.approx, key: key}}
	}
	a := got[0]
	if h.approx {
		// An estimate is one computation however many reads it
		// serves: with its fixed seed, a generation's refresh yields
		// one estimate, and a refresh that reuses an untouched
		// stratum may serve the same one again. The response carries no
		// generation, so the estimate is identified by what was
		// computed: the query and the value and draw count it got.
		key = fmt.Sprintf("hot%d/%v|%v|%d", h.block, h.singleton, a.Value, a.Samples)
	}
	for _, s := range states {
		p := w.hotValue(h, s)
		if !h.approx {
			if exactOK(a.Prob, p) {
				return []verdict{{ok: true, key: key}}
			}
			continue
		}
		pf, _ := p.Float64()
		conv := a.Converged != nil && *a.Converged
		if estimateOK(a.Value, pf, mwApproxEps, 0.05, a.Samples, conv) {
			return []verdict{{estimate: true, ok: true, key: key}}
		}
	}
	return []verdict{{estimate: h.approx, key: key}}
}

func (w *mutateWatch) readOp(h hotQuery) *op {
	class := "exact"
	if h.approx {
		class = "approx"
	}
	return &op{
		class:  class,
		method: http.MethodPost,
		path:   "/v1/instances/" + w.id + "/query",
		body:   jsonBody(w.queryReq(h)),
		check: func(o *outcome) []verdict {
			return w.checkHot(h, o.resp.Answers, w.candidates(o.sent, o.done), o.id)
		},
	}
}

// watch long-polls hot query h until ctx ends, each poll passing the
// last generation seen. It has its own connection: watchers are
// separate users.
func (w *mutateWatch) watch(ctx context.Context, g *gen, h hotQuery, since int64) {
	client := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	req := w.queryReq(h)
	for ctx.Err() == nil {
		q := url.Values{}
		q.Set("query", req.Query)
		q.Set("generator", req.Generator)
		q.Set("mode", req.Mode)
		q.Set("since", strconv.FormatInt(since, 10))
		o := &outcome{phase: "main", id: g.nextID(), due: time.Now()}
		o.op = &op{class: "watch", method: http.MethodGet, path: "/v1/instances/" + w.id + "/watch?" + q.Encode()}
		o.op.check = func(o *outcome) []verdict {
			if o.status != http.StatusOK {
				return nil // 204: the window passed with no write
			}
			s, ok := w.stateAt(o.resp.Gen)
			if !ok {
				return []verdict{{key: o.id}}
			}
			return w.checkHot(h, o.resp.Result.Answers, []mwState{s}, o.id)
		}
		g.do(ctx, client, o)
		if ctx.Err() != nil {
			return // the run ended mid-poll: not a failure
		}
		g.record(o)
		if o.status == http.StatusOK && o.resp.Gen > since {
			since = o.resp.Gen
		}
	}
}

func (w *mutateWatch) run(ctx context.Context, g *gen, dur time.Duration) runPhases {
	readRng := rand.New(rand.NewSource(w.seed*1000 + 1))
	writeRng := rand.New(rand.NewSource(w.seed*1000 + 2))
	wctx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	var watchers sync.WaitGroup
	since := w.timeline[0].gen
	for i := 0; i < mwWatchers; i++ {
		h := w.hot[2*i] // the exact query of hot block i
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			w.watch(wctx, g, h, since)
		}()
	}
	var writes cell
	writer := make(chan struct{})
	go func() {
		defer close(writer)
		// The churn blocks are written in rounds, each block once per
		// round in a shuffled order, so every run writes the hot
		// blocks (whose writes also refresh the hot set) equally often.
		var ci int
		var round []int
		writes = g.serialLoop(ctx, "main", "writes", mwWriteRate, dur, func(i int) *op {
			if i%mwChurn == 0 {
				round = writeRng.Perm(mwChurn)
			}
			ci = round[i%mwChurn]
			return w.writeOp(ci)
		}, func(o *outcome) {
			if o.ok() {
				w.acked(o, ci)
			}
		})
	}()
	reads := g.openLoop(ctx, "main", "reads", mwReadRate, dur, maxOutstanding, func(int) *op {
		return w.readOp(w.hot[readRng.Intn(len(w.hot))])
	})
	<-writer
	// Give the watchers the wake-up of the last write, then release them.
	select {
	case <-time.After(300 * time.Millisecond):
	case <-ctx.Done():
	}
	stopWatch()
	watchers.Wait()
	return runPhases{cells: []cell{reads, writes}}
}

// watchLags pairs each watch response with the write that produced its
// generation: lag = response time − the write's slot.
func (w *mutateWatch) watchLags(outs []*outcome) []float64 {
	var lags []float64
	for _, o := range outs {
		if o.op.class != "watch" || !o.ok() || o.status != http.StatusOK {
			continue
		}
		if s, ok := w.stateAt(o.resp.Gen); ok && !s.due.IsZero() {
			lags = append(lags, ms(o.done.Sub(s.due)))
		}
	}
	sort.Float64s(lags)
	return lags
}
