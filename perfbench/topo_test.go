package main

import (
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/server"
)

// The benchmark attributes cache dispositions to a backend only from
// that backend's own counters. Two backends share one process, so this
// checks the counters really are per server: a query served by one
// backend moves its counters and leaves the other's alone.
func TestBackendCacheCountersAreDisjoint(t *testing.T) {
	tp, err := newTopology(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	// Register until each backend owns an instance.
	owned := map[string]string{} // backend base URL → instance id
	for i := 0; i < 32 && len(owned) < 2; i++ {
		id, err := register(ctx, client, tp.front.URL, "R(a,b)\nR(a,c)\nR(d,e)", "R: A1 -> A2")
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range tp.coord.Shards() {
			if sh.ID == id && owned[sh.Owner] == "" {
				owned[sh.Owner] = id
			}
		}
	}
	if len(owned) < 2 {
		t.Fatalf("placement never used both backends: %v", owned)
	}

	g := newGen(tp.front.URL, 1, false)
	defer g.close()
	query := func(id string) {
		t.Helper()
		o := &outcome{id: g.nextID(), op: &op{class: "exact", method: http.MethodPost, path: "/v1/instances/" + id + "/query",
			body: jsonBody(server.QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(x) :- R(x, y)"})}}
		if g.do(ctx, g.client, o); !o.ok() {
			t.Fatal(o.err)
		}
	}
	counts := func() [2]varz {
		t.Helper()
		var out [2]varz
		for i := range out {
			bc, err := tp.counters(ctx, client, i)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = bc.varz
		}
		return out
	}

	before := counts()
	a := tp.backends[0].URL
	query(owned[a]) // miss on backend 0
	query(owned[a]) // hit on backend 0
	mid := counts()
	if d := mid[0].CacheMisses - before[0].CacheMisses; d != 1 {
		t.Errorf("backend 0 misses moved by %d, want 1", d)
	}
	if d := mid[0].CacheHits - before[0].CacheHits; d != 1 {
		t.Errorf("backend 0 hits moved by %d, want 1", d)
	}
	if mid[1] != before[1] {
		t.Errorf("backend 1 counters moved on backend 0's queries: %+v -> %+v", before[1], mid[1])
	}

	query(owned[tp.backends[1].URL]) // miss on backend 1
	end := counts()
	if d := end[1].CacheMisses - mid[1].CacheMisses; d != 1 {
		t.Errorf("backend 1 misses moved by %d, want 1", d)
	}
	if end[0] != mid[0] {
		t.Errorf("backend 0 counters moved on backend 1's query: %+v -> %+v", mid[0], end[0])
	}
}

// The waterfall's self times telescope: for properly nested spans they
// add up to the client latency exactly.
func TestWaterfallSelfTimesAddUp(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	tr := newTracer()
	tr.add("t-1", func(s *reqSpans) {
		s.coord = []interval{{at(2), at(18)}}
		s.rt = []interval{{at(3), at(16)}, {at(10), at(17)}} // a hedge
		s.backend = []interval{{at(4), at(12)}}
	})
	o := &outcome{id: "t-1", op: &op{class: "exact"}, due: at(0), sent: at(1), done: at(20), status: 200}
	o.resp.Cost = &server.CostInfo{WallSeconds: 0.005}
	w := buildWaterfall([]*outcome{o}, tr)
	if w.n != 1 || w.sumRatio() != 1 {
		t.Fatalf("n=%d sum ratio=%v, want 1 request summing to 1", w.n, w.sumRatio())
	}
	want := map[string]float64{"wait": 1, "client": 3, "coord": 2, "transport": 6, "server": 3, "compute": 5}
	got := map[string]float64{"wait": w.wait, "client": w.client, "coord": w.coord, "transport": w.transport, "server": w.server, "compute": w.compute}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v ms, want %v", k, got[k], v)
		}
	}
	if w.calls != 2 {
		t.Errorf("backend calls = %v, want 2", w.calls)
	}
}

// A traced request whose span chain has a gap is flagged, not folded
// into its parent layer's self time.
func TestWaterfallFlagsBrokenChain(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	tr := newTracer()
	tr.add("t-1", func(s *reqSpans) { // no backend handler span
		s.coord = []interval{{at(2), at(18)}}
		s.rt = []interval{{at(3), at(16)}}
	})
	tr.add("t-2", func(s *reqSpans) { // only a follower sync round trip
		s.coord = []interval{{at(2), at(18)}}
		s.rt = []interval{{at(3), at(16)}}
		s.syncRT = s.rt
		s.backend = []interval{{at(4), at(12)}}
	})
	var outs []*outcome
	for _, id := range []string{"t-1", "t-2", "t-3"} { // t-3 has no spans at all
		outs = append(outs, &outcome{id: id, op: &op{class: "exact"}, due: at(0), sent: at(1), done: at(20), status: 200})
	}
	w := buildWaterfall(outs, tr)
	if w.traced != 3 || w.incomplete != 3 || w.n != 0 {
		t.Fatalf("traced=%d incomplete=%d whole=%d, want 3, 3, 0", w.traced, w.incomplete, w.n)
	}
}

// The slot accounting is counted from the recorded outcomes, and an
// open-loop generator that falls behind its schedule fails its cell.
func TestCellProblems(t *testing.T) {
	start := time.Unix(0, 0)
	c := cell{phase: "p", stream: "s", rate: 10, start: start, dur: time.Second, open: true}
	outs := func(lag time.Duration, n int) []*outcome {
		var out []*outcome
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * 100 * time.Millisecond)
			out = append(out, &outcome{phase: "p", stream: "s", due: due, sent: due.Add(lag)})
		}
		return out
	}
	if p := tallyCells([]cell{c}, outs(0, 10))[0].problem(); p != "" {
		t.Errorf("on-schedule cell fails: %s", p)
	}
	if p := tallyCells([]cell{c}, outs(0, 9))[0].problem(); p == "" {
		t.Error("a slot with no recorded outcome passes")
	}
	if p := tallyCells([]cell{c}, outs(2*behindThreshold, 10))[0].problem(); p == "" {
		t.Error("a generator running behind its slots passes")
	}
	serial := c
	serial.open = false
	if p := tallyCells([]cell{serial}, outs(2*behindThreshold, 10))[0].problem(); p != "" {
		t.Errorf("a serial writer sending late fails: %s", p)
	}
}
