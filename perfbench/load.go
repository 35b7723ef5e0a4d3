package main

// The load generator: open-loop streams paced by an arrival schedule,
// a serial writer, and closed-loop clients. Every request is timed from
// its intended send time (its slot), so a stall in the system or in the
// generator shows up as latency of the requests queued behind it; late
// and missed slots are counted from the recorded outcomes afterwards
// (see tallyCells).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// op is one request the workload wants sent.
type op struct {
	class  string // exact, approx, marginals, mutate, watch
	method string
	path   string
	body   []byte
	// check verifies a 2xx response once the run is over (the
	// mutation timeline is complete by then).
	check func(o *outcome) []verdict
}

// view is the union of the response shapes the benchmark reads.
type view struct {
	Answers   []server.Answer       `json:"answers"`
	Marginals []server.FactMarginal `json:"marginals"`
	Cost      *server.CostInfo      `json:"cost"`
	Explain   *server.ExplainInfo   `json:"explain"`
	Gen       int64                 `json:"gen"`
	Index     int                   `json:"index"`
	Fact      string                `json:"fact"`
	Result    *server.QueryResponse `json:"result"`
}

// outcome is one slot's fate.
type outcome struct {
	op     *op
	phase  string
	stream string // the cell's stream, for slot accounting
	id     string
	due    time.Time
	sent   time.Time
	done   time.Time
	missed bool
	status int
	err    error
	resp   view
}

func (o *outcome) ok() bool {
	return !o.missed && o.err == nil && o.status >= 200 && o.status < 300
}

// latency is the request's time from its slot to its response.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// lateThreshold is how far behind its slot a send may start before the
// slot counts as late.
const lateThreshold = time.Millisecond

// gen is the load generator of one run.
type gen struct {
	front  string
	client *http.Client
	trace  bool
	seq    atomic.Int64

	mu       sync.Mutex
	outcomes []*outcome
}

// newGen builds a generator whose request stream uses at most conns
// connections to the front door.
func newGen(front string, conns int, trace bool) *gen {
	return &gen{
		front: front,
		trace: trace,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
}

func (g *gen) close() { g.client.CloseIdleConnections() }

// nextID mints the request id. In a traced run every other request is
// traced: it asks for ?explain=1 and the middleware records its spans;
// the untraced half gives the baseline the tracing overhead is
// measured against.
func (g *gen) nextID() string {
	n := g.seq.Add(1)
	if g.trace && n%2 == 0 {
		return fmt.Sprintf("t-%d", n)
	}
	return fmt.Sprintf("u-%d", n)
}

func (g *gen) record(o *outcome) {
	g.mu.Lock()
	g.outcomes = append(g.outcomes, o)
	g.mu.Unlock()
}

// do sends one op now and fills in the outcome.
func (g *gen) do(ctx context.Context, client *http.Client, o *outcome) {
	p := o.op.path
	if traced(o.id) && (o.op.class == "exact" || o.op.class == "approx" || o.op.class == "marginals") {
		p += "?explain=1"
	}
	var body io.Reader
	if o.op.body != nil {
		body = bytes.NewReader(o.op.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.op.method, g.front+p, body)
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("X-Request-Id", o.id)
	if o.op.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	o.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		o.done = time.Now()
		o.err = err
		return
	}
	rb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status = resp.StatusCode
	if err != nil {
		o.err = err
		return
	}
	if o.ok() && len(rb) > 0 {
		if err := json.Unmarshal(rb, &o.resp); err != nil {
			o.err = fmt.Errorf("decoding %s response: %w", o.op.class, err)
		}
	}
	if !o.ok() && o.err == nil {
		o.err = fmt.Errorf("%s %s: status %d: %.200s", o.op.method, o.op.path, o.status, rb)
	}
}

// cell is one scheduled stream of a phase: rate × dur slots, slot i
// due at start + i/rate. Its accounting is counted from the outcomes
// (tallyCells), not by the loop that sends them.
type cell struct {
	phase, stream string
	rate          float64
	start         time.Time
	dur           time.Duration
	open          bool // open loop; a serial writer sends late by design
}

// slotCount is the number of slots a phase at rate has in d.
func slotCount(rate float64, d time.Duration) int { return int(rate*d.Seconds() + 0.5) }

// openLoop sends next(i) at slot i = start + i/rate for dur. A slot
// whose request would exceed maxOutstanding in-flight requests is
// missed rather than queued, so the generator never turns into a
// closed loop; missed slots count as failed requests.
func (g *gen) openLoop(ctx context.Context, phase, stream string, rate float64, dur time.Duration, maxOutstanding int, next func(i int) *op) cell {
	c := cell{phase: phase, stream: stream, rate: rate, start: time.Now(), dur: dur, open: true}
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxOutstanding)
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < slotCount(rate, dur); i++ {
		due := c.start.Add(time.Duration(i) * interval)
		o := &outcome{op: next(i), phase: phase, stream: stream, id: g.nextID(), due: due}
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			o.missed, o.done = true, due
			g.record(o)
			continue
		}
		select {
		case sem <- struct{}{}:
		default:
			o.missed, o.done = true, due
			g.record(o)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			g.do(ctx, g.client, o)
			g.record(o)
		}()
	}
	wg.Wait()
	return c
}

// serialLoop is a single ordered writer on the same kind of schedule:
// slot i is due at start + i/rate, but a write is sent only after the
// previous one returned (writes to one instance are ordered by nature).
// A slot that comes due while its predecessor is in flight is sent late
// and timed from its slot; slots not sent by the end of the phase are
// missed.
func (g *gen) serialLoop(ctx context.Context, phase, stream string, rate float64, dur time.Duration, next func(i int) *op, after func(o *outcome)) cell {
	c := cell{phase: phase, stream: stream, rate: rate, start: time.Now(), dur: dur}
	end := c.start.Add(dur)
	interval := time.Duration(float64(time.Second) / rate)
	slots := slotCount(rate, dur)
	for i := 0; i < slots; i++ {
		due := c.start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil || time.Now().After(end) {
			for ; i < slots; i++ {
				due := c.start.Add(time.Duration(i) * interval)
				g.record(&outcome{op: &op{class: "mutate"}, phase: phase, stream: stream, due: due, done: due, missed: true})
			}
			break
		}
		o := &outcome{op: next(i), phase: phase, stream: stream, id: g.nextID(), due: due}
		g.do(ctx, g.client, o)
		after(o)
		g.record(o)
	}
	return c
}

// closedLoop runs one client that sends next(i) as soon as request
// i-1 returned, for dur. Its slot is its send time.
func (g *gen) closedLoop(ctx context.Context, phase string, dur time.Duration, next func(i int) *op) {
	end := time.Now().Add(dur)
	for i := 0; time.Now().Before(end) && ctx.Err() == nil; i++ {
		o := &outcome{op: next(i), phase: phase, id: g.nextID(), due: time.Now()}
		g.do(ctx, g.client, o)
		g.record(o)
	}
}

// phaseOutcomes returns the outcomes of one phase.
func (g *gen) phaseOutcomes(phase string) []*outcome {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []*outcome
	for _, o := range g.outcomes {
		if o.phase == phase {
			out = append(out, o)
		}
	}
	return out
}

func (g *gen) all() []*outcome {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*outcome(nil), g.outcomes...)
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own wire structs always marshal
	}
	return b
}
