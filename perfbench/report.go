package main

// Turning a run's outcomes, spans and counters into the metrics.

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// failedMs is the latency a failed or missed request takes in every
// percentile: it misses any latency limit.
const failedMs = 60_000

func isRead(o *outcome) bool {
	c := o.op.class
	return c == "exact" || c == "approx" || c == "marginals"
}

func filter(outs []*outcome, keep func(*outcome) bool) []*outcome {
	var out []*outcome
	for _, o := range outs {
		if keep(o) {
			out = append(out, o)
		}
	}
	return out
}

// quantileMs is the nearest-rank q-quantile of the outcomes' latencies
// from their slots, failures counting as failedMs; 0 when empty.
func quantileMs(outs []*outcome, q float64) float64 {
	if len(outs) == 0 {
		return 0
	}
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = failedMs
		if o.ok() {
			v[i] = ms(o.latency())
		}
	}
	sort.Float64s(v)
	return quantile(v, q)
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// phases lists the outcomes' phases in the order they first appear.
func phases(outs []*outcome) []string {
	var out []string
	seen := map[string]bool{}
	for _, o := range outs {
		if !seen[o.phase] {
			seen[o.phase] = true
			out = append(out, o.phase)
		}
	}
	return out
}

func meanLatencyMs(outs []*outcome) float64 {
	var sum float64
	n := 0
	for _, o := range outs {
		if o.ok() {
			sum += ms(o.latency())
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// waterfall splits traced requests' latency into layer self times:
// generator wait (slot to send), client (send to response minus the
// coordinator handler), coordinator (handler minus its backend round
// trips), transport (round trips minus backend handlers), backend
// server (handler minus the engine computation its cost object
// reports) and the computation itself. Child spans are clipped to
// their parent's window, so the self times of properly nested spans
// add up to the client latency.
type waterfall struct {
	traced, incomplete                              int     // traced requests, and those whose span chain has a gap
	n                                               int     // traced requests with a whole chain
	wait, client, coord, transport, server, compute float64 // ms sums
	latency                                         float64
	calls, syncMs                                   float64
	mutations                                       int
}

func clipTo(ivs []interval, lo, hi time.Time) []interval {
	var out []interval
	for _, iv := range ivs {
		if iv.start.Before(lo) {
			iv.start = lo
		}
		if iv.end.After(hi) {
			iv.end = hi
		}
		if iv.end.After(iv.start) {
			out = append(out, iv)
		}
	}
	return out
}

func window(ivs []interval) (time.Time, time.Time) {
	lo, hi := ivs[0].start, ivs[0].end
	for _, iv := range ivs[1:] {
		if iv.start.Before(lo) {
			lo = iv.start
		}
		if iv.end.After(hi) {
			hi = iv.end
		}
	}
	return lo, hi
}

func buildWaterfall(outs []*outcome, tr *tracer) waterfall {
	var w waterfall
	for _, o := range outs {
		if !traced(o.id) || !o.ok() || o.op.class == "watch" {
			continue
		}
		w.traced++
		sp := tr.lookup(o.id)
		if sp == nil {
			w.incomplete++
			continue
		}
		// The chain must be whole: a coordinator span inside the
		// client's window, a backend round trip of the request's own
		// (not only follower syncs) inside it, and a backend handler
		// inside the round trips. A missing link would otherwise pass
		// unseen, its time folded into its parent's self time.
		coord := clipTo(sp.coord, o.sent, o.done)
		var rts, bes []interval
		if len(coord) > 0 {
			lo, hi := window(coord)
			rts = clipTo(sp.rt, lo, hi)
		}
		if len(rts) > 0 {
			lo, hi := window(rts)
			bes = clipTo(sp.backend, lo, hi)
		}
		if len(bes) == 0 || len(sp.rt) == len(sp.syncRT) {
			w.incomplete++
			continue
		}
		w.n++
		w.latency += ms(o.latency())
		w.wait += ms(o.sent.Sub(o.due))
		c, rt, be := union(coord), union(rts), union(bes)
		w.client += clip0(ms(o.done.Sub(o.sent) - c))
		w.coord += clip0(ms(c - rt))
		w.transport += clip0(ms(rt - be))
		var compute float64
		if o.resp.Cost != nil {
			compute = math.Min(o.resp.Cost.WallSeconds*1000, ms(be))
		}
		w.server += clip0(ms(be) - compute)
		w.compute += compute
		w.calls += float64(len(sp.rt) - len(sp.syncRT))
		if o.op.class == "mutate" {
			w.mutations++
			w.syncMs += ms(union(sp.syncRT))
		}
	}
	return w
}

func (w waterfall) mean(sum float64) float64 { return ratio(sum, float64(w.n)) }

// sumRatio is the layers' mean self times over the mean latency.
func (w waterfall) sumRatio() float64 {
	return ratio(w.wait+w.client+w.coord+w.transport+w.server+w.compute, w.latency)
}

// costStats reads the response bodies: cache disposition, computation
// wall time, draws, plan routes and capped estimates.
type costStats struct {
	queries, cached         int
	exactMiss               int
	exactWall               float64
	engineMiss              int
	engineWall, engineDraws float64
	capped                  int
	routes                  map[string]int
}

var routeNames = []string{"cached", "exact-dp", "dklr", "shared-multi-dklr", "delta-exact", "delta-stratified", "marginals-fixed", "other"}

func readCosts(outs []*outcome) costStats {
	cs := costStats{routes: map[string]int{}}
	for _, o := range outs {
		if !o.ok() || !isRead(o) || o.resp.Cost == nil {
			continue
		}
		c := o.resp.Cost
		if o.op.class != "marginals" {
			cs.queries++
			if c.Cached {
				cs.cached++
			}
		}
		if e := o.resp.Explain; e != nil {
			r := e.Plan.Route
			known := false
			for _, n := range routeNames {
				known = known || n == r
			}
			if !known {
				r = "other"
			}
			cs.routes[r]++
		}
		if c.Cached {
			continue
		}
		if o.op.class == "exact" {
			cs.exactMiss++
			cs.exactWall += c.WallSeconds
			continue
		}
		cs.engineMiss++
		cs.engineWall += c.WallSeconds
		cs.engineDraws += float64(c.Draws)
		for _, a := range o.resp.Answers {
			if a.Converged != nil && !*a.Converged {
				cs.capped++
			}
		}
	}
	return cs
}

// Generator health limits. An open-loop send that starts more than
// behindThreshold after its slot means the generator fell behind; a
// cell fails when more than maxBehindFrac of its sends do, or when its
// last send starts more than endSlack after the phase ended. The
// limits let through a stall of the whole VM of a few hundred
// milliseconds, which delays the system as much as the generator and
// shows as latency from the slot, but not a generator that keeps
// losing ground.
const (
	behindThreshold = 100 * time.Millisecond
	maxBehindFrac   = 0.05
	endSlack        = time.Second
)

// cellTally is one cell's slot accounting, counted from the outcomes
// the generator recorded.
type cellTally struct {
	cell
	slots, sent, missed int
	late, behind        int // sends that started lateThreshold / behindThreshold after their slot
	lastSend            time.Time
}

func tallyCells(cells []cell, outs []*outcome) []cellTally {
	var ts []cellTally
	for _, c := range cells {
		t := cellTally{cell: c, slots: slotCount(c.rate, c.dur)}
		for _, o := range outs {
			if o.phase != c.phase || o.stream != c.stream {
				continue
			}
			if o.missed {
				t.missed++
				continue
			}
			t.sent++
			switch lag := o.sent.Sub(o.due); {
			case lag > behindThreshold:
				t.behind++
				t.late++
			case lag > lateThreshold:
				t.late++
			}
			if o.sent.After(t.lastSend) {
				t.lastSend = o.sent
			}
		}
		ts = append(ts, t)
	}
	return ts
}

// problem is why the cell fails, or "" when it passes: every one of
// its rate × duration slots must be recorded once, as sent or missed,
// and an open-loop generator must have kept to its schedule.
func (t cellTally) problem() string {
	if t.sent+t.missed != t.slots {
		return fmt.Sprintf("sent %d + missed %d != %d slots", t.sent, t.missed, t.slots)
	}
	if !t.open {
		return ""
	}
	if over := t.lastSend.Sub(t.start.Add(t.dur)); over > endSlack {
		return fmt.Sprintf("last send started %v after the phase ended", over.Round(time.Millisecond))
	}
	if float64(t.behind) > maxBehindFrac*float64(t.sent) {
		return fmt.Sprintf("%d of %d sends started over %v behind their slots", t.behind, t.sent, behindThreshold)
	}
	return ""
}

// failures counts failed and missed requests (a watch poll answered
// 204 is a success).
func failures(outs []*outcome) int {
	n := 0
	for _, o := range outs {
		if !o.ok() {
			n++
		}
	}
	return n
}
