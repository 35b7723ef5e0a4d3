// Command perfbench is the repository's end-to-end benchmark: it builds
// the serving tier in-process (two durable backends behind a
// replicating coordinator), drives one workload's generated traffic
// through the coordinator, checks every answer, and prints the
// metrics. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
//
//	perfbench --workload serve-mixed|approx-100k|mutate-watch --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// traces every other request (spans from its own middleware, plans
// from ?explain=1), times the library layers on the workload's inputs,
// and prints the per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run builds a fresh topology and registers the workload at least
// minSetups times, and again while the registrations so far took less
// than setupBudget in all (at most maxSetups), so that a cheap set-up
// is the median of many; setup_s is the median registration time.
const (
	minSetups   = 5
	maxSetups   = 20
	setupBudget = time.Second
)

// traffic is one workload's traffic mix.
type traffic interface {
	// setup registers the workload's instances: parse, build and
	// prepare behind the coordinator, follower seeding included. It is
	// what setup_s times.
	setup(ctx context.Context, tp *topology, client *http.Client) error
	// warm brings the last topology to the state the measurement
	// starts from. It is not timed.
	warm(ctx context.Context, tp *topology, client *http.Client) error
	run(ctx context.Context, g *gen, dur time.Duration) runPhases
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "serve-mixed, approx-100k or mutate-watch")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 traces requests and prints the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, dur time.Duration, trace bool) error {
	if dur <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d\n",
		name, seed, dur.Seconds(), trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	var (
		wl  traffic
		lib libInput
		err error
	)
	switch name {
	case "serve-mixed":
		var w *serveMixed
		if w, err = newServeMixed(seed); err != nil {
			return err
		}
		wl, lib = w, w.libInput()
	case "approx-100k":
		w := newApproxBig(seed)
		wl = w
		lib = libInput{facts: []string{w.facts}, fds: []string{bigFDs}, query: []string{factQuery(blockKey(0), "v0")}, insert: []string{""}}
	case "mutate-watch":
		w := newMutateWatch(seed)
		wl = w
		lib = libInput{facts: []string{w.facts}, fds: []string{bigFDs}, query: []string{factQuery(blockKey(w.churn[0]), "v0")},
			insert: []string{fmt.Sprintf("R(%s,%s)", blockKey(w.churn[0]), extraVal)}}
	default:
		return fmt.Errorf("unknown workload %q (want serve-mixed, approx-100k or mutate-watch)", name)
	}

	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	tmpRoot := filepath.Join(cwd, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	ctx, cancel := context.WithTimeout(context.Background(), dur+150*time.Second)
	defer cancel()
	setupClient := &http.Client{Timeout: 120 * time.Second}
	defer setupClient.CloseIdleConnections()

	var tp *topology
	closed := true
	defer func() {
		if !closed {
			tp.close()
		}
	}()
	var setups []float64
	var setupTotal float64
	for r := 0; r < maxSetups && (r < minSetups || setupTotal < setupBudget.Seconds()); r++ {
		if !closed {
			tp.close()
			closed = true
		}
		if tp, err = newTopology(filepath.Join(scratch, fmt.Sprintf("setup%d", r))); err != nil {
			return err
		}
		closed = false
		t0 := time.Now()
		if err := wl.setup(ctx, tp, setupClient); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupTotal += setups[r]
	}
	fmt.Printf("%d set-ups: median registration %.4f s\n", len(setups), median(setups))
	t0 := time.Now()
	if err := wl.warm(ctx, tp, setupClient); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for i := range tp.backends {
		bc, err := tp.counters(ctx, setupClient, i)
		if err != nil {
			return err
		}
		fmt.Printf("after %.1fs warm-up, backend %d: %d cached results, %d evicted\n",
			time.Since(t0).Seconds(), i, bc.CacheEntries, bc.CacheEvictions)
	}

	// Collect the closed set-ups' garbage now rather than during the
	// measurement.
	runtime.GC()
	before, err := tp.sumCounters(ctx, setupClient)
	if err != nil {
		return err
	}
	g := newGen(tp.front.URL, runtime.NumCPU(), trace)
	rp := wl.run(ctx, g, dur)
	g.close()
	after, err := tp.sumCounters(ctx, setupClient)
	if err != nil {
		return err
	}
	outs := g.all()

	// Correctness.
	var verdicts []verdict
	for _, o := range outs {
		if o.ok() && o.op.check != nil {
			verdicts = append(verdicts, o.op.check(o)...)
		}
	}
	au := auditVerdicts(verdicts)
	correct := au.pass(0.05) && au.checked > 0
	var sent, missed, late int
	for _, t := range tallyCells(rp.cells, outs) {
		fmt.Printf("cell %-9s %-6s rate %6.1f/s  slots %5d  sent %5d  missed %4d  late %4d  behind %3d\n",
			t.phase, t.stream, t.rate, t.slots, t.sent, t.missed, t.late, t.behind)
		if p := t.problem(); p != "" {
			correct = false
			fmt.Printf("cell %s/%s fails: %s\n", t.phase, t.stream, p)
		}
		sent, missed, late = sent+t.sent, missed+t.missed, late+t.late
	}
	failed := failures(outs)
	for _, o := range outs {
		if !o.ok() && o.err != nil {
			fmt.Println("first failure:", o.err)
			break
		}
	}
	fmt.Printf("checked %d answers: %d wrong (%d exact); %d distinct estimates, %d beyond tolerance (budget %.3f)\n",
		au.checked, au.wrong, au.exactWrong, au.estimates, au.wrongEstimates, estimateBudget(au.estimates, 0.05))

	primary := "main"
	if name == "serve-mixed" {
		primary = "high"
	}
	reads := filter(outs, func(o *outcome) bool { return o.phase == primary && isRead(o) })
	approx := filter(reads, func(o *outcome) bool { return o.op.class == "approx" })
	fmt.Printf("%s-phase reads: %d; p50 %.2f p90 %.2f p95 %.2f p99 %.2f max %.2f ms\n", primary, len(reads),
		quantileMs(reads, 0.5), quantileMs(reads, 0.9), quantileMs(reads, 0.95), quantileMs(reads, 0.99), quantileMs(reads, 1))
	var lags []float64
	if mw, ok := wl.(*mutateWatch); ok {
		lags = mw.watchLags(outs)
	}
	muts := filter(outs, func(o *outcome) bool { return o.phase == primary && o.op.class == "mutate" })
	// op_p50_ms is the typical wait of each kind of operation the
	// primary phase has, averaged over the kinds: reads and writes
	// from their slots, and watch wake-ups from the slot of the write
	// that woke them. On mutate-watch the write and wake-up medians
	// make up nearly all of it, so it moves with the write path; on the
	// workloads without writes it is the read median. It is not gated:
	// the write path's cost follows the host's speed so closely that
	// its run-to-run spread exceeds any bound the contract allows.
	kinds := []float64{quantileMs(reads, 0.50)}
	if len(muts) > 0 {
		kinds = append(kinds, quantileMs(muts, 0.50))
	}
	if len(lags) > 0 {
		kinds = append(kinds, quantile(lags, 0.50))
	}
	var opP50 float64
	for _, k := range kinds {
		opP50 += k / float64(len(kinds))
	}
	e2e := map[string]metric{
		"setup_s":     {median(setups), "s"},
		"read_p50_ms": {quantileMs(reads, 0.50), "ms"},
		"ok_frac":     {1 - ratio(float64(failed), float64(len(outs))), "ratio"},
		"right_frac":  {1 - ratio(float64(au.wrong), float64(au.checked)), "ratio"},
	}
	if len(muts) > 0 {
		fmt.Printf("%s-phase medians: reads %.2f ms, writes %.2f ms (%d), watch wake-ups %.2f ms (%d)\n", primary,
			quantileMs(reads, 0.50), quantileMs(muts, 0.50), len(muts), quantile(lags, 0.50), len(lags))
	}

	// Per-layer numbers and the workload-specific end-to-end numbers.
	low := filter(outs, func(o *outcome) bool { return o.phase == "low" && isRead(o) })
	marg := filter(outs, func(o *outcome) bool { return isRead(o) && o.op.class == "marginals" })
	cs := readCosts(outs)
	var primaryHits float64
	for _, ph := range phases(outs) {
		pc := readCosts(filter(outs, func(o *outcome) bool { return o.phase == ph }))
		hits := ratio(float64(pc.cached), float64(pc.queries))
		fmt.Printf("phase %-9s %5d queries, cache hit ratio %.3f\n", ph, pc.queries, hits)
		if ph == primary {
			primaryHits = hits
		}
	}
	layers := map[string]metric{
		"op_p50_ms":                     {opP50, "ms"},
		"read_p99_ms":                   {quantileMs(reads, 0.99), "ms"},
		"approx_p50_ms":                 {quantileMs(approx, 0.50), "ms"},
		"approx_p90_ms":                 {quantileMs(approx, 0.90), "ms"},
		"read_low_p50_ms":               {quantileMs(low, 0.50), "ms"},
		"read_low_p99_ms":               {quantileMs(low, 0.99), "ms"},
		"max_rps_at_slo":                {rp.maxRPS, "1/s"},
		"marginals_p50_ms":              {quantileMs(marg, 0.50), "ms"},
		"mutate_p50_ms":                 {quantileMs(muts, 0.50), "ms"},
		"mutate_p90_ms":                 {quantileMs(muts, 0.90), "ms"},
		"watch_lag_p50_ms":              {quantile(lags, 0.50), "ms"},
		"watch_lag_p90_ms":              {quantile(lags, 0.90), "ms"},
		"fail_frac":                     {ratio(float64(failed), float64(len(outs))), "ratio"},
		"wrong_frac":                    {ratio(float64(au.wrong), float64(au.checked)), "ratio"},
		"loadgen.sent":                  {float64(sent), "count"},
		"loadgen.missed":                {float64(missed), "count"},
		"loadgen.late_frac":             {ratio(float64(late), float64(sent)), "ratio"},
		"server.cache_hit_ratio":        {primaryHits, "ratio"},
		"server.refreshes_per_mutation": {ratio(float64(after.CacheDeltaRefreshes-before.CacheDeltaRefreshes), float64(after.FactMutations-before.FactMutations)), "ratio"},
		"delta.refresh_ms":              {1000 * ratio(after.refreshSeconds-before.refreshSeconds, after.refreshCount-before.refreshCount), "ms"},
		"exact.compute_ms":              {1000 * ratio(cs.exactWall, float64(cs.exactMiss)), "ms"},
		"engine.compute_ms":             {1000 * ratio(cs.engineWall, float64(cs.engineMiss)), "ms"},
		"engine.draws_per_req":          {ratio(cs.engineDraws, float64(cs.engineMiss)), "count"},
		"engine.draw_rate":              {ratio(cs.engineDraws, cs.engineWall), "1/s"},
		"engine.capped_share":           {float64(cs.capped), "count"},
	}
	for _, r := range routeNames {
		layers["plan.route_share."+r] = metric{float64(cs.routes[r]), "count"}
	}
	if trace {
		wf := buildWaterfall(outs, tp.tr)
		layers["loadgen.wait_ms"] = metric{wf.mean(wf.wait), "ms"}
		layers["client.self_ms"] = metric{wf.mean(wf.client), "ms"}
		layers["cluster.self_ms"] = metric{wf.mean(wf.coord), "ms"}
		layers["transport.self_ms"] = metric{wf.mean(wf.transport), "ms"}
		layers["server.self_ms"] = metric{wf.mean(wf.server), "ms"}
		layers["server.compute_ms"] = metric{wf.mean(wf.compute), "ms"}
		layers["cluster.backend_calls_per_req"] = metric{wf.mean(wf.calls), "count"}
		layers["cluster.sync_ms"] = metric{ratio(wf.syncMs, float64(wf.mutations)), "ms"}
		layers["trace.sum_ratio"] = metric{wf.sumRatio(), "ratio"}
		tracedReads := filter(reads, func(o *outcome) bool { return traced(o.id) })
		plainReads := filter(reads, func(o *outcome) bool { return !traced(o.id) })
		layers["trace.overhead_ms"] = metric{meanLatencyMs(tracedReads) - meanLatencyMs(plainReads), "ms"}
		fmt.Printf("waterfall over %d of %d traced requests (%d with a gap in their span chain): mean latency %.3f ms, layer self times sum to %.1f%% of it\n",
			wf.n, wf.traced, wf.incomplete, wf.mean(wf.latency), 100*wf.sumRatio())
		if wf.incomplete > 0 {
			correct = false
			fmt.Println("traced requests lack a coordinator span, a round trip of their own or a backend span")
		}
		if wf.n == 0 || math.Abs(wf.sumRatio()-1) > 0.10 {
			correct = false
			fmt.Println("layer self times do not add up to the client latency within 10%")
		}
	}
	tp.close()
	closed = true
	if trace {
		lt, err := libTimings(lib, scratch)
		if err != nil {
			return fmt.Errorf("library timings: %w", err)
		}
		for k, v := range lt {
			unit := "ms"
			if strings.HasSuffix(k, "_us") {
				unit = "us"
			}
			layers[k] = metric{v, unit}
		}
	}

	printTable("end-to-end", e2e)
	printTable("per-layer", layers)
	res := result{Correct: correct, Attempted: len(outs), Failed: failed, Metrics: e2e}
	if trace {
		res.Metrics = layers
	}
	if res.Attempted == 0 {
		return fmt.Errorf("no requests attempted")
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func printTable(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println(title + ":")
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
