package main

// The serving topology every workload runs on: two durable backends
// and one replicating coordinator, all in this process on loopback
// listeners, built only from the repository's public constructors.
// The benchmark's own timing middleware wraps each HTTP handler and
// the coordinator's backend-facing transport; it records spans only
// for traced requests (request ids starting with "t-"), so an
// untraced run pays one header read per request and nothing else.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"
)

// interval is one span on the wall clock.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// reqSpans are the spans of one traced request, keyed by its
// X-Request-Id: the coordinator handler, every backend round trip the
// coordinator made on its behalf (hedges and follower syncs included),
// and every backend handler execution carrying the id.
type reqSpans struct {
	coord   []interval
	rt      []interval
	syncRT  []interval
	backend []interval
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans map[string]*reqSpans
}

func newTracer() *tracer { return &tracer{spans: map[string]*reqSpans{}} }

func traced(id string) bool { return strings.HasPrefix(id, "t-") }

func (t *tracer) get(id string) *reqSpans {
	s := t.spans[id]
	if s == nil {
		s = &reqSpans{}
		t.spans[id] = s
	}
	return s
}

func (t *tracer) add(id string, f func(*reqSpans)) {
	t.mu.Lock()
	f(t.get(id))
	t.mu.Unlock()
}

// lookup returns the spans recorded for id (nil when none).
func (t *tracer) lookup(id string) *reqSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

type ctxKey struct{}

// handlerSpans wraps a handler, recording its execution for traced
// requests. For the coordinator (withCtx) it also carries the request
// id on the context, so the coordinator's outbound calls made on the
// request's behalf — follower syncs included, which carry no id
// header of their own — can be attributed to it.
func handlerSpans(t *tracer, next http.Handler, withCtx bool, record func(*reqSpans, interval)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !traced(id) {
			next.ServeHTTP(w, r)
			return
		}
		if withCtx {
			r = r.WithContext(context.WithValue(r.Context(), ctxKey{}, id))
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		iv := interval{start, time.Now()}
		t.add(id, func(s *reqSpans) { record(s, iv) })
	})
}

// timingRT is the coordinator's backend-facing transport wrapper.
type timingRT struct {
	t    *tracer
	next http.RoundTripper
}

func (rt *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(ctxKey{}).(string)
	if id == "" {
		return rt.next.RoundTrip(req)
	}
	if req.Header.Get("X-Request-Id") == "" {
		// Follower syncs carry no id; stamp the originating request's
		// so the follower's handler span joins the same trace.
		req = req.Clone(req.Context())
		req.Header.Set("X-Request-Id", id)
	}
	start := time.Now()
	resp, err := rt.next.RoundTrip(req)
	if err == nil {
		// The span ends when the coordinator has read the whole body.
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
			iv := interval{start, time.Now()}
			sync := strings.HasPrefix(req.URL.Path, "/v1/replication/sync")
			rt.t.add(id, func(s *reqSpans) {
				if sync {
					s.syncRT = append(s.syncRT, iv)
				}
				s.rt = append(s.rt, iv)
			})
		}}
	}
	return resp, err
}

// timedBody calls done once, at EOF or Close, whichever comes first.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// resultCacheSize is each backend's result-cache capacity (entries),
// the server's default, set explicitly because serve-mixed's warm-up
// is sized by it.
const resultCacheSize = 1024

// topology is one running cluster.
type topology struct {
	dir      string
	stores   []*store.Store
	servers  []*server.Server
	backends []*httptest.Server
	coord    *cluster.Coordinator
	front    *httptest.Server
	tr       *tracer
}

// newTopology starts two fsync-on durable backends and a replicating
// coordinator under dir.
func newTopology(dir string) (*topology, error) {
	tp := &topology{dir: dir, tr: newTracer()}
	var bases []string
	for i := 0; i < 2; i++ {
		st, err := store.Open(store.Options{Dir: filepath.Join(dir, fmt.Sprintf("backend%d", i)), Fsync: true})
		if err != nil {
			tp.close()
			return nil, fmt.Errorf("opening store %d: %w", i, err)
		}
		tp.stores = append(tp.stores, st)
		s := server.New(server.Options{Store: st, CacheSize: resultCacheSize})
		tp.servers = append(tp.servers, s)
		ts := httptest.NewServer(handlerSpans(tp.tr, s, false, func(rs *reqSpans, iv interval) {
			rs.backend = append(rs.backend, iv)
		}))
		tp.backends = append(tp.backends, ts)
		bases = append(bases, ts.URL)
	}
	c, err := cluster.New(cluster.Options{
		Backends: bases,
		Client:   &http.Client{Timeout: 60 * time.Second, Transport: &timingRT{t: tp.tr, next: http.DefaultTransport}},
	})
	if err != nil {
		tp.close()
		return nil, fmt.Errorf("starting coordinator: %w", err)
	}
	tp.coord = c
	tp.front = httptest.NewServer(handlerSpans(tp.tr, c, true, func(rs *reqSpans, iv interval) {
		rs.coord = append(rs.coord, iv)
	}))
	return tp, nil
}

// close stops every listener, server and store and removes the data
// directory. Safe on a partially built topology.
func (tp *topology) close() {
	if tp.front != nil {
		tp.front.CloseClientConnections()
		tp.front.Close()
	}
	if tp.coord != nil {
		tp.coord.Close()
	}
	for i, ts := range tp.backends {
		ts.CloseClientConnections()
		ts.Close()
		tp.servers[i].Close()
	}
	for _, st := range tp.stores {
		_ = st.Close() // the directory is removed below
	}
	_ = os.RemoveAll(tp.dir)
}

// varz reads one backend's own counters.
type varz struct {
	CacheEntries        int64 `json:"cache_entries"`
	CacheEvictions      int64 `json:"result_cache_evictions"`
	CacheHits           int64 `json:"cache_hits"`
	CacheMisses         int64 `json:"cache_misses"`
	CacheDeltaRefreshes int64 `json:"result_cache_delta_refreshes"`
	FactMutations       int64 `json:"fact_mutations"`
}

// backendCounters are the server-owned counters the benchmark reads:
// /varz result-cache and mutation counters, and the delta refresh
// latency histogram's sum and count from /metrics. The process-global
// engine, sampler and delta counters are never read — two backends in
// one process share them.
type backendCounters struct {
	varz
	refreshSeconds float64
	refreshCount   float64
}

func (tp *topology) counters(ctx context.Context, client *http.Client, i int) (backendCounters, error) {
	var bc backendCounters
	base := tp.backends[i].URL
	body, err := httpGet(ctx, client, base+"/varz")
	if err != nil {
		return bc, err
	}
	if err := json.Unmarshal(body, &bc.varz); err != nil {
		return bc, fmt.Errorf("decoding /varz: %w", err)
	}
	body, err = httpGet(ctx, client, base+"/metrics")
	if err != nil {
		return bc, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, "ocqa_delta_refresh_seconds_sum %g", &v); err == nil {
			bc.refreshSeconds = v
		} else if _, err := fmt.Sscanf(line, "ocqa_delta_refresh_seconds_count %g", &v); err == nil {
			bc.refreshCount = v
		}
	}
	return bc, nil
}

// sumCounters totals both backends' counters.
func (tp *topology) sumCounters(ctx context.Context, client *http.Client) (backendCounters, error) {
	var total backendCounters
	for i := range tp.backends {
		bc, err := tp.counters(ctx, client, i)
		if err != nil {
			return total, err
		}
		total.CacheHits += bc.CacheHits
		total.CacheMisses += bc.CacheMisses
		total.CacheDeltaRefreshes += bc.CacheDeltaRefreshes
		total.FactMutations += bc.FactMutations
		total.refreshSeconds += bc.refreshSeconds
		total.refreshCount += bc.refreshCount
	}
	return total, nil
}

func httpGet(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

// register posts an instance through the coordinator (owner
// registration plus follower seeding) and returns its id.
func register(ctx context.Context, client *http.Client, front, facts, fds string) (string, error) {
	body, err := json.Marshal(server.RegisterRequest{Facts: facts, FDs: fds})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, front+"/v1/instances", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("register: status %d: %s", resp.StatusCode, rb)
	}
	var rr server.RegisterResponse
	if err := json.Unmarshal(rb, &rr); err != nil {
		return "", err
	}
	return rr.ID, nil
}

// union is the total length of a set of intervals, overlaps counted once.
func union(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	for i := 1; i < len(s); i++ { // insertion sort: a handful of spans
		for j := i; j > 0 && s[j].start.Before(s[j-1].start); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start.After(cur.end) {
			total += cur.dur()
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	return total + cur.dur()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func clip0(x float64) float64 { return math.Max(x, 0) }
