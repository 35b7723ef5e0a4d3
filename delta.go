package ocqa

// Product-form estimation under primary keys, kept incremental across
// mutations.
//
// Under primary keys the M^ur repair distribution is a product measure:
// a candidate repair keeps, independently per conflict block of size m,
// exactly one of the m facts or none (m+1 equiprobable outcomes; the
// singleton variant forbids the empty outcome, m outcomes). A query's
// probability therefore factorizes over the blocks its witness images
// touch: facts in singleton blocks survive every repair ("fixed"), a
// witness with two facts in one block can never hold, and the remaining
// witnesses couple blocks into independent clusters, giving
//
//	P(Q) = 1 − Π_c (1 − p_c)
//
// with p_c the probability that some witness local to cluster c holds —
// exactly enumerable over the cluster's small outcome product. A
// single-fact mutation changes one block, hence one cluster's factor:
// the others are served from a per-query factor cache keyed by the
// cluster's block identities and content, and re-multiplied in
// O(#clusters). The same decomposition drives the delta-stratified
// estimator: clusters too large to enumerate are sampled per stratum
// under a (ε/S, δ/S) stopping rule, and their draw statistics persist
// across generations — after a mutation only the touched stratum is
// redrawn, the rest are reused and reported as Accounting.ReusedDraws.
//
// Every default stopping-rule estimate on an M^ur or M^{ur,1}
// primary-key instance takes these routes, mutated or not: the route
// depends on the class, generator, estimator, witness count and strata,
// never on mutation history. A never-mutated instance builds its state
// on the first query and draws every sampled stratum fresh. Fingerprints
// over the witness cap, targets with more than deltaMaxSampledStrata
// strata, UseAA/UseChernoff and every other mode keep the
// whole-instance estimators.
//
// State lives inside Prepared and is carried, remapped and refreshed by
// ApplyInsert/ApplyDelete (the Prepared→Prepared mutation path the
// server uses): deleted witness images are dropped, inserted facts
// discover their new images by the anchored homomorphism search
// (core.AnchoredWitnesses) instead of a full re-enumeration, and fact
// indices are shifted in place. The exact results are big.Rat-identical
// to the core enumeration engines (the oracle harness's delta traces
// audit this); the stratified estimates keep the requested (ε, δ) by a
// union bound over strata, since the exact strata contribute no error
// and |P̂ − P| ≤ Σ_sampled |p̂_c − p_c| ≤ (ε/S)·Σ_c p_c ≤ ε·P.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/big"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/rel"
)

const (
	// deltaMaxWitnesses caps the live witness images maintained per
	// query fingerprint, summed over every candidate tuple; past it the
	// fingerprint degrades to the non-delta paths. It has the value of
	// core.DefaultMaxImages, but the multi-tuple predicate applies that
	// cap per tuple, so a query it compiles (say 10 tuples of 1,000
	// images each) can still overflow here.
	deltaMaxWitnesses = core.DefaultMaxImages
	// deltaExactOutcomes caps the outcome product enumerated per
	// cluster for an exact factor; larger clusters become sampled
	// strata on the approximate path and defeat the exact one.
	deltaExactOutcomes = 4096
	// deltaMaxSampledStrata caps the sampled clusters per target: the
	// per-stratum guarantee tightens as (ε/S, δ/S), so past a small S
	// the stratified budget exceeds the plain stopping rule's and the
	// whole-instance estimator wins.
	deltaMaxSampledStrata = 16
)

// Process-wide delta counters, bridged into /varz and /metrics by the
// server (the sampler.Constructions / engine.SamplesDrawn pattern).
var (
	deltaRefreshCount atomic.Int64
	deltaFactorHits   atomic.Int64
	deltaFactorMisses atomic.Int64
	deltaReusedTotal  atomic.Int64
)

// DeltaRefreshes counts warm delta evaluations: targets answered by
// refreshing factors or strata carried across a mutation instead of
// recomputing cold.
func DeltaRefreshes() int64 { return deltaRefreshCount.Load() }

// DeltaFactorCacheHits counts per-cluster DP factors served from the
// factor cache.
func DeltaFactorCacheHits() int64 { return deltaFactorHits.Load() }

// DeltaFactorCacheMisses counts per-cluster DP factors recomputed
// because the cluster's content changed or was never seen.
func DeltaFactorCacheMisses() int64 { return deltaFactorMisses.Load() }

// DeltaReusedDraws counts stratum draws whose statistics were reused
// from a previous generation instead of being redrawn.
func DeltaReusedDraws() int64 { return deltaReusedTotal.Load() }

// deltaState is the incremental-estimation state of one Prepared: the
// per-fingerprint witness/factor/stratum records, and whether the state
// was carried over a mutation (warm).
type deltaState struct {
	mu sync.Mutex
	// warm is set on states derived by ApplyInsert/ApplyDelete. It only
	// decides whether an evaluation counts as a refresh
	// (deltaBumpRefresh); routing never reads it.
	warm bool
	// queries maps a query fingerprint (Query.String()) to its
	// maintained state; order is the FIFO eviction queue (same bound as
	// the compiled-predicate cache).
	queries map[string]*deltaQuery
	order   []string
}

// deltaQuery is the maintained state of one query fingerprint.
type deltaQuery struct {
	mu sync.Mutex
	q  *Query
	// wits are the live witness images of the current generation,
	// tagged with the answer tuple each witnesses. Maintained
	// incrementally: remapped across every mutation's index shift,
	// pruned on delete, extended by the anchored search on insert.
	wits []core.Witness
	// overflow marks a fingerprint whose image count exceeded the cap
	// (at compile time or through growth); every delta entry point then
	// declines and the non-delta paths answer.
	overflow bool
	// factors caches, per cluster signature, the complement 1 − p_c as
	// an exact rational. Entries are immutable once stored.
	factors map[string]*big.Rat
	// strata persists the sampled clusters' draw statistics across
	// generations, keyed by the same signatures.
	strata map[string]deltaStratum
}

// deltaStratum is one sampled cluster's persisted statistics, with the
// per-stratum guarantee they were drawn under — reuse is sound only
// when the stored guarantee is at least as tight as the one the current
// run needs.
type deltaStratum struct {
	est        float64
	draws      int64
	eps, delta float64
	converged  bool
}

// deltaEligible reports whether the (class, mode) pair factorizes: the
// product-measure argument is specific to M^ur under primary keys.
// M^us couples blocks through sequence interleavings and M^uo through
// the global operation choice, so both keep the non-delta engines.
func (p *Prepared) deltaEligible(mode Mode) bool {
	return p.class == fd.PrimaryKeys && mode.Gen == UniformRepairs
}

// deltaWarm reports whether the state was carried over a mutation.
func (p *Prepared) deltaWarm() bool {
	p.deltaMu.Lock()
	defer p.deltaMu.Unlock()
	return p.delta != nil && p.delta.warm
}

// deltaStateOf returns the Prepared's delta state, creating a cold one
// on first use.
func (p *Prepared) deltaStateOf() *deltaState {
	p.deltaMu.Lock()
	defer p.deltaMu.Unlock()
	if p.delta == nil {
		p.delta = &deltaState{queries: make(map[string]*deltaQuery)}
	}
	return p.delta
}

// deltaQueryFor returns the maintained state for the fingerprint,
// building it on first use.
func (p *Prepared) deltaQueryFor(q *Query) *deltaQuery {
	key := q.String()
	d := p.deltaStateOf()
	d.mu.Lock()
	dq, ok := d.queries[key]
	d.mu.Unlock()
	if ok {
		return dq
	}
	dq = p.deltaCompile(q)
	d.mu.Lock()
	if cur, ok := d.queries[key]; ok {
		dq = cur // a concurrent builder won
	} else {
		if len(d.order) >= maxCachedPreds {
			oldest := d.order[0]
			d.order = d.order[1:]
			delete(d.queries, oldest)
		}
		d.queries[key] = dq
		d.order = append(d.order, key)
	}
	d.mu.Unlock()
	return dq
}

// deltaCompile builds a fingerprint's witness state: every witness
// image of every candidate tuple, from one homomorphism enumeration that
// stops as soon as the images pass the cap.
func (p *Prepared) deltaCompile(q *Query) *deltaQuery {
	dq := &deltaQuery{
		q:       q,
		factors: make(map[string]*big.Rat),
		strata:  make(map[string]deltaStratum),
	}
	wits, ok := p.inner.Witnesses(q, deltaMaxWitnesses)
	dq.wits, dq.overflow = wits, !ok
	return dq
}

// --- Prepared→Prepared mutation derivation --------------------------------

// ApplyInsert is InsertFact on the Prepared lineage: it derives a new
// Prepared for (D ∪ {f}, Σ) whose delta state is carried over warm —
// witness images are remapped across the index shift and the inserted
// fact's new images are discovered by the anchored homomorphism search,
// so the next query refreshes only the touched block's factor (or
// stratum) instead of recomputing from scratch. Sampler artifacts still
// rebuild lazily (PrepareLazy semantics); the delta paths do not need
// them.
func (p *Prepared) ApplyInsert(f Fact) (*Prepared, int, error) {
	ni, pos, err := p.Instance.InsertFact(f)
	if err != nil {
		return nil, 0, err
	}
	np := ni.PrepareLazy()
	np.delta = p.deltaDerive(ni, pos, -1)
	return np, pos, nil
}

// ApplyDelete is DeleteFact on the Prepared lineage, with the same
// warm-carry semantics as ApplyInsert.
func (p *Prepared) ApplyDelete(i int) (*Prepared, error) {
	ni, err := p.Instance.DeleteFact(i)
	if err != nil {
		return nil, err
	}
	np := ni.PrepareLazy()
	np.delta = p.deltaDerive(ni, -1, i)
	return np, nil
}

// deltaDerive carries the delta state across one mutation (exactly one
// of insertPos/deletePos is ≥ 0). Factor caches and strata transfer
// as-is — their signatures are content-addressed, so entries for
// untouched clusters keep hitting while the touched cluster's old entry
// simply stops being referenced.
func (p *Prepared) deltaDerive(ni *Instance, insertPos, deletePos int) *deltaState {
	nd := &deltaState{warm: true, queries: make(map[string]*deltaQuery)}
	p.deltaMu.Lock()
	d := p.delta
	p.deltaMu.Unlock()
	if d == nil {
		return nd
	}
	d.mu.Lock()
	order := append([]string(nil), d.order...)
	queries := make(map[string]*deltaQuery, len(d.queries))
	for k, dq := range d.queries {
		queries[k] = dq
	}
	d.mu.Unlock()
	for _, key := range order {
		nd.queries[key] = queries[key].deriveAcross(ni, insertPos, deletePos)
		nd.order = append(nd.order, key)
	}
	return nd
}

// deriveAcross produces the next generation of one fingerprint's state:
// witness indices shifted, dead images dropped, anchored images
// appended, caches carried.
func (dq *deltaQuery) deriveAcross(ni *Instance, insertPos, deletePos int) *deltaQuery {
	dq.mu.Lock()
	defer dq.mu.Unlock()
	ndq := &deltaQuery{
		q:        dq.q,
		overflow: dq.overflow,
		factors:  make(map[string]*big.Rat, len(dq.factors)),
		strata:   make(map[string]deltaStratum, len(dq.strata)),
	}
	for k, v := range dq.factors {
		ndq.factors[k] = v
	}
	for k, v := range dq.strata {
		ndq.strata[k] = v
	}
	if ndq.overflow {
		return ndq
	}
	for _, w := range dq.wits {
		facts := make([]int, 0, len(w.Facts))
		dead := false
		for _, fi := range w.Facts {
			switch {
			case deletePos >= 0 && fi == deletePos:
				dead = true
			case deletePos >= 0 && fi > deletePos:
				facts = append(facts, fi-1)
			case insertPos >= 0 && fi >= insertPos:
				facts = append(facts, fi+1)
			default:
				facts = append(facts, fi)
			}
		}
		if !dead {
			ndq.wits = append(ndq.wits, core.Witness{Tuple: w.Tuple, Facts: facts})
		}
	}
	if insertPos >= 0 {
		fresh, ok := ni.inner.AnchoredWitnesses(dq.q, insertPos, deltaMaxWitnesses)
		if !ok {
			ndq.overflow = true
			ndq.wits = nil
			return ndq
		}
		ndq.wits = append(ndq.wits, fresh...)
	}
	if len(ndq.wits) > deltaMaxWitnesses {
		ndq.overflow = true
		ndq.wits = nil
	}
	return ndq
}

// --- decomposition ---------------------------------------------------------

// witReq is one witness's per-block requirements during decomposition:
// the block roots it spans and the fact it needs kept in each.
type witReq struct {
	blocks []int
	facts  []int
}

// deltaCluster is one independent group of conflict blocks coupled by
// witness images, with the witnesses' requirements rewritten to
// (block position, member position) pairs.
type deltaCluster struct {
	sig string
	// radix[b] is block b's outcome count: m+1 pairwise (one survivor
	// or none), m singleton (exactly one survivor).
	radix []int
	// reqs[w] lists witness w's requirements as {block, member} pairs;
	// the witness holds iff every listed block's outcome keeps exactly
	// the listed member.
	reqs [][][2]int
	// outcomes is Π radix, saturated just past deltaExactOutcomes.
	outcomes int64
}

// deltaDecomp is the evaluated decomposition of one (query, tuple)
// target.
type deltaDecomp struct {
	certain  bool // some witness uses only fixed facts: P = 1
	clusters []deltaCluster
}

// sampled counts the clusters too large to enumerate: the strata the
// stratified estimator draws.
func (d *deltaDecomp) sampled() int {
	n := 0
	for i := range d.clusters {
		if !d.clusters[i].enumerable() {
			n++
		}
	}
	return n
}

// decompose classifies the target's witnesses against the CURRENT block
// structure — read live off the incrementally maintained conflict pairs
// — and groups coupled blocks into clusters. Block membership of a fact
// is stable under primary keys (blocks never merge or split), which is
// what makes content-addressed factor caching sound; block sizes and
// fixedness are still recomputed here every time, because a mutation
// can turn a fixed fact into a block fact and vice versa.
func (p *Prepared) decompose(wits []core.Witness, singleton bool) deltaDecomp {
	var out deltaDecomp
	var wreqs []witReq
	rootOf := make(map[int]int)    // fact → block root (min member)
	members := make(map[int][]int) // root → sorted block members
	for _, w := range wits {
		var wr witReq
		impossible := false
		for _, fi := range w.Facts {
			root, ok := rootOf[fi]
			if !ok {
				blk := p.inner.BlockOf(fi)
				root = blk[0]
				for _, m := range blk {
					rootOf[m] = root
				}
				members[root] = blk
			}
			if len(members[root]) == 1 {
				continue // fixed: survives every repair
			}
			found := false
			for bi, r := range wr.blocks {
				if r == root {
					if wr.facts[bi] != fi {
						impossible = true // two facts of one block
					}
					found = true
					break
				}
			}
			if impossible {
				break
			}
			if !found {
				wr.blocks = append(wr.blocks, root)
				wr.facts = append(wr.facts, fi)
			}
		}
		if impossible {
			continue
		}
		if len(wr.blocks) == 0 {
			out.certain = true
			return out
		}
		wreqs = append(wreqs, wr)
	}
	if len(wreqs) == 0 {
		return out
	}
	// Union-find over block roots: witnesses couple the blocks they
	// span.
	parent := make(map[int]int)
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, wr := range wreqs {
		for _, r := range wr.blocks {
			if _, ok := parent[r]; !ok {
				parent[r] = r
			}
		}
		for _, r := range wr.blocks[1:] {
			parent[find(r)] = find(wr.blocks[0])
		}
	}
	grouped := make(map[int][]witReq)
	for _, wr := range wreqs {
		g := find(wr.blocks[0])
		grouped[g] = append(grouped[g], wr)
	}
	groups := make([]int, 0, len(grouped))
	for g := range grouped {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	for _, g := range groups {
		out.clusters = append(out.clusters, buildCluster(p.db, members, grouped[g], singleton))
	}
	return out
}

// buildCluster canonicalises one cluster: blocks sorted by root,
// requirements rewritten to (block, member) positions, and the content
// signature composed from the block identities — each member's interned
// relation and argument ids, stable across a lineage's append-only
// symbol tables — plus the requirement structure and the operation
// variant. The signature is the "(block id, block content)" key of the
// factor cache; it is an exact rendering rather than a hash, so a
// collision can never serve a stale factor.
func buildCluster(db *rel.Database, members map[int][]int, wreqs []witReq, singleton bool) deltaCluster {
	rootSet := make(map[int]bool)
	for _, wr := range wreqs {
		for _, r := range wr.blocks {
			rootSet[r] = true
		}
	}
	roots := make([]int, 0, len(rootSet))
	for r := range rootSet {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	blockPos := make(map[int]int, len(roots))
	memberPos := make(map[int]int)
	var c deltaCluster
	var sig strings.Builder
	if singleton {
		sig.WriteString("s|")
	}
	outcomes := int64(1)
	for bp, r := range roots {
		blockPos[r] = bp
		ms := members[r]
		radix := len(ms) + 1
		if singleton {
			radix = len(ms)
		}
		c.radix = append(c.radix, radix)
		if outcomes <= deltaExactOutcomes {
			outcomes *= int64(radix)
		}
		sig.WriteString("b")
		for mi, fi := range ms {
			memberPos[fi] = mi
			sig.WriteString(" ")
			sig.WriteString(strconv.Itoa(int(db.RelID(fi))))
			for _, a := range db.ArgIDs(fi) {
				sig.WriteString(",")
				sig.WriteString(strconv.Itoa(int(a)))
			}
		}
		sig.WriteString("|")
	}
	c.outcomes = outcomes
	reqStrs := make([]string, 0, len(wreqs))
	for _, wr := range wreqs {
		pairs := make([][2]int, 0, len(wr.blocks))
		for i, r := range wr.blocks {
			pairs = append(pairs, [2]int{blockPos[r], memberPos[wr.facts[i]]})
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		var rs strings.Builder
		for _, pr := range pairs {
			rs.WriteString(strconv.Itoa(pr[0]))
			rs.WriteString(":")
			rs.WriteString(strconv.Itoa(pr[1]))
			rs.WriteString(" ")
		}
		c.reqs = append(c.reqs, pairs)
		reqStrs = append(reqStrs, rs.String())
	}
	sort.Strings(reqStrs)
	sig.WriteString("w")
	for _, rs := range reqStrs {
		sig.WriteString(";")
		sig.WriteString(rs)
	}
	c.sig = sig.String()
	return c
}

// holdsAt reports whether some witness of the cluster holds at the
// outcome vector (outcome[b] == k keeps member k of block b; the
// pairwise "delete all" outcome is k == m and satisfies nothing).
func (c *deltaCluster) holdsAt(outcome []int) bool {
	for _, reqs := range c.reqs {
		ok := true
		for _, pr := range reqs {
			if outcome[pr[0]] != pr[1] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// enumerable reports whether the cluster's exact factor is computed
// (exactFactor) rather than drawn as a stratum: single-block clusters
// are closed-form at any radix, multi-block ones enumerate up to
// deltaExactOutcomes outcomes.
func (c *deltaCluster) enumerable() bool {
	return len(c.radix) == 1 || c.outcomes <= deltaExactOutcomes
}

// exactFactor returns the complement 1 − p_c of an enumerable cluster
// as an exact rational, enumerating its outcome product. Single-block
// clusters short-circuit: p = r/radix with r the distinct required
// members.
func (c *deltaCluster) exactFactor() *big.Rat {
	if len(c.radix) == 1 {
		distinct := make(map[int]bool)
		for _, reqs := range c.reqs {
			distinct[reqs[0][1]] = true
		}
		return new(big.Rat).SetFrac64(int64(c.radix[0]-len(distinct)), int64(c.radix[0]))
	}
	outcome := make([]int, len(c.radix))
	hits := int64(0)
	for {
		if c.holdsAt(outcome) {
			hits++
		}
		k := 0
		for k < len(outcome) {
			outcome[k]++
			if outcome[k] < c.radix[k] {
				break
			}
			outcome[k] = 0
			k++
		}
		if k == len(outcome) {
			break
		}
	}
	return new(big.Rat).SetFrac64(c.outcomes-hits, c.outcomes)
}

// newDraw builds the cluster's Bernoulli sampler factory: one draw
// picks an outcome per block (uniform over its radix) and tests the
// cluster-local witnesses.
func (c *deltaCluster) newDraw() func() engine.Sampler {
	return func() engine.Sampler {
		outcome := make([]int, len(c.radix))
		return func(rng *rand.Rand) bool {
			for b, r := range c.radix {
				outcome[b] = rng.Intn(r)
			}
			return c.holdsAt(outcome)
		}
	}
}

// --- exact delta path ------------------------------------------------------

// exactPart multiplies the complements 1 − p_c of the decomposition's
// enumerable clusters, serving cached factors and computing (and
// caching) the rest, and returns the clusters too large to enumerate.
// Caller holds dq.mu.
func (dq *deltaQuery) exactPart(dec *deltaDecomp) (*big.Rat, []*deltaCluster) {
	comp := big.NewRat(1, 1)
	var sampled []*deltaCluster
	for i := range dec.clusters {
		c := &dec.clusters[i]
		if !c.enumerable() {
			sampled = append(sampled, c)
			continue
		}
		f, ok := dq.factors[c.sig]
		if ok {
			deltaFactorHits.Add(1)
		} else {
			f = c.exactFactor()
			deltaFactorMisses.Add(1)
			dq.factors[c.sig] = f
		}
		comp.Mul(comp, f)
	}
	return comp, sampled
}

// deltaExactTarget computes the target's exact probability from the
// decomposition, serving untouched clusters' factors from the cache and
// recomputing only the changed ones. ok=false when some cluster is
// too large to enumerate (the caller falls back to the classic
// engines). Caller holds dq.mu.
func (p *Prepared) deltaExactTarget(dq *deltaQuery, wits []core.Witness, singleton bool) (*big.Rat, bool) {
	dec := p.decompose(wits, singleton)
	if dec.certain {
		p.deltaBumpRefresh()
		return big.NewRat(1, 1), true
	}
	comp, sampled := dq.exactPart(&dec)
	if len(sampled) > 0 {
		return nil, false
	}
	p.deltaBumpRefresh()
	return comp.Sub(big.NewRat(1, 1), comp), true
}

// ExactProbability computes P_{M,Q}(D, c̄) exactly. For M^ur under
// primary keys it runs on the block-factorized delta engine — per-block
// DP factors cached inside this Prepared and refreshed per-block across
// ApplyInsert/ApplyDelete — which is polynomial where the witness
// structure factorizes, so exact M^ur answers stay available at
// instance sizes where the enumeration engines would exhaust any state
// budget. Results are big.Rat-identical to the core engines (the oracle
// harness's delta traces audit this). Other modes, and targets whose
// cluster structure defeats the factorization, fall back to
// Instance.ExactProbability under the given state limit.
func (p *Prepared) ExactProbability(mode Mode, q *Query, c Tuple, limit int) (*big.Rat, error) {
	if p.deltaEligible(mode) && len(c) == len(q.AnswerVars) {
		dq := p.deltaQueryFor(q)
		if !dq.overflow {
			dq.mu.Lock()
			r, ok := p.deltaExactTarget(dq, dq.witsOf(c.Key()), mode.Singleton)
			dq.mu.Unlock()
			if ok {
				return r, nil
			}
		}
	}
	return p.Instance.ExactProbability(mode, q, c, limit)
}

// deltaConsistentAnswers computes the exact operational consistent
// answers on the delta engine: the candidate tuple set is itself
// maintained incrementally with the witness images (a tuple is a
// candidate iff it has at least one image, zero-probability candidates
// included), each tuple evaluated by the factor decomposition. ok=false
// when any tuple's structure defeats the factorization — all-or-
// nothing, so the result always matches the shared exact pass tuple for
// tuple.
func (p *Prepared) deltaConsistentAnswers(mode Mode, q *Query) ([]ConsistentAnswer, bool) {
	dq := p.deltaQueryFor(q)
	if dq.overflow {
		return nil, false
	}
	dq.mu.Lock()
	defer dq.mu.Unlock()
	tuples, wits := dq.liveTuples()
	out := make([]ConsistentAnswer, 0, len(tuples))
	for i, w := range wits {
		r, ok := p.deltaExactTarget(dq, w, mode.Singleton)
		if !ok {
			return nil, false
		}
		out = append(out, ConsistentAnswer{Tuple: tuples[i], Prob: r})
	}
	return out, true
}

// witsOf returns the live witness images of one tuple. Caller holds
// dq.mu.
func (dq *deltaQuery) witsOf(tupleKey string) []core.Witness {
	var out []core.Witness
	for _, w := range dq.wits {
		if w.Tuple.Key() == tupleKey {
			out = append(out, w)
		}
	}
	return out
}

// liveTuples groups the current generation's witness images by answer
// tuple and returns the candidate tuples sorted by key — the order
// every consumer uses — with each tuple's images. Caller holds dq.mu.
func (dq *deltaQuery) liveTuples() ([]Tuple, [][]core.Witness) {
	byKey := make(map[string][]core.Witness)
	for _, w := range dq.wits {
		k := w.Tuple.Key()
		byKey[k] = append(byKey[k], w)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tuples := make([]Tuple, len(keys))
	wits := make([][]core.Witness, len(keys))
	for i, k := range keys {
		tuples[i], wits[i] = byKey[k][0].Tuple, byKey[k]
	}
	return tuples, wits
}

// --- stratified delta path -------------------------------------------------

// deltaRun estimates the targets of a product-form route (see
// Prepared.route) in output order, holding the fingerprint's lock for
// its factor and stratum caches, and returns the estimates with their
// summed accounting. After a cancellation the remaining targets return
// at once with the same error, so every candidate carries its partial
// estimate — the shared pass's contract.
func (p *Prepared) deltaRun(ctx context.Context, r *approxRoute) ([]ApproxAnswer, Accounting, error) {
	r.dq.mu.Lock()
	defer r.dq.mu.Unlock()
	out := make([]ApproxAnswer, len(r.targets))
	var total Accounting
	var runErr error
	for i := range r.targets {
		e, err := p.deltaApproxTarget(ctx, r.dq, &r.targets[i], r.opts)
		total = addAcct(total, e.Acct)
		if runErr == nil {
			runErr = err
		}
		out[i] = ApproxAnswer{Tuple: r.tuples[i], Estimate: e}
	}
	return out, total, runErr
}

// deltaApproxTarget estimates one target from its decomposition:
// enumerable clusters contribute their exact factors (zero draws),
// sampled clusters run a per-stratum stopping rule at (ε/S, δ/S) whose
// statistics persist in dq.strata — a warm generation redraws only the
// strata whose content signature changed and reuses the rest. Each
// fresh stratum run's accounting folds into the target's, and reused
// statistics count as Acct.ReusedDraws. Caller holds dq.mu.
func (p *Prepared) deltaApproxTarget(ctx context.Context, dq *deltaQuery, dec *deltaDecomp, opts ApproxOptions) (Estimate, error) {
	end := engine.TraceFrom(ctx).StartSpan("delta-refresh")
	defer end()
	if err := ctx.Err(); err != nil {
		// A done context is refused even where no draw would run, as on
		// the whole-instance path.
		est := Estimate{Epsilon: opts.Epsilon, Delta: opts.Delta, Acct: Accounting{Cancelled: true}}
		return est, fmt.Errorf("ocqa: estimation stopped: %w", err)
	}
	est := Estimate{Epsilon: opts.Epsilon, Delta: opts.Delta, Converged: true}
	if dec.certain {
		est.Value = 1
		p.deltaBumpRefresh()
		return est, nil
	}
	exact, sampled := dq.exactPart(dec)
	if len(sampled) == 0 {
		// Every cluster enumerable: the estimate is the exact
		// probability, rounded once.
		est.Value, _ = exact.Sub(big.NewRat(1, 1), exact).Float64()
		p.deltaBumpRefresh()
		return est, nil
	}
	comp, _ := exact.Float64()
	s := len(sampled)
	epsC := opts.Epsilon / float64(s)
	deltaC := opts.Delta / float64(s)
	for _, c := range sampled {
		if st, ok := dq.strata[c.sig]; ok && st.converged && st.eps <= epsC*(1+1e-12) && st.delta <= deltaC*(1+1e-12) {
			comp *= 1 - st.est
			est.Acct.ReusedDraws += st.draws
			continue
		}
		budget := max(opts.MaxSamples/s, 1024)
		e, err := engine.EstimateStoppingRule(ctx, c.newDraw(), epsC, deltaC, deltaSeed(opts.Seed, c.sig), 1, budget)
		est.Acct = addAcct(est.Acct, e.Acct)
		if err != nil {
			deltaReusedTotal.Add(est.Acct.ReusedDraws)
			return est, fmt.Errorf("ocqa: estimation stopped: %w", err)
		}
		dq.strata[c.sig] = deltaStratum{est: e.Value, draws: e.Acct.Draws, eps: epsC, delta: deltaC, converged: e.Converged}
		comp *= 1 - e.Value
		est.Converged = est.Converged && e.Converged
	}
	est.Value = 1 - comp
	est.Samples = int(est.Acct.Draws)
	deltaReusedTotal.Add(est.Acct.ReusedDraws)
	p.deltaBumpRefresh()
	return est, nil
}

// deltaBumpRefresh counts one warm delta evaluation; cold (first-
// generation) evaluations build state but are not refreshes.
func (p *Prepared) deltaBumpRefresh() {
	if p.deltaWarm() {
		deltaRefreshCount.Add(1)
	}
}

// deltaSeed derives a deterministic per-stratum seed from the run seed
// and the cluster signature, so stratified estimates are reproducible
// given the same seed and mutation history.
func deltaSeed(seed int64, sig string) int64 {
	h := fnv.New64a()
	h.Write([]byte(sig))
	return int64((uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64()) &^ (1 << 63))
}
