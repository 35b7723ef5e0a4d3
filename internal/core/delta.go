package core

import (
	"sort"

	"repro/internal/cq"
)

// Incremental witness maintenance primitives for the delta-estimation
// layer (facade delta.go): after a single-fact mutation, the witness
// images of a query change only at the mutated fact — deleted images
// are the ones containing it, inserted images are the ones anchored at
// it — so per-query witness state can be maintained in time
// proportional to the affected images instead of a full re-enumeration
// of Q over D.

// Witness is one homomorphic image of a query, tagged with the answer
// tuple it witnesses: the canonical (sorted, deduplicated) set of fact
// indices the image occupies.
type Witness struct {
	Tuple cq.Tuple
	Facts []int
}

// BlockOf returns the fact indices that share a conflict with fact i,
// including i itself, sorted ascending. For primary keys, conflicts are
// exactly co-membership in a key block, so this is i's block; a
// consistent fact returns the singleton {i}. The conflict structure is
// the incrementally maintained one, so the call costs O(degree(i)) and
// stays correct across InsertFact/DeleteFact lineages.
func (inst *Instance) BlockOf(i int) []int {
	ps := inst.pairsOf[i]
	out := make([]int, 0, len(ps)+1)
	out = append(out, i)
	for _, pi := range ps {
		p := inst.pairs[pi]
		if p[0] == i {
			out = append(out, p[1])
		} else {
			out = append(out, p[0])
		}
	}
	sort.Ints(out)
	return out
}

// witnessSet collects witness images deduplicated per answer tuple, as
// CompileMultiPred does: one fact set can witness two tuples, e.g.
// (a, b) and (b, a) of Ans(x, y) :- R(x, z), R(y, z).
type witnessSet struct {
	seen    map[witnessKey]bool
	out     []Witness
	max     int
	scratch []int
}

type witnessKey struct{ tuple, facts string }

func newWitnessSet(q *cq.Query, maxImages int) *witnessSet {
	if maxImages <= 0 {
		maxImages = DefaultMaxImages
	}
	return &witnessSet{seen: make(map[witnessKey]bool), max: maxImages, scratch: make([]int, 0, len(q.Atoms))}
}

// add records one image and reports whether the set is still within
// its cap.
func (ws *witnessSet) add(tup cq.Tuple, facts []int) bool {
	w, key := canonWitness(facts, ws.scratch)
	k := witnessKey{tup.Key(), key}
	if ws.seen[k] {
		return true
	}
	ws.seen[k] = true
	ws.out = append(ws.out, Witness{Tuple: tup, Facts: append([]int(nil), w...)})
	return len(ws.out) <= ws.max
}

// Witnesses enumerates every witness image of q over D, tagged with the
// answer tuple it witnesses. ok is false once more than maxImages
// images exist (0 means DefaultMaxImages); the enumeration stops there,
// so a query past the cap costs O(maxImages) images, not all of them.
func (inst *Instance) Witnesses(q *cq.Query, maxImages int) ([]Witness, bool) {
	ws := newWitnessSet(q, maxImages)
	overflow := false
	q.HomomorphismsMatched(inst.D, func(h cq.Homomorphism, facts []int) bool {
		tup := make(cq.Tuple, len(q.AnswerVars))
		for i, v := range q.AnswerVars {
			tup[i] = h[v]
		}
		overflow = !ws.add(tup, facts)
		return !overflow
	})
	if overflow {
		return nil, false
	}
	return ws.out, true
}

// AnchoredWitnesses enumerates the witness images of q that use the
// fact at index fi — exactly the images created by inserting that fact
// — deduplicated per answer tuple across anchor atoms (an image using
// fi in two atoms is found once per anchor). ok is false when more than
// maxImages images are anchored at the fact (0 means DefaultMaxImages);
// callers then drop their compiled state and fall back to full
// recomputation.
func (inst *Instance) AnchoredWitnesses(q *cq.Query, fi int, maxImages int) ([]Witness, bool) {
	c := q.CompileFor(inst.D)
	ws := newWitnessSet(q, maxImages)
	overflow := false
	for ai := 0; ai < c.NumAtoms() && !overflow; ai++ {
		c.AnchoredMatches(ai, fi, func(binding []int32, facts []int) bool {
			overflow = !ws.add(c.AnswerOf(binding), facts)
			return !overflow
		})
	}
	if overflow {
		return nil, false
	}
	return ws.out, true
}
