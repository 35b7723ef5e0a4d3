package rel

import (
	"math/bits"
	"strings"
)

// Subset is a bitset over the fact indices of a fixed database D,
// representing a sub-database D' ⊆ D. The repair engines use subsets as
// compact, hashable state keys when exploring the space of databases
// reachable by repairing sequences.
type Subset struct {
	words []uint64
	n     int
}

// NewSubset returns an empty subset over a universe of n facts.
func NewSubset(n int) Subset {
	return Subset{words: make([]uint64, (n+63)/64), n: n}
}

// Set marks index i as present.
func (s Subset) Set(i int) { s.words[i/64] |= 1 << uint(i%64) }

// Clear marks index i as absent.
func (s Subset) Clear(i int) { s.words[i/64] &^= 1 << uint(i%64) }

// Has reports whether index i is present.
func (s Subset) Has(i int) bool { return s.words[i/64]&(1<<uint(i%64)) != 0 }

// Count reports the number of present indices (the size |D'|).
func (s Subset) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy of the subset.
func (s Subset) Clone() Subset {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Subset{words: w, n: s.n}
}

// WithoutIndices returns a copy of the subset with the given indices
// cleared. It is the bitset analogue of applying the operation −F.
func (s Subset) WithoutIndices(idx ...int) Subset {
	c := s.Clone()
	for _, i := range idx {
		c.Clear(i)
	}
	return c
}

// Key returns a canonical string encoding suitable for use as a map key.
func (s Subset) Key() string {
	var b strings.Builder
	b.Grow(len(s.words) * 8)
	for _, w := range s.words {
		for k := 0; k < 8; k++ {
			b.WriteByte(byte(w >> (8 * k)))
		}
	}
	return b.String()
}

// Equal reports whether two subsets over the same universe are equal.
func (s Subset) Equal(t Subset) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every index of s is present in t.
func (s Subset) SubsetOf(t Subset) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i]&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// AddTo increments counts[i] for every present index i — the
// allocation-free form of iterating Indices, used by the marginal
// counting hot loop where one sampled repair updates every surviving
// fact's counter.
func (s Subset) AddTo(counts []int) {
	for wi, w := range s.words {
		base := wi * 64
		for w != 0 {
			b := bits.TrailingZeros64(w)
			counts[base+b]++
			w &= w - 1
		}
	}
}

// Indices returns the present indices in increasing order.
func (s Subset) Indices() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}
