package main

// The 100k-fact primary-key instance approx-100k and mutate-watch
// serve, shaped like the repository's -scale fixture: 90% clean facts
// with their own key and 10% in 2-fact key blocks. Under M^ur a fact
// of a k-fact block survives with probability 1/(k+1), under M^{ur,1}
// with 1/k, and a clean fact always survives — the closed forms the
// answers are checked against.

import (
	"fmt"
	"strings"

	"repro/internal/parse"
	"repro/internal/rel"
)

const (
	bigFacts  = 100_000
	bigBlocks = bigFacts / 20 // 2-fact blocks hold 10% of the facts
	bigClean  = bigFacts - 2*bigBlocks
	bigFDs    = "R: A1 -> A2"
)

func cleanKey(i int) string { return fmt.Sprintf("c%08d", i) }
func blockKey(b int) string { return fmt.Sprintf("k%08d", b) }

// bigFactsText renders the instance in the registration text format.
func bigFactsText() string {
	var sb strings.Builder
	sb.Grow(bigFacts * 16)
	for i := 0; i < bigClean; i++ {
		sb.WriteString(parse.FormatFact(rel.NewFact("R", cleanKey(i), "v")))
		sb.WriteByte('\n')
	}
	for b := 0; b < bigBlocks; b++ {
		for _, v := range []string{"v0", "v1"} {
			sb.WriteString(parse.FormatFact(rel.NewFact("R", blockKey(b), v)))
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// factQuery is the selective Boolean query asking whether the fact
// R(key, val) survives.
func factQuery(key, val string) string {
	return fmt.Sprintf("Ans() :- R('%s', '%s')", key, val)
}

// survival is the closed-form survival probability of a fact in a
// k-fact block (k = 1: a clean fact).
func survival(k int, singleton bool) (num, den int64) {
	if k == 1 {
		return 1, 1
	}
	if singleton {
		return 1, int64(k)
	}
	return 1, int64(k + 1)
}
