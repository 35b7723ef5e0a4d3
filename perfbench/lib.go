package main

// Library-level timings for the traced run: direct calls to the
// parse, core, sampler, cq and store packages' public functions on the
// workload's own inputs, after the traffic has stopped.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	ocqa "repro"
	"repro/internal/parse"
	"repro/internal/rel"
	"repro/internal/sampler"
	"repro/internal/store"
)

// libInput is what one workload registers and queries.
type libInput struct {
	facts  []string // instance texts, in registration order
	fds    []string
	query  []string // per instance: the query its draws are evaluated on
	insert []string // per instance: a fact to insert ("" to skip)
}

const (
	libDraws   = 200 // draws timed per primary-key instance
	libInserts = 3   // core inserts and WAL appends timed per instance
)

// libTimings returns the library metrics, each a per-set-up total
// (parse, build, prepare) or a per-call mean (draw, evaluate, apply,
// append).
func libTimings(in libInput, scratch string) (map[string]float64, error) {
	var parseT, buildT, prepT, drawT, evalT, applyT, appendT time.Duration
	var draws, evals, applies, appends int
	rng := rand.New(rand.NewSource(1))
	st, err := store.Open(store.Options{Dir: filepath.Join(scratch, "libstore"), Fsync: true, CompactEvery: -1})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(scratch, "libstore"))
	defer st.Close()
	for i, text := range in.facts {
		t0 := time.Now()
		db, sch, err := parse.ParseDatabase(text)
		if err != nil {
			return nil, err
		}
		sigma, err := parse.ParseFDs(in.fds[i], sch)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		inst := ocqa.NewInstance(db, sigma)
		t2 := time.Now()
		prep := inst.Prepare()
		t3 := time.Now()
		parseT += t1.Sub(t0)
		buildT += t2.Sub(t1)
		prepT += t3.Sub(t2)

		q, err := parse.ParseQuery(in.query[i])
		if err != nil {
			return nil, err
		}
		if bs, err := sampler.NewBlockSampler(inst.Core()); err == nil {
			subsets := make([]rel.Subset, libDraws)
			t0 := time.Now()
			for k := range subsets {
				subsets[k] = bs.SampleRepair(rng, false)
			}
			drawT += time.Since(t0)
			t0 = time.Now()
			for _, s := range subsets {
				q.EntailsIn(db, s)
			}
			evalT += time.Since(t0)
			draws += libDraws
			evals += libDraws
		}
		if in.insert[i] == "" {
			continue
		}
		f, err := parse.ParseFact(in.insert[i])
		if err != nil {
			return nil, err
		}
		for k := 0; k < libInserts; k++ {
			t0 := time.Now()
			if _, _, err := prep.ApplyInsert(f); err != nil {
				return nil, fmt.Errorf("core insert: %w", err)
			}
			applyT += time.Since(t0)
			applies++
		}
		id := fmt.Sprintf("lib%d", i)
		if err := st.LogRegister(id, "", time.Now(), db, sigma); err != nil {
			return nil, err
		}
		for k := 0; k < libInserts; k++ {
			g := rel.NewFact(f.Rel, append([]string{fmt.Sprintf("%s-%d", f.Args[0], k)}, f.Args[1:]...)...)
			t0 := time.Now()
			if err := st.LogInsertFact(id, g); err != nil {
				return nil, fmt.Errorf("WAL append: %w", err)
			}
			appendT += time.Since(t0)
			appends++
		}
	}
	mean := func(d time.Duration, n int, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n) / float64(unit)
	}
	return map[string]float64{
		"parse.db_ms":     ms(parseT),
		"core.build_ms":   ms(buildT),
		"core.prepare_ms": ms(prepT),
		"sampler.draw_us": mean(drawT, draws, time.Microsecond),
		"cq.eval_us":      mean(evalT, evals, time.Microsecond),
		"core.apply_ms":   mean(applyT, applies, time.Millisecond),
		"store.append_ms": mean(appendT, appends, time.Millisecond),
	}, nil
}
