// Data integration at scale: approximate CQA over a multi-source
// feed with thousands of conflicting claims.
//
// The scenario follows the paper's motivation (Section 1): several
// scrapers report (product, price) pairs; the key product → price is
// violated wherever scrapers disagree. Exact operational CQA is
// ♯P-hard, but with primary keys every uniform generator admits an
// FPRAS (Theorems 5.1(2), 6.1(2), 7.1(2)) — so we *estimate* the
// probability that a product's price is in the advertised sale range,
// with an explicit (ε, δ) guarantee, in milliseconds.
//
// Run with: go run ./examples/dataintegration
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	ocqa "repro"
)

func main() {
	if err := run(400, 0.05, 0.01, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the whole scenario at the given scale and guarantee;
// main uses the full 400-product feed, the smoke test a reduced one.
func run(products int, eps, delta float64, out io.Writer) error {
	// Synthesise the integrated feed: 1–4 claims per product.
	rng := rand.New(rand.NewSource(2022))
	var b strings.Builder
	for p := 0; p < products; p++ {
		claims := 1 + rng.Intn(4)
		for c := 0; c < claims; c++ {
			price := 10 + rng.Intn(6)
			if p%7 == 0 && c == 0 {
				price = 9 // the advertised sale price
			}
			fmt.Fprintf(&b, "Price(p%d, %d)\n", p, price)
		}
	}
	inst, err := ocqa.NewInstanceFromText(b.String(), "Price: A1 -> A2")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "integrated feed: %d facts, class %v, consistent=%v\n",
		inst.DB().Len(), inst.Class(), inst.IsConsistent())
	fmt.Fprintf(out, "candidate repairs: %s (exact enumeration is hopeless)\n\n",
		inst.CountRepairs(false))

	q, err := ocqa.ParseQuery("Ans() :- Price(x, '9')")
	if err != nil {
		return err
	}

	// The paper's approximability matrix, consulted before sampling.
	for _, mode := range []ocqa.Mode{
		{Gen: ocqa.UniformRepairs},
		{Gen: ocqa.UniformSequences},
		{Gen: ocqa.UniformOperations},
	} {
		status, cite := ocqa.Approximability(mode, inst.Class())
		fmt.Fprintf(out, "%-8s under %v: %v [%s]\n", mode.Symbol(), inst.Class(), status, cite)
	}
	fmt.Fprintln(out)

	// Estimate P("some sale price survives repairing") under each
	// generator. The three semantics genuinely differ: uniform repairs
	// weighs outcomes, uniform sequences weighs derivations, uniform
	// operations weighs local choices.
	for _, mode := range []ocqa.Mode{
		{Gen: ocqa.UniformRepairs},
		{Gen: ocqa.UniformSequences},
		{Gen: ocqa.UniformOperations},
	} {
		start := time.Now()
		est, err := inst.PrepareLazy().Approximate(context.Background(), mode, q, ocqa.Tuple{}, ocqa.ApproxOptions{
			Epsilon: eps, Delta: delta, Seed: 7,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-8s P[sale price survives] ≈ %.4f  (ε=%.2f δ=%.2f, %d samples, %v)\n",
			mode.Symbol(), est.Value, est.Epsilon, est.Delta, est.Samples,
			time.Since(start).Round(time.Millisecond))
	}

	// Per-product answers for a conflicted product: which prices could
	// product p0 have, and how likely is each?
	fmt.Fprintln(out, "\nper-price probabilities for product p0 (M^ur):")
	qp, err := ocqa.ParseQuery("Ans(price) :- Price('p0', price)")
	if err != nil {
		return err
	}
	answers, _, err := inst.PrepareLazy().ApproximateAnswers(context.Background(), ocqa.Mode{Gen: ocqa.UniformRepairs}, qp,
		ocqa.ApproxOptions{Epsilon: 2 * eps, Delta: 5 * delta, Seed: 11})
	if err != nil {
		return err
	}
	for _, a := range answers {
		fmt.Fprintf(out, "  price %-4v ≈ %.4f\n", a.Tuple, a.Estimate.Value)
	}
	return nil
}
