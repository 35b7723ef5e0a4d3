// Sensor-network cleaning with general FDs: Theorem 7.5 in action.
//
// Readings(sensor, zone, value): each sensor sits in one zone
// (sensor → zone) and each zone has one calibrated value
// (zone → value). Neither FD is a key — Readings has three attributes
// — so this sits in the regime where:
//
//   - M^ur admits no FPRAS at all (Theorem 5.1(3)),
//   - M^us is open and unimplemented beyond primary keys,
//   - M^uo has an efficient sampler but provably no useful Monte Carlo
//     bound (Proposition D.6), and
//   - M^{uo,1} — uniform operations restricted to single-fact deletes —
//     admits an FPRAS (Theorem 7.5): the headline positive result of
//     the paper beyond keys.
//
// Run with: go run ./examples/sensornet
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"strings"

	ocqa "repro"
)

func main() {
	// Synthesise noisy readings: 60 sensors over 12 zones; some sensors
	// are reported in two zones, some zones report two values.
	rng := rand.New(rand.NewSource(7))
	var b strings.Builder
	for s := 0; s < 60; s++ {
		zone := s % 12
		fmt.Fprintf(&b, "Readings(s%d, z%d, v%d)\n", s, zone, zone%5)
		if rng.Float64() < 0.25 { // conflicting zone assignment
			fmt.Fprintf(&b, "Readings(s%d, z%d, v%d)\n", s, (zone+1)%12, zone%5)
		}
		if rng.Float64() < 0.2 { // conflicting calibration value
			fmt.Fprintf(&b, "Readings(s%d, z%d, v%d)\n", s, zone, (zone+1)%5)
		}
	}
	inst, err := ocqa.NewInstanceFromText(b.String(),
		"Readings: A1 -> A2\nReadings: A2 -> A3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("readings: %d facts, class %v, consistent=%v\n\n",
		inst.DB().Len(), inst.Class(), inst.IsConsistent())

	q, err := ocqa.ParseQuery("Ans() :- Readings(x, 'z0', 'v0')")
	if err != nil {
		log.Fatal(err)
	}

	// 1. The API refuses the generators the paper proves (or leaves)
	//    intractable for FDs.
	for _, mode := range []ocqa.Mode{
		{Gen: ocqa.UniformRepairs},
		{Gen: ocqa.UniformSequences},
		{Gen: ocqa.UniformOperations},
	} {
		_, err := inst.PrepareLazy().Approximate(context.Background(), mode, q, ocqa.Tuple{}, ocqa.ApproxOptions{})
		switch {
		case err == nil:
			fmt.Printf("%-8s accepted\n", mode.Symbol())
		case errors.Is(err, ocqa.ErrNotApproximable):
			fmt.Printf("%-8s refused: %v\n", mode.Symbol(), err)
		default:
			log.Fatal(err)
		}
	}

	// 2. The singleton restriction is the way through (Theorem 7.5).
	mode := ocqa.Mode{Gen: ocqa.UniformOperations, Singleton: true}
	status, cite := ocqa.Approximability(mode, inst.Class())
	fmt.Printf("\n%s under %v: %v [%s]\n", mode.Symbol(), inst.Class(), status, cite)
	est, err := inst.PrepareLazy().Approximate(context.Background(), mode, q, ocqa.Tuple{}, ocqa.ApproxOptions{
		Epsilon: 0.05, Delta: 0.01, Seed: 13,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P[zone z0 still reports v0 after repairing] ≈ %.4f (%d samples)\n",
		est.Value, est.Samples)

	// 3. The heuristic escape hatch: M^uo with pair deletions can still
	//    be *sampled* (Lemma 7.2 needs no keys) — just without a
	//    guarantee; Force acknowledges that.
	estF, err := inst.PrepareLazy().Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformOperations}, q, ocqa.Tuple{},
		ocqa.ApproxOptions{Epsilon: 0.05, Delta: 0.01, Seed: 17, Force: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forced M^uo estimate (no guarantee):       ≈ %.4f (%d samples)\n",
		estF.Value, estF.Samples)
}
