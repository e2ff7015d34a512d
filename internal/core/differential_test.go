package core

import (
	"fmt"
	"testing"

	"serviceordering/internal/baseline"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

// This file is the differential-testing backbone: on a seeded corpus of
// random instances — plain, sink/source-transfer, precedence-constrained,
// proliferative, multi-threaded — the branch-and-bound and the exhaustive
// baseline must report the same optimal cost. Plans may legitimately
// differ (ties), so agreement is asserted on cost, and every reported plan
// must be feasible and must actually cost what its search claims.

// diffCase is one instance family of the differential corpus.
type diffCase struct {
	name   string
	tweak  func(*gen.Params)
	counts int // instances per size
}

func differentialCorpus() []diffCase {
	return []diffCase{
		{name: "plain", tweak: func(*gen.Params) {}, counts: 10},
		{name: "sink", tweak: func(p *gen.Params) { p.WithSink = true }, counts: 8},
		{name: "source+sink", tweak: func(p *gen.Params) { p.WithSource, p.WithSink = true, true }, counts: 8},
		{name: "precedence", tweak: func(p *gen.Params) { p.PrecedenceEdges = 3 }, counts: 8},
		{name: "proliferative", tweak: func(p *gen.Params) { p.ProliferativeFraction = 0.3 }, counts: 8},
		{name: "threads", tweak: func(p *gen.Params) { p.MultiThreadFraction = 0.4 }, counts: 6},
		{name: "uniform", tweak: func(p *gen.Params) { p.Topology = gen.TopologyUniform }, counts: 6},
		{name: "clustered", tweak: func(p *gen.Params) { p.Topology = gen.TopologyClustered }, counts: 6},
	}
}

// TestDifferentialOptimalCost cross-checks ~200 seeded instances (n <= 9)
// between Optimize and the exhaustive oracle. Fixed seeds make every failure reproducible from the
// subtest name alone.
func TestDifferentialOptimalCost(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("differential corpus is not -short")
	}
	total := 0
	for _, tc := range differentialCorpus() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{3, 5, 7, 9} {
				for rep := 0; rep < tc.counts; rep++ {
					seed := int64(1_000_000 + 1000*n + rep)
					p := gen.Default(n, seed)
					tc.tweak(&p)
					q, err := p.Generate()
					if err != nil {
						t.Fatalf("n=%d seed=%d: generate: %v", n, seed, err)
					}
					checkAgreement(t, q, fmt.Sprintf("n=%d seed=%d", n, seed))
				}
			}
		})
		total += tc.counts * 4
	}
	if total < 200 {
		t.Fatalf("corpus holds %d instances, want >= 200", total)
	}
}

// checkAgreement asserts that the search and the exhaustive oracle report
// the same optimal cost on q and that each plan is feasible and priced
// honestly.
func checkAgreement(t *testing.T, q *model.Query, label string) {
	t.Helper()

	oracle, err := baseline.Exhaustive(q)
	if err != nil {
		t.Fatalf("%s: exhaustive: %v", label, err)
	}
	verifyResultPlan(t, q, oracle.Plan, oracle.Cost, label+": exhaustive")

	seq, err := Optimize(q)
	if err != nil {
		t.Fatalf("%s: sequential: %v", label, err)
	}
	if !seq.Optimal {
		t.Fatalf("%s: sequential search did not prove optimality", label)
	}
	verifyResultPlan(t, q, seq.Plan, seq.Cost, label+": sequential")
	if seq.Cost != oracle.Cost {
		t.Fatalf("%s: sequential cost %v != exhaustive cost %v (plans %v vs %v)",
			label, seq.Cost, oracle.Cost, seq.Plan, oracle.Plan)
	}
}

// verifyResultPlan checks feasibility and that the reported cost matches a
// from-scratch evaluation of the reported plan.
func verifyResultPlan(t *testing.T, q *model.Query, plan model.Plan, cost float64, label string) {
	t.Helper()
	if err := plan.Validate(q); err != nil {
		t.Fatalf("%s: infeasible plan %v: %v", label, plan, err)
	}
	if got := q.Cost(plan); got != cost {
		t.Fatalf("%s: reported cost %v but plan %v evaluates to %v", label, cost, plan, got)
	}
}

// TestDifferentialAblations runs a reduced corpus against every pruning
// rule disabled individually; the lemmas must not change the optimum they
// prove, only the work required to prove it.
func TestDifferentialAblations(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("differential corpus is not -short")
	}
	ablations := []struct {
		name string
		opts Options
	}{
		{"no-incumbent-pruning", Options{DisableIncumbentPruning: true}},
		{"no-closure", Options{DisableClosure: true}},
		{"no-v-pruning", Options{DisableVPruning: true}},
		{"loose-bounds", Options{LooseBounds: true}},
		{"strong-lower-bound", Options{StrongLowerBound: true}},
	}
	for _, ab := range ablations {
		ab := ab
		t.Run(ab.name, func(t *testing.T) {
			t.Parallel()
			for rep := 0; rep < 6; rep++ {
				seed := int64(2_000_000 + rep)
				p := gen.Default(7, seed)
				if rep%2 == 1 {
					p.WithSink = true
				}
				q, err := p.Generate()
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := baseline.Exhaustive(q)
				if err != nil {
					t.Fatal(err)
				}
				res, err := OptimizeWithOptions(q, ab.opts)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Cost != oracle.Cost {
					t.Fatalf("seed %d: ablation cost %v != exhaustive %v", seed, res.Cost, oracle.Cost)
				}
			}
		})
	}
}
