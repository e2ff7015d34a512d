package core_test

import (
	"fmt"
	"testing"

	"serviceordering/internal/baseline"
	"serviceordering/internal/core"
	"serviceordering/internal/gen"
)

// Incumbent-seed soundness: seeding rho through InitialIncumbent may only
// change how much work the proof takes, never the optimum it proves. The
// property is checked across every instance family (sink/source,
// precedence, proliferative, threaded).

type familyCase struct {
	name  string
	tweak func(*gen.Params)
}

func familyCorpus() []familyCase {
	return []familyCase{
		{name: "plain", tweak: func(*gen.Params) {}},
		{name: "sink-source", tweak: func(p *gen.Params) { p.WithSource, p.WithSink = true, true }},
		{name: "precedence", tweak: func(p *gen.Params) { p.PrecedenceEdges = 3 }},
		{name: "proliferative", tweak: func(p *gen.Params) { p.ProliferativeFraction = 0.3 }},
		{name: "threaded", tweak: func(p *gen.Params) { p.MultiThreadFraction = 0.4 }},
	}
}

func TestInitialIncumbentPreservesOptimum(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("incumbent-seed corpus is not -short")
	}
	for _, tc := range familyCorpus() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{5, 7, 9, 11} {
				for rep := 0; rep < 5; rep++ {
					seed := int64(3_000_000 + 1000*n + rep)
					p := gen.Default(n, seed)
					tc.tweak(&p)
					q, err := p.Generate()
					if err != nil {
						t.Fatalf("n=%d seed=%d: generate: %v", n, seed, err)
					}
					label := fmt.Sprintf("n=%d seed=%d", n, seed)

					cold, err := core.Optimize(q)
					if err != nil {
						t.Fatalf("%s: cold: %v", label, err)
					}
					if !cold.Optimal {
						t.Fatalf("%s: cold run did not prove optimality", label)
					}
					if err := cold.Plan.Validate(q); err != nil {
						t.Fatalf("%s: cold plan infeasible: %v", label, err)
					}
					if got := q.Cost(cold.Plan); got != cold.Cost {
						t.Fatalf("%s: cold plan costs %v, reported %v", label, got, cold.Cost)
					}

					// A deliberately suboptimal incumbent must not change
					// the optimum either: seed with the identity /
					// topological strawman.
					id, err := baseline.Identity(q)
					if err != nil {
						t.Fatalf("%s: identity: %v", label, err)
					}
					seedOpts := core.Options{InitialIncumbent: id.Plan}
					seeded, err := core.OptimizeWithOptions(q, seedOpts)
					if err != nil {
						t.Fatalf("%s: seeded: %v", label, err)
					}
					if !seeded.Optimal || seeded.Cost != cold.Cost {
						t.Fatalf("%s: suboptimal incumbent changed the optimum: %v != %v (incumbent cost %v)",
							label, seeded.Cost, cold.Cost, id.Cost)
					}
				}
			}
		})
	}
}

// TestIncumbentSeedNeverExpandsMoreWithoutVJumps checks the node-count
// claim behind seeding for the Lemma 1+2 subsystem: with V-pruning off, a
// search seeded with a feasible plan never expands more nodes than the
// cold search — Lemma 1 prunes monotonically in rho and Lemma 2 closures
// are rho-independent, so the seeded tree is a subset of the cold tree.
//
// With V-pruning ON the claim is deliberately NOT asserted: a seed can
// Lemma-1-prune a branch before it reaches a closure whose V-jump would
// have killed a whole cohort of later root pairs, so seeded node counts
// can (rarely, slightly) exceed cold ones. That interaction is inherent to
// the paper's Lemma 3, not a bug.
func TestIncumbentSeedNeverExpandsMoreWithoutVJumps(t *testing.T) {
	t.Parallel()
	for _, tc := range familyCorpus() {
		for _, n := range []int{8, 10} {
			seed := int64(4_000_000 + int64(n))
			p := gen.Default(n, seed)
			p.SelMin = 0.7
			tc.tweak(&p)
			q, err := p.Generate()
			if err != nil {
				t.Fatal(err)
			}
			greedy, err := baseline.GreedyMinEpsilon(q)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := core.OptimizeWithOptions(q, core.Options{DisableVPruning: true})
			if err != nil {
				t.Fatal(err)
			}
			seeded, err := core.OptimizeWithOptions(q, core.Options{DisableVPruning: true, InitialIncumbent: greedy.Plan})
			if err != nil {
				t.Fatal(err)
			}
			if seeded.Cost != cold.Cost {
				t.Fatalf("%s n=%d: seeded %v != cold %v", tc.name, n, seeded.Cost, cold.Cost)
			}
			if seeded.Stats.NodesExpanded > cold.Stats.NodesExpanded {
				t.Fatalf("%s n=%d: greedy seed expanded %d nodes, cold %d",
					tc.name, n, seeded.Stats.NodesExpanded, cold.Stats.NodesExpanded)
			}
		}
	}
}
