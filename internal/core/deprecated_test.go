package core

import (
	"fmt"
	"testing"

	"serviceordering/internal/gen"
)

// TestParallelMatchesSequential pins the deprecated OptimizeParallel: at
// every worker count it returns OptimizeWithOptions' plan, cost,
// optimality and node count, for a proving search and for one a node
// budget stops.
func TestParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	for fi, tc := range differentialCorpus() {
		p := gen.Default(11, int64(5_000_000+fi))
		tc.tweak(&p)
		p.SelMin = 0.85
		q, err := p.Generate()
		if err != nil {
			t.Fatalf("%s: generate: %v", tc.name, err)
		}
		for _, opts := range []Options{{}, {NodeLimit: 300}} {
			want, err := OptimizeWithOptions(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 4} {
				label := fmt.Sprintf("%s node limit %d workers %d", tc.name, opts.NodeLimit, workers)
				got, err := OptimizeParallel(q, opts, workers)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got.Cost != want.Cost || !got.Plan.Equal(want.Plan) || got.Optimal != want.Optimal ||
					got.Stats.NodesExpanded != want.Stats.NodesExpanded {
					t.Fatalf("%s: %v at %v (optimal=%v, %d nodes), OptimizeWithOptions %v at %v (optimal=%v, %d nodes)",
						label, got.Plan, got.Cost, got.Optimal, got.Stats.NodesExpanded,
						want.Plan, want.Cost, want.Optimal, want.Stats.NodesExpanded)
				}
			}
		}
	}
}
