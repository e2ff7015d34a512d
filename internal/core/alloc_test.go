package core_test

import (
	"fmt"
	"testing"

	"serviceordering/internal/core"
	"serviceordering/internal/gen"
)

// The dfs node loop must not allocate: every per-node structure (remaining
// set, growth products, incumbent plans, dominance-table traffic) lives in
// buffers allocated once per run. The tests pin that property by comparing
// the allocation count of a budget-truncated run against a full run of the
// same instance — the full run expands thousands more nodes, so any
// per-node allocation would separate the two counts. Both dominance modes
// are covered: the table is probed and published on every expanded node,
// so a single boxing or rehash on that path would fail the enabled case.

func TestSearchZeroAllocsPerNode(t *testing.T) {
	p := gen.Default(12, 20156)
	p.SelMin = 0.85
	q, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}

	for _, disableDom := range []bool{false, true} {
		t.Run(fmt.Sprintf("dominance=%v", !disableDom), func(t *testing.T) {
			run := func(nodeLimit int64) (allocs float64, nodes int64) {
				opts := core.Options{DisableDominance: disableDom, NodeLimit: nodeLimit}
				allocs = testing.AllocsPerRun(10, func() {
					res, err := core.OptimizeWithOptions(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					nodes = res.Stats.NodesExpanded
				})
				return allocs, nodes
			}

			shortAllocs, shortNodes := run(64)
			fullAllocs, fullNodes := run(0)
			// Dominance cuts this instance from ~33k to ~5k nodes; either
			// way thousands of extra expansions separate the two runs.
			if fullNodes < shortNodes+3_000 {
				t.Fatalf("instance too easy for the comparison: %d vs %d nodes", fullNodes, shortNodes)
			}
			// The runs differ by thousands of expanded nodes; their
			// allocation counts may differ only by noise (at most one count).
			if diff := fullAllocs - shortAllocs; diff > 1 {
				perNode := diff / float64(fullNodes-shortNodes)
				t.Fatalf("node loop allocates: full run %v allocs vs truncated %v (%.4f allocs/node over %d extra nodes)",
					fullAllocs, shortAllocs, perNode, fullNodes-shortNodes)
			}
			// The per-run setup itself must stay bounded (prep + search +
			// dominance table + result).
			if fullAllocs > 96 {
				t.Fatalf("per-run setup allocates %v times, want <= 96", fullAllocs)
			}
		})
	}
}

// The parallel path shares the prep and the dominance table across
// workers; per-worker setup may allocate, but the node loop itself must
// not. Guarded the same way, with the worker count held at 1 so node
// counts are deterministic.
func TestParallelSearchSteadyStateAllocs(t *testing.T) {
	p := gen.Default(12, 20156)
	p.SelMin = 0.85
	q, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}

	for _, disableDom := range []bool{false, true} {
		t.Run(fmt.Sprintf("dominance=%v", !disableDom), func(t *testing.T) {
			run := func(nodeLimit int64) (allocs float64) {
				opts := core.Options{DisableDominance: disableDom, NodeLimit: nodeLimit}
				return testing.AllocsPerRun(10, func() {
					if _, err := core.OptimizeParallel(q, opts, 1); err != nil {
						t.Fatal(err)
					}
				})
			}

			shortAllocs := run(64)
			fullAllocs := run(0)
			// Parallel incumbent publication clones the plan under the
			// shared lock, so allow a handful of improvement-driven
			// allocations — but nothing scaling with the thousands of extra
			// nodes.
			if diff := fullAllocs - shortAllocs; diff > 32 {
				t.Fatalf("parallel node loop allocates: full run %v vs truncated %v", fullAllocs, shortAllocs)
			}
		})
	}
}
