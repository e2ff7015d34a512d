// Planner walkthrough: serve repeated optimization traffic through the
// plan cache instead of re-running branch-and-bound per request.
//
// The example optimizes a query cold, replays it (cache hit, zero search
// work), replays a relabeled-but-isomorphic copy (still a hit: the
// canonical signature is invariant under service renumbering), and finally
// pushes a 32-instance batch through the worker pool.
//
//	go run ./examples/planner
package main

import (
	"context"
	"fmt"
	"log"

	"serviceordering"
)

func main() {
	ctx := context.Background()
	pl := serviceordering.NewPlanner(serviceordering.PlannerConfig{})

	// A credit-check pipeline: heterogeneous costs, selectivities, and
	// pairwise transfer costs (seconds/tuple).
	q, err := serviceordering.NewQuery(
		[]serviceordering.Service{
			{Name: "id-lookup", Cost: 0.4, Selectivity: 1.0},
			{Name: "fraud-score", Cost: 1.1, Selectivity: 0.7},
			{Name: "credit-check", Cost: 0.8, Selectivity: 0.5},
			{Name: "notify", Cost: 0.1, Selectivity: 0.9},
		},
		[][]float64{
			{0.00, 0.08, 0.30, 0.25},
			{0.08, 0.00, 0.12, 0.40},
			{0.30, 0.12, 0.00, 0.05},
			{0.25, 0.40, 0.05, 0.00},
		})
	if err != nil {
		log.Fatal(err)
	}

	// Request 1: cold — a real branch-and-bound runs.
	res, err := pl.Optimize(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold:      plan %-40s cost %.4f  cached=%v  nodes=%d\n",
		res.Plan.Render(q), res.Cost, res.Cached, res.Stats.NodesExpanded)
	fmt.Printf("signature: %s\n", res.Signature)

	// Request 2: identical query — served from the cache, no search.
	res2, err := pl.Optimize(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm:      plan %-40s cost %.4f  cached=%v  nodes=%d\n",
		res2.Plan.Render(q), res2.Cost, res2.Cached, res2.Stats.NodesExpanded)

	// Request 3: the same pipeline submitted by a client that numbered
	// its services differently. The canonical signature sees through the
	// relabeling, so this is a cache hit too; the returned plan is
	// expressed in the caller's own indices.
	relabeled, err := serviceordering.NewQuery(
		[]serviceordering.Service{
			{Name: "notify", Cost: 0.1, Selectivity: 0.9},
			{Name: "credit-check", Cost: 0.8, Selectivity: 0.5},
			{Name: "id-lookup", Cost: 0.4, Selectivity: 1.0},
			{Name: "fraud-score", Cost: 1.1, Selectivity: 0.7},
		},
		[][]float64{
			{0.00, 0.05, 0.25, 0.40},
			{0.05, 0.00, 0.30, 0.12},
			{0.25, 0.30, 0.00, 0.08},
			{0.40, 0.12, 0.08, 0.00},
		})
	if err != nil {
		log.Fatal(err)
	}
	res3, err := pl.Optimize(ctx, relabeled)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("relabeled: plan %-40s cost %.4f  cached=%v\n",
		res3.Plan.Render(relabeled), res3.Cost, res3.Cached)

	// A batch: 32 generated instances fanned across the worker pool,
	// results streamed back in input order.
	qs := make([]*serviceordering.Query, 32)
	for i := range qs {
		g, gerr := serviceordering.Generate(serviceordering.DefaultGenParams(6+i%3, int64(100+i)))
		if gerr != nil {
			log.Fatal(gerr)
		}
		qs[i] = g
	}
	batch := pl.OptimizeBatch(ctx, qs)
	solved := 0
	for _, r := range batch {
		if r.Err == nil {
			solved++
		}
	}
	fmt.Printf("batch:     %d/%d instances solved\n", solved, len(batch))

	s := pl.Stats()
	fmt.Printf("stats:     hits=%d misses=%d searches=%d evictions=%d entries=%d\n",
		s.Hits, s.Misses, s.Searches, s.Evictions, s.Entries)

	// The serving hot-path counters. Touches count clock touch bits
	// freshly set by cache reads (an entry is touched at most once per
	// eviction sweep, so touches far below hits means the cache is calm,
	// not thrashing); the latency quantiles come from the planner's
	// lock-free histogram and cover every request above — cold searches
	// and microsecond cache hits alike.
	fmt.Printf("hot path:  touches=%d evictions=%d\n", s.Touches, s.Evictions)
	fmt.Printf("latency:   p50=%.1fµs p90=%.1fµs p99=%.1fµs\n",
		s.OptimizeP50Micros, s.OptimizeP90Micros, s.OptimizeP99Micros)
}
