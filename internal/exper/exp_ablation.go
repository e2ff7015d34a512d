package exper

import (
	"fmt"
	"time"

	"serviceordering/internal/baseline"
	"serviceordering/internal/core"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/stats"
)

// RunF7Ablation (figure F7) toggles each pruning rule independently and
// reports the search effort, quantifying what every lemma contributes.
// All configurations return the same optimal cost (verified by the test
// suite); only the work differs.
func RunF7Ablation(cfg Config) (*stats.Table, error) {
	ns := []int{9, 11}
	trials := 8
	if cfg.Quick {
		ns = []int{8}
		trials = 3
	}
	configs := []struct {
		name string
		opts core.Options
		// seedGreedy hands the search a greedy incumbent, tightening
		// Lemma 1 from the first node.
		seedGreedy bool
		// skipLargest: configurations without Lemma 1 enumerate nearly
		// the whole prefix tree, so they only run at the smallest N.
		skipLargest bool
	}{
		{name: "full algorithm (cold)", opts: core.Options{}},
		{name: "no dominance memo", opts: core.Options{DisableDominance: true}},
		{name: "no Lemma 3 (V-pruning)", opts: core.Options{DisableVPruning: true}},
		{name: "no Lemma 2 (closure)", opts: core.Options{DisableClosure: true}},
		{name: "loose bounds", opts: core.Options{LooseBounds: true}},
		{name: "+ strong lower bound", opts: core.Options{StrongLowerBound: true}},
		{name: "+ greedy incumbent seed", opts: core.Options{}, seedGreedy: true},
		{name: "no Lemma 1 (incumbent)", opts: core.Options{DisableIncumbentPruning: true}, skipLargest: true},
	}

	table := stats.NewTable(
		"F7: per-rule ablation (same optimum, different work)",
		"N", "configuration", "nodes (mean)", "time (ms, mean)", "closures", "v-jumps", "dom prunes")
	table.Note = "selectivities drawn from [0.6, 1] so pruning is under real pressure"

	for _, n := range ns {
		// Pre-generate the instances so every configuration sees the
		// same queries.
		queries := make([]*model.Query, 0, trials)
		for trial := 0; trial < trials; trial++ {
			p := gen.Default(n, cfg.Seed+int64(n*313+trial))
			p.Topology = topologyCycle[trial%len(topologyCycle)]
			p.SelMin = 0.6 // weak filters stress the pruning rules
			q, err := p.Generate()
			if err != nil {
				return nil, err
			}
			queries = append(queries, q)
		}

		for _, c := range configs {
			if c.skipLargest && n > ns[0] {
				continue
			}
			var nodes, closures, vjumps, domPrunes []float64
			var elapsed time.Duration
			for _, q := range queries {
				opts := c.opts
				if c.seedGreedy {
					greedy, err := baseline.GreedyMinEpsilon(q)
					if err != nil {
						return nil, err
					}
					opts.InitialIncumbent = greedy.Plan
				}
				res, err := core.OptimizeWithOptions(q, opts)
				if err != nil {
					return nil, err
				}
				nodes = append(nodes, float64(res.Stats.NodesExpanded))
				closures = append(closures, float64(res.Stats.Closures))
				vjumps = append(vjumps, float64(res.Stats.VJumps))
				domPrunes = append(domPrunes, float64(res.Stats.DominancePrunes))
				elapsed += res.Stats.Elapsed
			}
			table.MustAddRow(
				fmt.Sprintf("%d", n),
				c.name,
				stats.Fmt(stats.Mean(nodes)),
				msString(elapsed/time.Duration(len(queries))),
				stats.Fmt(stats.Mean(closures)),
				stats.Fmt(stats.Mean(vjumps)),
				stats.Fmt(stats.Mean(domPrunes)),
			)
		}
	}
	return table, nil
}
