package exper

import (
	"fmt"

	"serviceordering/internal/core"
	"serviceordering/internal/gen"
	"serviceordering/internal/robust"
	"serviceordering/internal/stats"
)

// RunF10Robustness (figure F10, extension — not in the paper) measures
// how far the optimal plan survives parameter drift: the fraction of
// perturbed instances on which it stays optimal, and its regret when it
// does not.
func RunF10Robustness(cfg Config) (*stats.Table, error) {
	n := 8
	instances := 6
	rcfg := robust.Config{Deltas: []float64{0.02, 0.05, 0.1, 0.2, 0.4}, Samples: 25, Seed: cfg.Seed}
	if cfg.Quick {
		instances = 2
		rcfg.Deltas = []float64{0.05, 0.2}
		rcfg.Samples = 8
	}
	table := stats.NewTable(
		"F10 (extension): optimal-plan stability under parameter drift",
		"perturbation delta", "still optimal (frac)", "mean regret", "max regret")
	table.Note = fmt.Sprintf("every c, sigma, t multiplied by U[1-d, 1+d]; %d instances x %d samples, exact re-optimization per sample", instances, rcfg.Samples)

	agg := make(map[float64][]robust.Point, len(rcfg.Deltas))
	for inst := 0; inst < instances; inst++ {
		p := gen.Default(n, cfg.Seed+int64(1700+inst))
		q, err := p.Generate()
		if err != nil {
			return nil, err
		}
		opt, err := core.Optimize(q)
		if err != nil {
			return nil, err
		}
		points, err := robust.Analyze(q, opt.Plan, rcfg)
		if err != nil {
			return nil, err
		}
		for _, pt := range points {
			agg[pt.Delta] = append(agg[pt.Delta], pt)
		}
	}
	for _, delta := range rcfg.Deltas {
		pts := agg[delta]
		var still, mean, maxR []float64
		for _, pt := range pts {
			still = append(still, pt.StillOptimal)
			mean = append(mean, pt.MeanRegret)
			maxR = append(maxR, pt.MaxRegret)
		}
		table.MustAddRow(
			stats.Fmt(delta),
			fmt.Sprintf("%.3f", stats.Mean(still)),
			fmt.Sprintf("%.4f", stats.Mean(mean)),
			fmt.Sprintf("%.4f", stats.Summarize(maxR).Max),
		)
	}
	return table, nil
}
