// Package exper drives the evaluation suite: one experiment per table or
// figure (All lists them; README.md documents them), each producing a
// plain-text/markdown table.
// The brief announcement itself contains no numeric evaluation — it claims
// the algorithm "appears to be particularly efficient" based on the
// companion technical report — so this suite reproduces those claims:
// exactness (T1), efficiency against exhaustive search (F1/F2), the value
// of decentralized-aware optimization as communication heterogeneity grows
// (F3), validation of the bottleneck cost model against simulated and real
// pipelined execution (F4/F8), sensitivity sweeps (F5), the bottleneck-TSP
// reduction (T2), heuristic scalability (F6), and a per-lemma ablation
// (F7).
//
// Every experiment is deterministic given Config.Seed.
package exper

import (
	"fmt"
	"io"
	"time"

	"serviceordering/internal/stats"
)

// Config selects the sweep size of every experiment.
type Config struct {
	// Quick shrinks all sweeps to a few seconds total for CI; the full
	// suite takes a few minutes.
	Quick bool

	// Seed drives instance generation.
	Seed int64
}

// DefaultConfig returns the full-suite configuration (dqbench without
// -quick).
func DefaultConfig() Config { return Config{Seed: 1} }

// Experiment is one reproducible table/figure.
type Experiment struct {
	// ID names the table or figure ("T1", "F3", ...); Title is the
	// headline claim.
	ID    string
	Title string

	// Run executes the sweep and returns the result table.
	Run func(cfg Config) (*stats.Table, error)
}

// All returns the experiments in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "T1", Title: "B&B always returns the exhaustive optimum", Run: RunT1Optimality},
		{ID: "F1", Title: "optimization time vs N: B&B vs exhaustive", Run: RunF1TimeVsN},
		{ID: "F2", Title: "pruning effectiveness: nodes explored vs n!", Run: RunF2NodesVsN},
		{ID: "F3", Title: "plan quality vs communication heterogeneity", Run: RunF3Heterogeneity},
		{ID: "F4", Title: "Eq.(1) predicts simulated response time", Run: RunF4ModelValidation},
		{ID: "F5", Title: "sensitivity to selectivity range", Run: RunF5Selectivity},
		{ID: "T2", Title: "bottleneck-TSP reduction solved exactly by B&B", Run: RunT2BTSP},
		{ID: "F6", Title: "heuristic scalability beyond exact reach", Run: RunF6Heuristics},
		{ID: "F7", Title: "ablation: contribution of each pruning rule", Run: RunF7Ablation},
		{ID: "F8", Title: "decentralized wall-clock: optimized vs naive plans", Run: RunF8Choreography},
		{ID: "F9", Title: "extension: parallel B&B speedup", Run: RunF9Parallel},
		{ID: "F10", Title: "extension: optimal-plan stability under drift", Run: RunF10Robustness},
	}
}

// RunAll executes every experiment, rendering tables to w as they finish.
// When markdown is true the tables are rendered as markdown.
func RunAll(w io.Writer, cfg Config, markdown bool) error {
	for _, e := range All() {
		started := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("exper: %s: %w", e.ID, err)
		}
		if markdown {
			if err := table.Markdown(w); err != nil {
				return fmt.Errorf("exper: rendering %s: %w", e.ID, err)
			}
		} else {
			if err := table.Render(w); err != nil {
				return fmt.Errorf("exper: rendering %s: %w", e.ID, err)
			}
		}
		if _, err := fmt.Fprintf(w, "(%s completed in %v)\n\n", e.ID, time.Since(started).Round(time.Millisecond)); err != nil {
			return err
		}
	}
	return nil
}

// factorial returns n! as float64 (exact for the Ns used here).
func factorial(n int) float64 {
	f := 1.0
	for i := 2; i <= n; i++ {
		f *= float64(i)
	}
	return f
}

// msString renders a duration as fractional milliseconds.
func msString(d time.Duration) string {
	return stats.Fmt(float64(d.Microseconds()) / 1000)
}
