package exper

import (
	"context"
	"fmt"
	"time"

	"serviceordering/internal/baseline"
	"serviceordering/internal/core"
	"serviceordering/internal/exec"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/stats"
)

// RunF8Choreography (figure F8) runs plans as the paper's decentralized
// pipeline on the production executor, every service call sleeping its
// modeled cost (exec.RunWallClock), and shows that the modeled cost
// ordering carries over to wall-clock time: the B&B plan beats greedy and
// trounces the worst ordering, in-process and over the executor's HTTP
// service wire.
func RunF8Choreography(cfg Config) (*stats.Table, error) {
	n := 6
	p := gen.Default(n, cfg.Seed+808)
	p.Heterogeneity = 16
	q, err := p.Generate()
	if err != nil {
		return nil, err
	}

	opt, err := core.Optimize(q)
	if err != nil {
		return nil, err
	}
	greedy, err := baseline.GreedyNearestNeighbor(q)
	if err != nil {
		return nil, err
	}
	worstPlan, worstCost := worstOrdering(q)

	runCfg := exec.WallClockConfig{Tuples: 400, BlockSize: 16, QueueBlocks: exec.DefaultQueueBlocks, UnitDuration: 150 * time.Microsecond}
	if cfg.Quick {
		runCfg.Tuples = 150
		runCfg.UnitDuration = 80 * time.Microsecond
	}

	type entry struct {
		label string
		plan  model.Plan
		cost  float64
		http  bool
	}
	entries := []entry{
		{label: "bnb-optimal / in-proc", plan: opt.Plan, cost: opt.Cost},
		{label: "greedy-nn / in-proc", plan: greedy.Plan, cost: greedy.Cost},
		{label: "worst / in-proc", plan: worstPlan, cost: worstCost},
		{label: "bnb-optimal / http", plan: opt.Plan, cost: opt.Cost, http: true},
	}
	if cfg.Quick {
		entries = entries[:3]
	}

	table := stats.NewTable(
		"F8: wall-clock choreography execution (production executor, modeled costs slept)",
		"plan / transport", "modeled cost", "makespan (ms)", "per-tuple (us)", "vs optimal")
	table.Note = fmt.Sprintf("%d tuples, %v per cost unit; 'vs optimal' is the makespan ratio", runCfg.Tuples, runCfg.UnitDuration)

	var optimalMakespan time.Duration
	for i, e := range entries {
		runCfg.HTTP = e.http
		rep, err := exec.RunWallClock(context.Background(), q, e.plan, runCfg)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			optimalMakespan = rep.Makespan
		}
		ratio := float64(rep.Makespan) / float64(optimalMakespan)
		table.MustAddRow(
			e.label,
			stats.Fmt(e.cost),
			msString(rep.Makespan),
			stats.Fmt(float64(rep.MeasuredPeriod.Microseconds())),
			fmt.Sprintf("%.2f", ratio),
		)
	}
	return table, nil
}

// worstOrdering exhaustively maximizes the bottleneck cost (the
// adversarial baseline for F8); the instance is small enough for direct
// enumeration.
func worstOrdering(q *model.Query) (model.Plan, float64) {
	n := q.N()
	var worst model.Plan
	worstCost := -1.0
	plan := make(model.Plan, 0, n)
	used := make([]bool, n)
	var recurse func()
	recurse = func() {
		if len(plan) == n {
			if c := q.Cost(plan); c > worstCost {
				worstCost = c
				worst = plan.Clone()
			}
			return
		}
		for s := 0; s < n; s++ {
			if used[s] {
				continue
			}
			used[s] = true
			plan = append(plan, s)
			recurse()
			plan = plan[:len(plan)-1]
			used[s] = false
		}
	}
	recurse()
	return worst, worstCost
}
