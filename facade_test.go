package serviceordering_test

import (
	"context"
	"math"
	"testing"
	"time"

	"serviceordering"
)

// TestFacadeEndToEnd drives the whole public API surface: build, optimize,
// compare against baselines, simulate, and execute.
func TestFacadeEndToEnd(t *testing.T) {
	q, err := serviceordering.NewQuery(
		[]serviceordering.Service{
			{Name: "a", Cost: 2, Selectivity: 0.5},
			{Name: "b", Cost: 1, Selectivity: 0.8},
			{Name: "c", Cost: 4, Selectivity: 0.25},
		},
		[][]float64{
			{0, 1, 2},
			{3, 0, 1},
			{2, 5, 0},
		})
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}

	res, err := serviceordering.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !res.Optimal || math.Abs(res.Cost-2.5) > 1e-9 {
		t.Fatalf("Optimize = (%v, cost %v, optimal %v)", res.Plan, res.Cost, res.Optimal)
	}

	baselines := serviceordering.Baselines()
	ex, ok := baselines["exhaustive"]
	if !ok {
		t.Fatalf("exhaustive baseline missing; have %d baselines", len(baselines))
	}
	_, cost, err := ex(q)
	if err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	if math.Abs(cost-res.Cost) > 1e-9 {
		t.Fatalf("facade baseline disagrees with optimizer: %v vs %v", cost, res.Cost)
	}

	simCfg := serviceordering.DefaultSimConfig()
	simCfg.Tuples = 5000
	simRep, err := serviceordering.Simulate(q, res.Plan, simCfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if rel := math.Abs(simRep.MeasuredPeriod/simRep.PredictedBottleneck - 1); rel > 0.05 {
		t.Fatalf("simulated period off by %.3f", rel)
	}

	wcCfg := serviceordering.WallClockConfig{Tuples: 5000, BlockSize: 16, QueueBlocks: 4}
	wcRep, err := serviceordering.Execute(context.Background(), q, res.Plan, wcCfg)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if wcRep.TuplesOut != simRep.TuplesOut {
		t.Fatalf("Execute emitted %d tuples, the simulator %d", wcRep.TuplesOut, simRep.TuplesOut)
	}
}

func TestFacadeGenerate(t *testing.T) {
	p := serviceordering.DefaultGenParams(6, 9)
	q, err := serviceordering.Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if q.N() != 6 {
		t.Fatalf("N = %d", q.N())
	}
	res, err := serviceordering.OptimizeWithOptions(q, serviceordering.Options{StrongLowerBound: true})
	if err != nil {
		t.Fatalf("OptimizeWithOptions: %v", err)
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	bd := q.CostBreakdown(res.Plan)
	if math.Abs(bd.Cost-res.Cost) > 1e-9 {
		t.Fatalf("breakdown cost %v != result cost %v", bd.Cost, res.Cost)
	}
}

func TestFacadePlanner(t *testing.T) {
	p := serviceordering.NewPlanner(serviceordering.PlannerConfig{})
	q, err := serviceordering.Generate(serviceordering.DefaultGenParams(7, 21))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ctx := context.Background()

	miss, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	direct, err := serviceordering.Optimize(q)
	if err != nil {
		t.Fatalf("direct Optimize: %v", err)
	}
	if miss.Cost != direct.Cost {
		t.Fatalf("planner cost %v != direct cost %v", miss.Cost, direct.Cost)
	}

	hit, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatalf("Optimize (hit): %v", err)
	}
	if !hit.Cached || hit.Stats.NodesExpanded != 0 {
		t.Fatalf("second request not a zero-work cache hit: %+v", hit)
	}

	batch := p.OptimizeBatch(ctx, []*serviceordering.Query{q, q, q})
	for i, r := range batch {
		if r.Err != nil {
			t.Fatalf("batch instance %d: %v", i, r.Err)
		}
		if r.Cost != direct.Cost {
			t.Fatalf("batch instance %d cost %v, want %v", i, r.Cost, direct.Cost)
		}
	}

	stats := p.Stats()
	if stats.Hits == 0 || stats.Searches != 1 {
		t.Fatalf("stats = %+v, want cache hits and exactly one search", stats)
	}
}

// TestFacadeAdaptive wires the adaptive-loop facade end to end: build a
// registry, attach it to a planner, and derive a drift threshold from a
// regret budget.
func TestFacadeAdaptive(t *testing.T) {
	reg, err := serviceordering.NewAdaptiveRegistry(serviceordering.AdaptiveConfig{})
	if err != nil {
		t.Fatalf("NewAdaptiveRegistry: %v", err)
	}
	p := serviceordering.NewPlanner(serviceordering.PlannerConfig{Adaptive: reg})
	q, err := serviceordering.Generate(serviceordering.DefaultGenParams(6, 33))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	res, err := p.Optimize(context.Background(), q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	cfg := serviceordering.RobustConfig{Deltas: []float64{0.01, 0.05}, Samples: 10, Seed: 1}
	delta, err := serviceordering.DriftThresholdFromRegret(q, res.Plan, 0.01, cfg)
	if err != nil {
		t.Fatalf("DriftThresholdFromRegret: %v", err)
	}
	if delta <= 0 {
		t.Fatalf("derived drift threshold %v, want > 0", delta)
	}
}

// TestFacadeExecutor wires the streaming-executor facade end to end:
// optimize a query, run the plan over a fault-injected mock backend, and
// check the typed-degradation contract.
func TestFacadeExecutor(t *testing.T) {
	q, err := serviceordering.NewQuery(
		[]serviceordering.Service{
			{Name: "a", Cost: 2, Selectivity: 0.5},
			{Name: "b", Cost: 1, Selectivity: 0.8},
		},
		[][]float64{{0, 1}, {3, 0}})
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}
	res, err := serviceordering.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}

	mock := serviceordering.NewMockBackend(7)
	mock.SetQuery(q)
	ex := serviceordering.NewExecutor(mock, serviceordering.ExecOptions{BlockSize: 32})
	out, err := ex.Execute(context.Background(), q, res.Plan, serviceordering.ExecTuples(200))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if out.Degraded != nil || out.TuplesIn != 200 || out.TuplesOut == 0 {
		t.Fatalf("clean execution came back wrong: %+v", out)
	}

	// The same backend behind a total-blackout fault plan degrades with a
	// typed marker instead of erroring.
	faulty := serviceordering.InjectFaults(mock, serviceordering.FaultPlan{
		Seed:     7,
		Services: map[string]serviceordering.Faults{"a": {ErrorRate: 1}},
	})
	ex2 := serviceordering.NewExecutor(faulty, serviceordering.ExecOptions{
		BlockSize:        32,
		RetryBudget:      2,
		RetryBase:        time.Millisecond,
		BreakerThreshold: -1,
	})
	out2, err := ex2.Execute(context.Background(), q, res.Plan, serviceordering.ExecTuples(50))
	if err != nil {
		t.Fatalf("faulty Execute: %v", err)
	}
	if out2.Degraded == nil || out2.Degraded.Service != "a" {
		t.Fatalf("fault plan did not degrade at service a: %+v", out2.Degraded)
	}
	var st serviceordering.ExecStats = ex2.Stats()
	if st.DegradedResults != 1 || st.Retries == 0 {
		t.Fatalf("stats = %+v, want 1 degraded result with retries", st)
	}
}
