package serviceordering_test

import (
	"math"
	"strings"
	"testing"

	"serviceordering"
)

func fixtureQuery(t *testing.T) *serviceordering.Query {
	t.Helper()
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
	return q
}

func TestFacadeTracing(t *testing.T) {
	q := fixtureQuery(t)
	rec, err := serviceordering.NewTraceRecorder(128)
	if err != nil {
		t.Fatalf("NewTraceRecorder: %v", err)
	}
	if _, err := serviceordering.OptimizeWithOptions(q, serviceordering.Options{Tracer: rec}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if rec.Total() == 0 {
		t.Fatalf("no trace events recorded")
	}
	var b strings.Builder
	if err := rec.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(b.String(), "pair-start") {
		t.Errorf("trace output missing pair-start")
	}
}

func TestFacadeCalibration(t *testing.T) {
	q := fixtureQuery(t)
	cfg := serviceordering.DefaultSimConfig()
	cfg.Tuples = 3000
	fitted, err := serviceordering.CalibrateFromSim(q, cfg)
	if err != nil {
		t.Fatalf("CalibrateFromSim: %v", err)
	}
	for i := range q.Services {
		if rel := math.Abs(fitted.Services[i].Cost/q.Services[i].Cost - 1); rel > 0.02 {
			t.Errorf("service %d cost fitted %v, truth %v", i, fitted.Services[i].Cost, q.Services[i].Cost)
		}
	}
	if plans := serviceordering.CoveringPlans(3); len(plans) < 2 {
		t.Errorf("CoveringPlans(3) = %v", plans)
	}
	if _, err := serviceordering.NewEstimator(3); err != nil {
		t.Errorf("NewEstimator: %v", err)
	}
}

func TestFacadeRobustness(t *testing.T) {
	q := fixtureQuery(t)
	res, err := serviceordering.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	cfg := serviceordering.RobustConfig{Deltas: []float64{0.05}, Samples: 5, Seed: 1}
	points, err := serviceordering.AnalyzeRobustness(q, res.Plan, cfg)
	if err != nil {
		t.Fatalf("AnalyzeRobustness: %v", err)
	}
	if len(points) != 1 || points[0].StillOptimal < 0 {
		t.Fatalf("points = %+v", points)
	}
	if def := serviceordering.DefaultRobustConfig(); len(def.Deltas) == 0 {
		t.Errorf("DefaultRobustConfig has no deltas")
	}
}

func TestFacadeExplain(t *testing.T) {
	q := fixtureQuery(t)
	analysis, err := q.Explain(serviceordering.Plan{1, 0, 2})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if analysis.BestSwapPos != 0 {
		t.Errorf("BestSwapPos = %d, want 0", analysis.BestSwapPos)
	}
	var b strings.Builder
	if err := analysis.Render(q, &b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(b.String(), "improvement available") {
		t.Errorf("analysis output missing swap suggestion")
	}
}
