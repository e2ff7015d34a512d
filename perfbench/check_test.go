package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"serviceordering/internal/core"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// solvedEntry returns a solved entry of family at n=8 with its optimal
// plan.
func solvedEntry(t *testing.T, family string) (*entry, model.Plan) {
	t.Helper()
	p, err := familyParams(family, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.OptimizeWithOptions(q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &entry{family: family, n: 8, q: q, optimum: res.Cost}, res.Plan
}

// worsePlan returns a feasible plan of e's query costing more than
// factor × the optimum.
func worsePlan(t *testing.T, e *entry, factor float64) model.Plan {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		p := model.Plan(rng.Perm(e.n))
		if p.Validate(e.q) == nil && e.q.Cost(p) > factor*e.optimum {
			return p
		}
	}
	t.Fatalf("no feasible plan costs more than %v × the optimum", factor)
	return nil
}

func TestCheckOptimize(t *testing.T) {
	e, opt := solvedEntry(t, "precedence")
	if len(e.q.Precedence) == 0 {
		t.Fatal("precedence query has no edges")
	}
	edge := e.q.Precedence[0]
	violating := opt.Clone()
	violating[opt.Position(edge[0])], violating[opt.Position(edge[1])] = edge[1], edge[0]
	duplicate := opt.Clone()
	duplicate[0] = duplicate[1]
	worse := worsePlan(t, e, 1+2*maxRegret)

	answer := func(p model.Plan, cost float64, tier string) optimizeAnswer {
		return optimizeAnswer{Plan: p, Cost: cost, Optimal: tier == planner.TierExact, Tier: tier}
	}
	cases := []struct {
		name   string
		a      optimizeAnswer
		reject string // "" when the answer is correct
	}{
		{"exact optimum", answer(opt, e.optimum, planner.TierExact), ""},
		{"heuristic at the optimum", answer(opt, e.optimum, "heuristic/beam"), ""},
		{"wrong cost", answer(opt, e.optimum*1.01, planner.TierExact), "re-evaluates"},
		{"exact tier off the optimum", answer(worse, e.q.Cost(worse), planner.TierExact), "exact-tier cost"},
		{"heuristic regret past the gate", answer(worse, e.q.Cost(worse), "heuristic/greedy"), "regret"},
		{"precedence violated", answer(violating, e.q.Cost(violating), planner.TierExact), "infeasible"},
		{"not a permutation", answer(duplicate, e.optimum, planner.TierExact), "infeasible"},
		{"stale", optimizeAnswer{Plan: opt, Cost: e.optimum, Optimal: true, Tier: planner.TierExact, Stale: true}, "stale"},
		{"unknown tier", answer(opt, e.optimum, "guess"), "unknown tier"},
	}
	for _, c := range cases {
		err := checkOptimize(e, c.a)
		switch {
		case c.reject == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.reject != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.reject != "" && !strings.Contains(err.Error(), c.reject):
			t.Errorf("%s: rejected for %q, want a reason mentioning %q", c.name, err, c.reject)
		}
	}
}

func TestCheckExecute(t *testing.T) {
	e, opt := solvedEntry(t, "plain")
	surv, err := survivors(e.q, execTuples)
	if err != nil {
		t.Fatal(err)
	}
	e.survivors = surv
	if err := checkExecute(e, executeAnswer{Plan: opt, TuplesOut: surv}); err != nil {
		t.Errorf("correct execution rejected: %v", err)
	}
	if err := checkExecute(e, executeAnswer{Plan: opt, TuplesOut: surv, Degraded: []byte("null")}); err != nil {
		t.Errorf("execution with a null degraded marker rejected: %v", err)
	}
	if err := checkExecute(e, executeAnswer{Plan: opt, TuplesOut: surv + 1}); err == nil || !strings.Contains(err.Error(), "tuplesOut") {
		t.Errorf("wrong tuplesOut: got %v", err)
	}
	degraded := executeAnswer{Plan: opt, TuplesOut: surv, Degraded: []byte(`{"service":"ws0"}`)}
	if err := checkExecute(e, degraded); err == nil {
		t.Error("degraded execution accepted")
	}
	if err := checkExecute(e, executeAnswer{Plan: opt[1:], TuplesOut: surv}); err == nil {
		t.Error("infeasible plan accepted")
	}
}

// TestCheckOutcomeReadsTheWireAnswer runs a /v1/optimize envelope through
// keepOptimize and checkOutcome, as the load generator does.
func TestCheckOutcomeReadsTheWireAnswer(t *testing.T) {
	e, opt := solvedEntry(t, "plain")
	plan, err := json.Marshal(opt)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(cost float64) []byte {
		return []byte(fmt.Sprintf(`{"data":{"query":{"services":[]},"plan":%s,"cost":%v,"optimal":true,"cached":false,"tier":"exact"},"error":null}`+"\n", plan, cost))
	}
	if err := checkOutcome("/v1/optimize", e, outcome{status: 200, body: keepOptimize(answer(e.optimum))}); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	if err := checkOutcome("/v1/optimize", e, outcome{status: 200, body: keepOptimize(answer(2 * e.optimum))}); err == nil {
		t.Error("wrong cost accepted")
	}
	if err := checkOutcome("/v1/optimize", e, outcome{status: 429, body: keepOptimize(answer(e.optimum))}); err == nil {
		t.Error("429 accepted")
	}
}
