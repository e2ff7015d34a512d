// Package htier is the heuristic planning tier for instances the exact
// optimizer does not prove within its node budget, or cannot represent at
// all (past core.MaxServices). It runs a deterministic portfolio of cheap
// planners and returns the best plan any member found:
//
//   - the two greedy constructions (minimum-epsilon append and
//     nearest-neighbor by transfer cost);
//   - beam search over the prefix DAG, scored by the incremental
//     bottleneck epsilon of model.PrefixState and deduplicated by
//     (placed-set, last-service) — the same state identity the exact
//     core's dominance table exploits;
//   - bottleneck local search (swap + relocate steepest descent) refining
//     the best construction, budget-bounded so large n stays cheap.
//
// The planner runs the exact search first on every query up to
// core.MaxServices, under its own node budget, and calls Plan only when
// that budget runs out, passing the search's incumbent as Options.Seed.
// Past core.MaxServices it calls Plan directly. The portfolio proves
// nothing: its plans are never reported optimal.
//
// Every member is deterministic given (query, Options) — there is no
// randomized restart — so identical requests produce identical plans, a
// property the planner's caches and the differential test suite rely on.
// The portfolio's best is by construction no worse than any member
// (cross-heuristic dominance), and on small instances its regret against
// the exact optimum is measured and gated by the benchmark suite.
package htier

import (
	"fmt"
	"math"
	"time"

	"serviceordering/internal/baseline"
	"serviceordering/internal/model"
)

// Default budgets. They target single-digit milliseconds for n ≈ 128 on
// commodity hardware while keeping every stage meaningful at n = 256.
const (
	// DefaultBeamWidth is the beam width used when Options.BeamWidth is 0.
	DefaultBeamWidth = 8

	// DefaultBeamBudget caps the total number of candidate extensions the
	// beam scores (the beam's work is width · n², so the effective width
	// shrinks on very large instances to stay inside the budget).
	DefaultBeamBudget = 1 << 21

	// DefaultLocalSearchEvals caps the candidate plans the local-search
	// refinement evaluates. A full round costs about 2·n² evaluations, so
	// the default allows many rounds at n ≤ 64 and a couple at n = 256.
	DefaultLocalSearchEvals = 1 << 18
)

// Member names reported in Result.Source and Result.Members.
const (
	MemberSeed           = "seed"
	MemberGreedyEpsilon  = "greedy-epsilon"
	MemberGreedyTransfer = "greedy-transfer"
	MemberBeam           = "beam"
	MemberLocalSearch    = "local-search"
)

// Options tunes the portfolio. The zero value runs every member with the
// default budgets.
type Options struct {
	// BeamWidth is the beam width (0 = DefaultBeamWidth, negative
	// disables the beam member).
	BeamWidth int

	// BeamBudget caps total beam candidate scorings
	// (0 = DefaultBeamBudget, negative = unbounded). When the configured
	// width would exceed the budget at the instance's size, the effective
	// width is reduced (never below 1) rather than truncating the beam
	// mid-level, so results stay deterministic.
	BeamBudget int64

	// LocalSearchEvals caps the refinement's candidate evaluations
	// (0 = DefaultLocalSearchEvals, negative disables the refinement).
	LocalSearchEvals int64

	// Seed, when non-nil, joins the portfolio as a known-feasible
	// incumbent: the planner passes a stale generation's plan here on
	// adaptive replans, and the exact search's incumbent when that search
	// spent its node budget. It must be a valid, precedence-feasible plan
	// for the query.
	Seed model.Plan
}

func (o Options) beamWidth() int {
	if o.BeamWidth == 0 {
		return DefaultBeamWidth
	}
	return o.BeamWidth
}

func (o Options) beamBudget() int64 {
	if o.BeamBudget == 0 {
		return DefaultBeamBudget
	}
	return o.BeamBudget
}

func (o Options) localSearchEvals() int64 {
	if o.LocalSearchEvals == 0 {
		return DefaultLocalSearchEvals
	}
	return o.LocalSearchEvals
}

// Member is one portfolio member's outcome.
type Member struct {
	// Name identifies the member (Member* constants).
	Name string

	// Plan is the member's ordering (never nil for a listed member).
	Plan model.Plan

	// Cost is the bottleneck cost of Plan.
	Cost float64
}

// Stats describes the work the portfolio performed.
type Stats struct {
	// Elapsed is the portfolio's total wall-clock duration.
	Elapsed time.Duration
}

// Result is the portfolio's outcome.
type Result struct {
	// Plan is the best ordering any member found.
	Plan model.Plan

	// Cost is Plan's bottleneck cost under Eq. (1).
	Cost float64

	// Source names the member that produced Plan (ties go to the member
	// that ran first).
	Source string

	// Members lists every member that ran, in run order, with the cost
	// each achieved. Result.Cost is the minimum over Members — the
	// cross-heuristic dominance the benchmark suite gates on.
	Members []Member

	// Stats describes the work performed.
	Stats Stats
}

// Plan runs the portfolio on q and returns the best plan found. It
// validates q (and Options.Seed, when set) first; the returned plan is
// always a valid, precedence-feasible ordering.
func Plan(q *model.Query, opts Options) (Result, error) {
	start := time.Now()
	if err := q.Validate(); err != nil {
		return Result{}, fmt.Errorf("htier: invalid query: %w", err)
	}
	prec := q.CompiledPrecedence()

	res := Result{Cost: math.Inf(1)}
	consider := func(name string, plan model.Plan, cost float64) {
		res.Members = append(res.Members, Member{Name: name, Plan: plan, Cost: cost})
		if cost < res.Cost {
			res.Plan, res.Cost, res.Source = plan, cost, name
		}
	}

	if opts.Seed != nil {
		if err := opts.Seed.Validate(q); err != nil {
			return Result{}, fmt.Errorf("htier: seed plan: %w", err)
		}
		if !prec.AllowsPlan(opts.Seed) {
			return Result{}, fmt.Errorf("htier: seed plan violates precedence constraints")
		}
		seed := opts.Seed.Clone()
		consider(MemberSeed, seed, q.Cost(seed))
	}

	if r, err := baseline.GreedyMinEpsilon(q); err == nil {
		consider(MemberGreedyEpsilon, r.Plan, r.Cost)
	}
	if r, err := baseline.GreedyNearestNeighbor(q); err == nil {
		consider(MemberGreedyTransfer, r.Plan, r.Cost)
	}

	if opts.beamWidth() > 0 && q.N() >= 2 {
		if plan, cost := beamSearch(q, prec, opts.beamWidth(), opts.beamBudget()); plan != nil {
			consider(MemberBeam, plan, cost)
		}
	}

	if opts.localSearchEvals() > 0 && res.Plan != nil {
		if r, err := baseline.LocalSearchBudget(q, res.Plan, opts.localSearchEvals()); err == nil {
			consider(MemberLocalSearch, r.Plan, r.Cost)
		}
	}

	if res.Plan == nil {
		return Result{}, fmt.Errorf("htier: no member produced a feasible plan")
	}
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}
