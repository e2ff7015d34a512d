package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"serviceordering/internal/model"
)

// precQuery builds a query with explicit transfer, source transfer, and
// precedence edges (the failover tests need all three).
func precQuery(t *testing.T, svcs []model.Service, transfer [][]float64, source []float64, prec [][2]int) *model.Query {
	t.Helper()
	q := &model.Query{Services: svcs, Transfer: transfer, SourceTransfer: source, Precedence: prec}
	if err := q.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return q
}

// truthOutput runs plan on a clean same-seeded mock: the oracle a rescued
// run's output must match exactly.
func truthOutput(t *testing.T, q *model.Query, plan model.Plan, seed int64, n int) map[Tuple]bool {
	t.Helper()
	ex := New(mockFor(q, seed), Options{})
	res, err := ex.Execute(context.Background(), q, plan, Tuples(n))
	if err != nil {
		t.Fatalf("truth Execute: %v", err)
	}
	if res.Degraded != nil {
		t.Fatalf("truth run degraded: %v", res.Degraded)
	}
	set := make(map[Tuple]bool, len(res.Output))
	for _, tp := range res.Output {
		set[tp] = true
	}
	return set
}

func sameTupleSet(got []Tuple, want map[Tuple]bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d tuples, want %d", len(got), len(want))
	}
	for _, tp := range got {
		if !want[tp] {
			return fmt.Errorf("tuple %d not in the true answer", tp)
		}
	}
	return nil
}

// TestFailoverRescuesFullAnswer: a mid-plan service fails past the retry
// budget, failover re-solves the residual with it deferred last, and by
// the time the rescue pipeline reaches it the service has healed — the
// result is the FULL answer, not a degraded subset.
func TestFailoverRescuesFullAnswer(t *testing.T) {
	q := testQuery(t,
		model.Service{Name: "a", Cost: 0.001, Selectivity: 1},
		model.Service{Name: "b", Cost: 0.002, Selectivity: 0.5},
		model.Service{Name: "c", Cost: 0.001, Selectivity: 0.8},
	)
	plan := identityPlan(3)
	const n = 200
	const seed = 11
	truth := truthOutput(t, q, plan, seed, n)

	fb := newFlaky(mockFor(q, seed))
	fb.failFor = func(service string, idx int) error {
		if service == "b" && idx < 2 {
			return fmt.Errorf("transient outage %d", idx)
		}
		return nil
	}
	ex := New(fb, Options{
		BlockSize:           256, // one block: the whole stream diverts
		RetryBudget:         -1,  // first failure escalates immediately
		BreakerThreshold:    -1,
		Failover:            true,
		FailoverRetryBudget: 4,
		RetryBase:           100 * time.Microsecond,
	})
	res, err := ex.Execute(context.Background(), q, plan, Tuples(n))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Degraded != nil {
		t.Fatalf("degraded despite rescue: %v", res.Degraded)
	}
	fo := res.Failover
	if fo == nil || !fo.Rescued || fo.Service != "b" || fo.Position != 1 || fo.Reason != ReasonRetryBudget {
		t.Fatalf("Failover = %+v, want rescued b at position 1 (%s)", fo, ReasonRetryBudget)
	}
	if len(fo.ResidualPlan) != 2 || fo.ResidualPlan[0] != "c" || fo.ResidualPlan[1] != "b" {
		t.Fatalf("ResidualPlan = %v, want [c b] (failed service deferred last)", fo.ResidualPlan)
	}
	if err := sameTupleSet(res.Output, truth); err != nil {
		t.Fatalf("rescued output is not the full answer: %v", err)
	}
	if res.TuplesOut != int64(len(res.Output)) {
		t.Fatalf("TuplesOut = %d, len(Output) = %d", res.TuplesOut, len(res.Output))
	}
	// Rescue stage accounts carry ORIGINAL plan positions.
	if len(res.FailoverStages) != 2 {
		t.Fatalf("FailoverStages = %+v", res.FailoverStages)
	}
	if res.FailoverStages[0].Service != "c" || res.FailoverStages[0].Position != 2 {
		t.Fatalf("rescue stage 0 = %+v, want c at original position 2", res.FailoverStages[0])
	}
	if res.FailoverStages[1].Service != "b" || res.FailoverStages[1].Position != 1 {
		t.Fatalf("rescue stage 1 = %+v, want b at original position 1", res.FailoverStages[1])
	}
	st := ex.Stats()
	if st.Failovers.Attempted != 1 || st.Failovers.Succeeded != 1 || st.Failovers.Infeasible != 0 {
		t.Fatalf("failover stats = %+v", st.Failovers)
	}
	if st.DegradedResults != 0 {
		t.Fatalf("DegradedResults = %d after a clean rescue", st.DegradedResults)
	}
}

// TestFailoverInfeasibleDegradesExactlyAsWithout: when the failed service
// must precede an unexecuted one, no residual plan exists and the request
// degrades with the same typed marker failover-off execution produces.
func TestFailoverInfeasibleDegradesExactlyAsWithout(t *testing.T) {
	svcs := []model.Service{
		{Name: "a", Cost: 0.001, Selectivity: 1},
		{Name: "b", Cost: 0.001, Selectivity: 1},
		{Name: "c", Cost: 0.001, Selectivity: 1},
	}
	tr := [][]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	// b must precede c: deferring b behind c is impossible.
	q := precQuery(t, svcs, tr, nil, [][2]int{{1, 2}})
	plan := model.Plan{0, 1, 2}

	run := func(failover bool) (*Result, *Executor) {
		fb := newFlaky(mockFor(q, 5))
		fb.failFor = func(service string, idx int) error {
			if service == "b" {
				return errors.New("down hard")
			}
			return nil
		}
		ex := New(fb, Options{
			RetryBudget:      1,
			RetryBase:        100 * time.Microsecond,
			BreakerThreshold: -1,
			Failover:         failover,
		})
		res, err := ex.Execute(context.Background(), q, plan, Tuples(50))
		if err != nil {
			t.Fatalf("Execute(failover=%v): %v", failover, err)
		}
		return res, ex
	}

	plain, _ := run(false)
	rescued, ex := run(true)
	if plain.Degraded == nil || rescued.Degraded == nil {
		t.Fatalf("degraded: plain=%v rescued=%v, want both", plain.Degraded, rescued.Degraded)
	}
	if *plain.Degraded != *rescued.Degraded {
		t.Fatalf("infeasible failover changed the degrade: %+v vs %+v", rescued.Degraded, plain.Degraded)
	}
	if rescued.Failover == nil || !rescued.Failover.Infeasible || rescued.Failover.Rescued {
		t.Fatalf("Failover = %+v, want infeasible, not rescued", rescued.Failover)
	}
	st := ex.Stats()
	if st.Failovers.Attempted != 1 || st.Failovers.Infeasible != 1 || st.Failovers.Succeeded != 0 {
		t.Fatalf("failover stats = %+v", st.Failovers)
	}
}

// TestFailoverDoubleFailureDegradesTyped: the failed service never heals,
// so the rescue pipeline fails at it too — the request degrades with the
// rescue's typed marker, and the output stays a subset of the truth.
func TestFailoverDoubleFailureDegradesTyped(t *testing.T) {
	q := testQuery(t,
		model.Service{Name: "a", Cost: 0.001, Selectivity: 1},
		model.Service{Name: "b", Cost: 0.001, Selectivity: 1},
		model.Service{Name: "c", Cost: 0.001, Selectivity: 1},
	)
	fb := newFlaky(mockFor(q, 9))
	fb.failFor = func(service string, idx int) error {
		if service == "b" {
			return errors.New("never healing")
		}
		return nil
	}
	ex := New(fb, Options{
		RetryBudget:         -1,
		RetryBase:           100 * time.Microsecond,
		BreakerThreshold:    -1,
		Failover:            true,
		FailoverRetryBudget: 1,
	})
	res, err := ex.Execute(context.Background(), q, identityPlan(3), Tuples(100))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	d := res.Degraded
	if d == nil || d.Service != "b" || d.Reason != ReasonRetryBudget {
		t.Fatalf("Degraded = %+v, want b / %s", d, ReasonRetryBudget)
	}
	if res.Failover == nil || res.Failover.Rescued {
		t.Fatalf("Failover = %+v, want attempted but not rescued", res.Failover)
	}
	// b never succeeded anywhere, so nothing may have completed all stages.
	if res.TuplesOut != 0 {
		t.Fatalf("TuplesOut = %d through a permanently failed service", res.TuplesOut)
	}
	st := ex.Stats()
	if st.Failovers.Attempted != 1 || st.Failovers.Succeeded != 0 {
		t.Fatalf("failover stats = %+v", st.Failovers)
	}
	if st.Failovers.Active != nil {
		t.Fatalf("Active = %v after the rescue finished", st.Failovers.Active)
	}
}

// TestFailoverBreakerOpenTriggers: a stage shed by an already-open breaker
// triggers failover with ReasonBreakerOpen, and when the rescue cannot get
// past it either, the typed degrade carries the breaker reason through.
func TestFailoverBreakerOpenTriggers(t *testing.T) {
	q := testQuery(t,
		model.Service{Name: "a", Cost: 0.001, Selectivity: 1},
		model.Service{Name: "b", Cost: 0.001, Selectivity: 1},
		model.Service{Name: "c", Cost: 0.001, Selectivity: 1},
	)
	plan := identityPlan(3)
	fb := newFlaky(mockFor(q, 3))
	fb.failFor = func(service string, idx int) error {
		if service == "b" {
			return errors.New("melting")
		}
		return nil
	}
	ex := New(fb, Options{
		RetryBudget:      -1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute, // stays open for the whole test
		Failover:         true,
	})

	// Run 1: b's failure exhausts the (zero) budget, opens the breaker,
	// and the rescue is shed by the open breaker at its deferred b stage.
	res, err := ex.Execute(context.Background(), q, plan, Tuples(50))
	if err != nil {
		t.Fatalf("Execute 1: %v", err)
	}
	if res.Failover == nil || res.Failover.Reason != ReasonRetryBudget || res.Failover.Rescued {
		t.Fatalf("run 1 Failover = %+v", res.Failover)
	}
	if res.Degraded == nil || res.Degraded.Reason != ReasonBreakerOpen || res.Degraded.Service != "b" {
		t.Fatalf("run 1 Degraded = %+v, want breaker-open at b (the rescue's shed)", res.Degraded)
	}

	// Run 2: the main pipeline itself is shed by the open breaker — the
	// failover trigger reason is ReasonBreakerOpen, not retry-budget.
	res, err = ex.Execute(context.Background(), q, plan, Tuples(50))
	if err != nil {
		t.Fatalf("Execute 2: %v", err)
	}
	if res.Failover == nil || res.Failover.Reason != ReasonBreakerOpen {
		t.Fatalf("run 2 Failover = %+v, want trigger reason %s", res.Failover, ReasonBreakerOpen)
	}
	if res.Degraded == nil || res.Degraded.Reason != ReasonBreakerOpen {
		t.Fatalf("run 2 Degraded = %+v", res.Degraded)
	}
	if st := ex.Stats(); st.Failovers.Attempted != 2 || st.Failovers.Succeeded != 0 {
		t.Fatalf("failover stats = %+v", st.Failovers)
	}
}

// TestResidualPlanIsOptimal is the satellite property test: for pinned
// instances with precedence and every failure position, the spliced
// residual plan must be the true optimum of the residual query — verified
// against exhaustive enumeration of every feasible residual ordering.
func TestResidualPlanIsOptimal(t *testing.T) {
	type instance struct {
		name string
		q    *model.Query
		plan model.Plan
	}
	var instances []instance

	// Instance 1: n=6, varied costs and transfer, a precedence chain that
	// stays feasible under deferral for most failure positions.
	{
		svcs := []model.Service{
			{Name: "s0", Cost: 0.8, Selectivity: 0.3},
			{Name: "s1", Cost: 1.5, Selectivity: 0.9},
			{Name: "s2", Cost: 0.2, Selectivity: 0.6},
			{Name: "s3", Cost: 2.0, Selectivity: 0.4},
			{Name: "s4", Cost: 0.5, Selectivity: 1.2},
			{Name: "s5", Cost: 1.1, Selectivity: 0.7},
		}
		n := len(svcs)
		tr := make([][]float64, n)
		for i := range tr {
			tr[i] = make([]float64, n)
			for j := range tr[i] {
				if i != j {
					tr[i][j] = 0.1 + 0.07*float64((i*n+j)%5)
				}
			}
		}
		src := []float64{0.2, 0.3, 0.1, 0.4, 0.2, 0.3}
		q := precQuery(t, svcs, tr, src, [][2]int{{0, 3}, {2, 5}})
		instances = append(instances, instance{"chain6", q, model.Plan{2, 0, 4, 1, 5, 3}})
	}

	// Instance 2: n=7, heavier precedence (a diamond), uniform transfer.
	{
		svcs := []model.Service{
			{Name: "t0", Cost: 1.0, Selectivity: 0.5},
			{Name: "t1", Cost: 0.4, Selectivity: 0.8},
			{Name: "t2", Cost: 1.8, Selectivity: 0.3},
			{Name: "t3", Cost: 0.9, Selectivity: 0.95},
			{Name: "t4", Cost: 0.6, Selectivity: 0.6},
			{Name: "t5", Cost: 1.3, Selectivity: 0.45},
			{Name: "t6", Cost: 0.3, Selectivity: 1.0},
		}
		n := len(svcs)
		tr := make([][]float64, n)
		for i := range tr {
			tr[i] = make([]float64, n)
			for j := range tr[i] {
				if i != j {
					tr[i][j] = 0.25
				}
			}
		}
		q := precQuery(t, svcs, tr, nil, [][2]int{{0, 2}, {0, 4}, {2, 6}, {4, 6}})
		instances = append(instances, instance{"diamond7", q, model.Plan{1, 0, 3, 2, 4, 5, 6}})
	}

	ex := New(NewMockBackend(1), Options{}) // default residual planner

	for _, inst := range instances {
		pre := inst.q.CompiledPrecedence()
		for failedPos := 0; failedPos < len(inst.plan); failedPos++ {
			failed := inst.plan[failedPos]
			if residualInfeasible(pre, inst.plan[failedPos:], failed) {
				continue // no residual plan exists; the degrade path owns this case
			}
			sub, residual, err := residualQuery(inst.q, inst.plan, failedPos)
			if err != nil {
				t.Fatalf("%s pos %d: residualQuery: %v", inst.name, failedPos, err)
			}
			order, err := ex.residualPlan(context.Background(), inst.q, inst.plan, failedPos)
			if err != nil {
				t.Fatalf("%s pos %d: residualPlan: %v", inst.name, failedPos, err)
			}
			if len(order) != len(residual) {
				t.Fatalf("%s pos %d: order %v over residual %v", inst.name, failedPos, order, residual)
			}
			if order[len(order)-1] != failed {
				t.Fatalf("%s pos %d: failed service %d not deferred last in %v", inst.name, failedPos, failed, order)
			}
			// Map the original-index order back to sub indices for costing.
			subIdx := make(map[int]int, len(residual))
			for i, s := range residual {
				subIdx[s] = i
			}
			subPlan := make(model.Plan, len(order))
			for i, s := range order {
				subPlan[i] = subIdx[s]
			}
			if err := subPlan.Validate(sub); err != nil {
				t.Fatalf("%s pos %d: spliced plan invalid: %v", inst.name, failedPos, err)
			}
			got := sub.Cost(subPlan)

			// Exhaustive ground truth: minimum bottleneck cost over every
			// feasible ordering of the residual (deferral edges included).
			best := -1.0
			perm := make(model.Plan, len(residual))
			var walk func(used uint32, depth int)
			walk = func(used uint32, depth int) {
				if depth == len(perm) {
					if c := sub.Cost(perm); best < 0 || c < best {
						best = c
					}
					return
				}
				for s := 0; s < len(perm); s++ {
					if used&(1<<s) != 0 {
						continue
					}
					perm[depth] = s
					// Prune infeasible prefixes: every predecessor of s
					// must already be placed.
					ok := true
					for _, e := range sub.Precedence {
						if e[1] == s && used&(1<<e[0]) == 0 {
							ok = false
							break
						}
					}
					if ok {
						walk(used|1<<s, depth+1)
					}
				}
			}
			walk(0, 0)
			if best < 0 {
				t.Fatalf("%s pos %d: no feasible residual ordering (infeasibility check missed it)", inst.name, failedPos)
			}
			if diff := got - best; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s pos %d: residual plan cost %g, exhaustive optimum %g", inst.name, failedPos, got, best)
			}
		}
	}
}

// TestResidualPlannerOverride: SetResidualPlanner replaces the built-in
// branch-and-bound solve.
func TestResidualPlannerOverride(t *testing.T) {
	q := testQuery(t,
		model.Service{Name: "a", Cost: 1, Selectivity: 0.5},
		model.Service{Name: "b", Cost: 2, Selectivity: 0.5},
		model.Service{Name: "c", Cost: 3, Selectivity: 0.5},
	)
	installed := 0
	ex := New(NewMockBackend(1), Options{})
	ex.SetResidualPlanner(func(ctx context.Context, sub *model.Query) (model.Plan, error) {
		installed++
		return defaultResidualPlanner(ctx, sub)
	})
	if _, err := ex.residualPlan(context.Background(), q, identityPlan(3), 1); err != nil {
		t.Fatalf("residualPlan: %v", err)
	}
	if installed != 1 {
		t.Fatalf("installed planner called %d times, want 1", installed)
	}
}
