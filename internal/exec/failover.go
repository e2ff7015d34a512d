package exec

import (
	"context"
	"fmt"

	"serviceordering/internal/core"
	"serviceordering/internal/model"
)

// Plan-aware failover: when a stage fails permanently mid-run, the tuples
// not yet past it are diverted, the unexecuted plan suffix is re-solved as
// a residual query with the failed service deferred to the end, and the
// diverted tuples are re-run through the new suffix under a fresh retry
// budget. Deferral buys the failed service its breaker cooldown (and a
// blackout window's tail) while the healthy suffix services do useful
// work — and because every service still runs, a clean rescue yields the
// FULL answer, not a degraded subset.

// defaultResidualPlanner solves the residual query with the
// branch-and-bound core directly. Residual queries are small (a plan
// suffix), so this is microseconds; the serve layer swaps in a
// plan-cache-backed planner via SetResidualPlanner.
func defaultResidualPlanner(ctx context.Context, sub *model.Query) (model.Plan, error) {
	opts := core.Options{Cancel: ctx.Done()}
	// A topological order of the deferral-constrained residual is always
	// feasible; seeding it as the incumbent lets the search prune from the
	// first node.
	if inc := sub.CompiledPrecedence().TopologicalPlan(); inc.Validate(sub) == nil {
		opts.InitialIncumbent = inc
	}
	res, err := core.OptimizeWithOptions(sub, opts)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// residualInfeasible reports whether deferring failed behind the rest of
// the residual services violates a precedence constraint. Only direct
// edges need checking: any transitive path from failed to a residual
// service runs through residual services exclusively (an executed-prefix
// intermediate would contradict the original plan's own feasibility), so
// some direct failed->residual edge exists on it.
func residualInfeasible(pre *model.Precedence, residual []int, failed int) bool {
	for _, s := range residual {
		if s != failed && pre.MustPrecede(failed, s) {
			return true
		}
	}
	return false
}

// residualQuery builds the sub-query of the unexecuted services: the
// induced transfer submatrix, source transfers measured from the last
// executed service (the rescue input's current location), the induced
// precedence edges, plus deferral edges forcing failed last. It returns
// the sub-query and the residual services' original indices in sub order.
func residualQuery(q *model.Query, plan model.Plan, failedPos int) (*model.Query, []int, error) {
	residual := make([]int, len(plan)-failedPos)
	copy(residual, plan[failedPos:])
	failed := residual[0]

	sub := &model.Query{
		Services: make([]model.Service, len(residual)),
		Transfer: make([][]float64, len(residual)),
	}
	subIdx := make(map[int]int, len(residual))
	for i, s := range residual {
		sub.Services[i] = q.Services[s]
		subIdx[s] = i
	}
	for i, si := range residual {
		row := make([]float64, len(residual))
		for j, sj := range residual {
			row[j] = q.Transfer[si][sj]
		}
		sub.Transfer[i] = row
	}
	// The diverted tuples sit at the failed stage's predecessor (or the
	// original source when the failure hit stage 0): that hop is the
	// residual pipeline's source transfer.
	sub.SourceTransfer = make([]float64, len(residual))
	for i, s := range residual {
		if failedPos == 0 {
			if q.SourceTransfer != nil {
				sub.SourceTransfer[i] = q.SourceTransfer[s]
			}
		} else {
			sub.SourceTransfer[i] = q.Transfer[plan[failedPos-1]][s]
		}
	}
	if q.SinkTransfer != nil {
		sub.SinkTransfer = make([]float64, len(residual))
		for i, s := range residual {
			sub.SinkTransfer[i] = q.SinkTransfer[s]
		}
	}
	// Induced precedence: original edges with both endpoints unexecuted
	// (edges into the executed prefix are already satisfied; a transitive
	// path through the prefix would contradict the original plan's
	// feasibility), plus the deferral edges pinning failed last.
	for _, e := range q.Precedence {
		bi, bok := subIdx[e[0]]
		ai, aok := subIdx[e[1]]
		if bok && aok {
			sub.Precedence = append(sub.Precedence, [2]int{bi, ai})
		}
	}
	fi := subIdx[failed]
	for i := range residual {
		if i != fi {
			sub.Precedence = append(sub.Precedence, [2]int{i, fi})
		}
	}
	if err := sub.Validate(); err != nil {
		return nil, nil, fmt.Errorf("exec: residual query: %w", err)
	}
	return sub, residual, nil
}

// residualPlan re-solves the unexecuted suffix of plan (failing stage at
// failedPos) with the failed service deferred last. It returns the rescue
// order as ORIGINAL query indices, or an error when the solve fails or is
// canceled. Infeasibility is the caller's check (residualInfeasible); the
// deferral edges would otherwise surface it as a cycle error here.
func (e *Executor) residualPlan(ctx context.Context, q *model.Query, plan model.Plan, failedPos int) ([]int, error) {
	sub, residual, err := residualQuery(q, plan, failedPos)
	if err != nil {
		return nil, err
	}
	subPlan, err := e.residual(ctx, sub)
	if err != nil {
		return nil, err
	}
	if err := subPlan.Validate(sub); err != nil {
		return nil, fmt.Errorf("exec: residual planner returned invalid plan: %w", err)
	}
	order := make([]int, len(subPlan))
	for i, s := range subPlan {
		order[i] = residual[s]
	}
	return order, nil
}

// rescue runs the failover ladder after the main pipeline finished with a
// captured failure: residual replan, then re-run the diverted tuples
// through the new suffix. It mutates res — appending rescued output,
// attaching the FailoverReport and rescue stage accounts, and setting the
// Degraded marker when the rescue could not complete.
func (e *Executor) rescue(ctx context.Context, q *model.Query, plan model.Plan, fo *failoverCapture, res *Result) {
	e.failoverAttempted.Add(1)
	res.Failover = &FailoverReport{Service: fo.st.name, Position: fo.st.pos, Reason: fo.cf.reason}
	if ctx.Err() != nil {
		// The end-to-end deadline died while the main pipeline drained;
		// there is no time left to rescue in.
		res.Degraded = fo.degraded()
		return
	}

	failed := plan[fo.st.pos]
	pre := q.CompiledPrecedence()
	if residualInfeasible(pre, plan[fo.st.pos:], failed) {
		// The failed service must precede an unexecuted one: no residual
		// plan exists, and the request degrades exactly as it would have
		// without failover.
		e.failoverInfeasible.Add(1)
		res.Failover.Infeasible = true
		res.Degraded = fo.degraded()
		return
	}

	order, err := e.residualPlan(ctx, q, plan, fo.st.pos)
	if err != nil {
		res.Degraded = fo.degraded()
		return
	}
	for _, s := range order {
		res.Failover.ResidualPlan = append(res.Failover.ResidualPlan, q.Services[s].Name)
	}

	// The rescue pipeline runs the diverted tuples under a fresh retry
	// budget and with failover off — one rescue per request, no recursion.
	origPos := make(map[int]int, len(plan))
	for pos, s := range plan {
		origPos[s] = pos
	}
	stages := make([]*stageRun, len(order))
	for i, s := range order {
		name := q.Services[s].Name
		stages[i] = &stageRun{name: name, pos: origPos[s], br: e.breakerFor(name)}
	}
	rrun := &runState{}
	rrun.budget.Store(int64(e.opts.FailoverRetryBudget))
	rrun.hedges.Store(int64(e.opts.HedgeBudget))

	e.setFailoverActive(fo.st.name, +1)
	out := e.runPipeline(ctx, rrun, stages, fo.buf)
	e.setFailoverActive(fo.st.name, -1)

	res.FailoverStages = make([]StageReport, len(stages))
	for i, st := range stages {
		res.FailoverStages[i] = StageReport{Service: st.name, Position: st.pos}
		collectStage(&res.FailoverStages[i], st)
		res.Retries += st.retries
		res.Hedges.Launched += st.hedgeLaunched
		res.Hedges.Won += st.hedgeWon
		res.Hedges.Canceled += st.hedgeCanceled
	}
	// Tuples that completed the whole rescue pipeline completed every
	// remaining service: they belong in the output whether or not the
	// rescue itself later degraded.
	res.Output = append(res.Output, out...)

	rdeg := rrun.degradedResult()
	if rdeg == nil && ctx.Err() != nil {
		rdeg = &Degraded{Service: "", Position: -1, Reason: ReasonDeadline, Err: ctx.Err().Error()}
	}
	if rdeg != nil {
		res.Degraded = rdeg
		return
	}
	res.Failover.Rescued = true
	e.failoverSucceeded.Add(1)
}

// setFailoverActive tracks rescues in flight per failed service (the
// /v1/healthz failover-active:<svc> gauge).
func (e *Executor) setFailoverActive(name string, delta int) {
	e.fmu.Lock()
	e.failoverActive[name] += delta
	if e.failoverActive[name] <= 0 {
		delete(e.failoverActive, name)
	}
	e.fmu.Unlock()
}
