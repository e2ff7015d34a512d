package main

// The -failover scenario: hedged calls, plan-aware failover, and
// reliability-priced replanning proven end to end.
//
// Three phases share one query whose oracle optimum places the victim
// service strictly mid-plan (so a failover always has both an executed
// prefix to keep and an unexecuted suffix to re-solve):
//
//  1. Determinism — two identically seeded executor stacks replay the
//     same spike plan; every request must make byte-identical hedge
//     decisions and produce identical outputs.
//  2. Chaos — POST /v1/execute through a fault plan that error-injects and
//     mid-run blacks out the victim while spiking the hedged service.
//     Every non-degraded response must carry the exact full answer (a
//     rescue is only a rescue if nothing is missing), at least half of
//     the would-be-degraded requests must be rescued by the residual
//     replan, and hedges must launch and win against the spikes.
//  3. Drift — an adaptive server executes against the error-injected
//     victim; reliability-priced costs must bump a statistics generation
//     and demote the victim in served plans, matching a fresh oracle run
//     on the registry's own overlay.
//
// The suite runs the chaos phase's measurements as the "exec-failover"
// BENCH_serve.json cell under the standard -compare regression gate.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/exec"
	"serviceordering/internal/faultinject"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// failoverSpec fixes the -failover scenario shape; count-driven, so runs
// are deterministic across machines.
type failoverSpec struct {
	n         int
	tuples    int64 // tuples per chaos-phase request
	requests  int   // chaos-phase /v1/execute requests
	detReqs   int   // determinism-probe requests per replayed stack
	detTuples int64

	errorRate    float64 // victim retryable error rate (chaos phase)
	blackoutFrom int64   // victim blackout window, by call index
	blackoutLen  int64
	spikeRate    float64 // spiked fraction of the hedged service's calls
	spike        time.Duration
	hedgeDelay   time.Duration

	rescueFloor float64 // min rescued fraction of attempted failovers
	driftError  float64 // victim error rate during the drift phase
	driftBudget int     // /v1/execute requests allowed for the demotion to land
	settleWait  time.Duration
}

func defaultFailoverSpec(quick bool) failoverSpec {
	s := failoverSpec{
		n:            6,
		tuples:       2_000,
		requests:     200,
		detReqs:      20,
		detTuples:    1_000,
		errorRate:    0.2,
		blackoutFrom: 60,
		blackoutLen:  12,
		spikeRate:    0.1,
		spike:        40 * time.Millisecond,
		hedgeDelay:   8 * time.Millisecond,
		rescueFloor:  0.5,
		driftError:   0.6,
		driftBudget:  80,
		settleWait:   3 * time.Second,
	}
	if quick {
		s.requests = 100
		s.detReqs = 10
		s.blackoutFrom = 30
		s.driftBudget = 60
	}
	return s
}

// failoverResult carries the -failover scenario metrics beyond the cell.
type failoverResult struct {
	entry         serveEntry
	victim, spiky string

	// Chaos phase.
	complete, degraded             int64
	attempted, rescued, infeasible int64
	hedgesLaunched, hedgesWon      int64
	injected                       faultinject.Stats

	// Determinism phase.
	detHedges int64

	// Drift phase.
	victimPosBefore, victimPosAfter int
	driftExecs                      int
	generations                     uint64
}

// planPos returns svc's position in plan, -1 when absent.
func planPos(plan model.Plan, svc int) int {
	for i, s := range plan {
		if s == svc {
			return i
		}
	}
	return -1
}

// inflateService returns a copy of q with service idx's cost scaled by
// factor — the shape the reliability overlay gives an unreliable service.
func inflateService(q *model.Query, idx int, factor float64) (*model.Query, error) {
	svcs := append([]model.Service(nil), q.Services...)
	svcs[idx].Cost *= factor
	transfer := make([][]float64, len(q.Transfer))
	for i, row := range q.Transfer {
		transfer[i] = append([]float64(nil), row...)
	}
	return model.NewQuery(svcs, transfer)
}

// pickFailoverQuery searches seeded instances for one whose proven
// optimum places a victim strictly mid-plan AND whose optimum demotes
// that victim under every tested cost-inflation factor — so the drift
// phase's reliability pricing has a demotion to find no matter where in
// [1.3, 4] the fitted inflation lands.
func pickFailoverQuery(spec failoverSpec, seed int64) (*model.Query, model.Plan, int, int, error) {
	oracle := planner.New(planner.Config{})
	factors := []float64{1.3, 2, 4}
	for attempt := int64(0); attempt < 64; attempt++ {
		q, err := gen.Default(spec.n, seed*131+attempt).Generate()
		if err != nil {
			return nil, nil, 0, 0, err
		}
		opt, err := oracle.Optimize(noCtx(), q)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if !opt.Optimal {
			continue
		}
	position:
		for p := 1; p <= spec.n-2; p++ {
			victim := opt.Plan[p]
			for _, f := range factors {
				infl, err := inflateService(q, victim, f)
				if err != nil {
					return nil, nil, 0, 0, err
				}
				iopt, err := oracle.Optimize(noCtx(), infl)
				if err != nil {
					return nil, nil, 0, 0, err
				}
				if !iopt.Optimal || planPos(iopt.Plan, victim) <= p {
					continue position
				}
			}
			return q, opt.Plan, victim, p, nil
		}
	}
	return nil, nil, 0, 0, fmt.Errorf("failover: no instance with a mid-plan, inflation-demotable victim within 64 seeds")
}

// runFailoverScenario drives all three phases and returns the
// "exec-failover" cell.
func runFailoverScenario(spec failoverSpec, opts loadOpts) (*failoverResult, error) {
	if opts.target != "" {
		return nil, fmt.Errorf("failover: the scenario self-hosts its server; -target is not supported")
	}
	baseGoroutines := runtime.NumGoroutine()

	truth, plan, victim, victimPos, err := pickFailoverQuery(spec, opts.seed)
	if err != nil {
		return nil, err
	}
	victimName := truth.Services[victim].Name
	spikyIdx := plan[0] // first stage: never the victim, hedges have the most to win
	spikyName := truth.Services[spikyIdx].Name
	res := &failoverResult{
		victim: victimName, spiky: spikyName,
		victimPosBefore: victimPos, victimPosAfter: -1, driftExecs: -1,
	}

	// The ground truth: a clean, un-injected run on the same backend seed.
	// Every non-degraded chaos response must reproduce this output count
	// exactly — a rescue that lost tuples would be a wrong answer, not a
	// rescue.
	cleanMock := exec.NewMockBackend(opts.seed)
	cleanMock.SetQuery(truth)
	cleanRes, err := exec.New(cleanMock, exec.Options{BlockSize: int(spec.tuples) + 1}).
		Execute(noCtx(), truth, plan, exec.Tuples(int(spec.tuples)))
	if err != nil || cleanRes.Degraded != nil {
		return nil, fmt.Errorf("failover: clean truth run failed: %v %+v", err, cleanRes.Degraded)
	}
	truthOut := cleanRes.TuplesOut
	if truthOut == 0 {
		return nil, fmt.Errorf("failover: the truth run emitted no tuples — the full-answer check would be vacuous")
	}

	// Phase 1 — determinism: two identically seeded stacks under the same
	// spike plan must make the same hedge decisions request by request.
	runStack := func() ([]exec.HedgeReport, []int64, error) {
		m := exec.NewMockBackend(opts.seed)
		m.SetQuery(truth)
		m.SetReplicas(spikyName, 2)
		inj := faultinject.Wrap(m, faultinject.Plan{Seed: opts.seed, Services: map[string]faultinject.Faults{
			spikyName: {SpikeRate: 3 * spec.spikeRate, Spike: spec.spike},
		}})
		ex := exec.New(inj, exec.Options{
			BlockSize:        256,
			RetryBudget:      -1,
			BreakerThreshold: -1,
			HedgeDelay:       spec.hedgeDelay,
			HedgeBudget:      100,
			HedgeRateCap:     -1,
			JitterSeed:       opts.seed,
		})
		hedges := make([]exec.HedgeReport, 0, spec.detReqs)
		outs := make([]int64, 0, spec.detReqs)
		for i := 0; i < spec.detReqs; i++ {
			r, err := ex.Execute(noCtx(), truth, plan, exec.Tuples(int(spec.detTuples)))
			if err != nil {
				return nil, nil, err
			}
			if r.Degraded != nil {
				return nil, nil, fmt.Errorf("request %d degraded under a spike-only plan: %+v", i, r.Degraded)
			}
			hedges = append(hedges, r.Hedges)
			outs = append(outs, r.TuplesOut)
		}
		return hedges, outs, nil
	}
	h1, o1, err := runStack()
	if err != nil {
		return nil, fmt.Errorf("failover: determinism stack 1: %w", err)
	}
	h2, o2, err := runStack()
	if err != nil {
		return nil, fmt.Errorf("failover: determinism stack 2: %w", err)
	}
	var won1, won2 int64
	for i := range h1 {
		// Which calls hedge is a pure function of the seeded spike stream
		// and the hedge delay; who wins the race is wall-clock and may
		// differ under scheduler noise, so only launches are compared.
		if h1[i].Launched != h2[i].Launched {
			return nil, fmt.Errorf("failover: request %d launched %d hedges in stack 1, %d in stack 2 — hedge decisions are not deterministic",
				i, h1[i].Launched, h2[i].Launched)
		}
		if o1[i] != o2[i] {
			return nil, fmt.Errorf("failover: request %d emitted %d tuples in stack 1, %d in stack 2", i, o1[i], o2[i])
		}
		res.detHedges += h1[i].Launched
		won1 += h1[i].Won
		won2 += h2[i].Won
	}
	if res.detHedges == 0 {
		return nil, fmt.Errorf("failover: the spike plan provoked no hedges — the determinism probe is vacuous")
	}
	if won1 == 0 || won2 == 0 {
		return nil, fmt.Errorf("failover: hedges launched but never won against a %v spike (stack 1: %d, stack 2: %d)",
			spec.spike, won1, won2)
	}

	// Phase 2 — chaos over HTTP: victim errors plus a mid-run blackout
	// drive plan-aware failovers; spikes on the first stage drive hedges.
	mock := exec.NewMockBackend(opts.seed)
	mock.SetQuery(truth)
	mock.SetReplicas(spikyName, 2)
	injector := faultinject.Wrap(mock, faultinject.Plan{
		Seed: opts.seed,
		Services: map[string]faultinject.Faults{
			victimName: {ErrorRate: spec.errorRate, BlackoutFrom: spec.blackoutFrom, BlackoutLen: spec.blackoutLen},
			spikyName:  {SpikeRate: spec.spikeRate, Spike: spec.spike},
		},
	})
	executor := exec.New(injector, exec.Options{
		// One call per stage: every victim failure is one request's
		// failover decision, keeping the rescue arithmetic legible.
		BlockSize:           int(spec.tuples) + 1,
		RetryBudget:         -1, // no in-place retries — failures escalate straight to failover
		BreakerThreshold:    -1,
		RetryBase:           time.Millisecond,
		HedgeDelay:          spec.hedgeDelay,
		HedgeBudget:         4,
		HedgeRateCap:        -1,
		Failover:            true,
		FailoverRetryBudget: 6,
		JitterSeed:          opts.seed,
	})
	hostOpts := opts
	hostOpts.executor = executor
	target, err := startTarget(hostOpts)
	if err != nil {
		return nil, err
	}
	defer target.close()

	body, err := json.Marshal(map[string]any{
		"query":  json.RawMessage(mustMarshal(truth)),
		"tuples": spec.tuples,
	})
	if err != nil {
		return nil, err
	}
	knownReasons := map[string]bool{
		string(exec.ReasonRetryBudget): true,
		string(exec.ReasonBreakerOpen): true,
		string(exec.ReasonDeadline):    true,
	}
	var lats []time.Duration
	for i := 0; i < spec.requests; i++ {
		t0 := time.Now()
		probe, err := postV1Execute(target.client, target.url, body)
		if err != nil {
			return nil, fmt.Errorf("failover: request %d: %w", i, err)
		}
		lats = append(lats, time.Since(t0))
		if got := planPos(probe.Plan, victim); got != victimPos {
			return nil, fmt.Errorf("failover: request %d served the victim at position %d, want mid-plan %d", i, got, victimPos)
		}
		if probe.Degraded == nil {
			// The headline invariant: a non-degraded response — plain or
			// rescued — is the exact full answer.
			if probe.TuplesOut != truthOut {
				return nil, fmt.Errorf("failover: request %d completed with %d tuples, truth is %d — a wrong answer, not a rescue",
					i, probe.TuplesOut, truthOut)
			}
			res.complete++
			if probe.Failover != nil {
				if !probe.Failover.Rescued || probe.Failover.Service != victimName {
					return nil, fmt.Errorf("failover: request %d complete with a non-rescue failover report: %+v", i, probe.Failover)
				}
				if len(probe.FailoverStages) == 0 {
					return nil, fmt.Errorf("failover: request %d rescued without rescue stage accounts", i)
				}
			}
			continue
		}
		res.degraded++
		if probe.TuplesOut > truthOut {
			return nil, fmt.Errorf("failover: degraded request %d emitted %d tuples, more than the %d-tuple truth", i, probe.TuplesOut, truthOut)
		}
		if !knownReasons[string(probe.Degraded.Reason)] {
			return nil, fmt.Errorf("failover: request %d degraded with unknown reason %q", i, probe.Degraded.Reason)
		}
	}

	st := executor.Stats()
	res.attempted = st.Failovers.Attempted
	res.rescued = st.Failovers.Succeeded
	res.infeasible = st.Failovers.Infeasible
	res.hedgesLaunched = st.Hedges.Launched
	res.hedgesWon = st.Hedges.Won
	res.injected = injector.Stats()
	if res.attempted < 5 {
		return nil, fmt.Errorf("failover: only %d failovers attempted — the fault plan is too gentle to prove anything", res.attempted)
	}
	if res.injected.Blackouts == 0 {
		return nil, fmt.Errorf("failover: the mid-run blackout window never fired")
	}
	if frac := float64(res.rescued) / float64(res.attempted); frac < spec.rescueFloor {
		return nil, fmt.Errorf("failover: rescued %d of %d would-be-degraded requests (%.0f%%), floor is %.0f%%",
			res.rescued, res.attempted, 100*frac, 100*spec.rescueFloor)
	}
	if res.hedgesLaunched == 0 || res.hedgesWon == 0 {
		return nil, fmt.Errorf("failover: hedges launched %d / won %d under a spiking first stage", res.hedgesLaunched, res.hedgesWon)
	}
	if res.complete == 0 {
		return nil, fmt.Errorf("failover: no request completed cleanly (%d degraded)", res.degraded)
	}

	// /v1/stats must account for the same ladder the executor reports.
	stats, err := getV1Stats(target.client, target.url)
	if err != nil {
		return nil, fmt.Errorf("failover: %w", err)
	}
	if stats.Exec == nil || stats.Exec.Failovers.Attempted != res.attempted || stats.Exec.Hedges.Launched != res.hedgesLaunched {
		return nil, fmt.Errorf("failover: /v1/stats exec block %+v disagrees with the executor (%d failovers, %d hedges)",
			stats.Exec, res.attempted, res.hedgesLaunched)
	}
	if len(stats.Exec.Failovers.Active) != 0 {
		return nil, fmt.Errorf("failover: /v1/stats reports rescues still active after the run: %v", stats.Exec.Failovers.Active)
	}

	// Phase 3 — drift: an adaptive server fits the victim's error rate
	// from execution reports alone; reliability-priced costs must bump a
	// generation and demote the victim, matching a fresh oracle solve of
	// the registry's own overlaid query.
	driftMock := exec.NewMockBackend(opts.seed)
	driftMock.SetQuery(truth)
	driftInj := faultinject.Wrap(driftMock, faultinject.Plan{
		Seed:     opts.seed + 1,
		Services: map[string]faultinject.Faults{victimName: {ErrorRate: spec.driftError}},
	})
	driftEx := exec.New(driftInj, exec.Options{
		BlockSize:           int(spec.tuples) + 1,
		RetryBudget:         -1,
		BreakerThreshold:    -1,
		RetryBase:           time.Millisecond,
		Failover:            true,
		FailoverRetryBudget: 6,
		JitterSeed:          opts.seed,
	})
	driftOpts := opts
	driftOpts.executor = driftEx
	driftOpts.adaptive = &adapt.Config{Alpha: 0.5, MinObservations: 2, DriftDelta: 0.15}
	driftTarget, err := startTarget(driftOpts)
	if err != nil {
		return nil, err
	}
	defer driftTarget.close()
	registry := driftTarget.planner.Adaptive()
	oracle := planner.New(planner.Config{})
	for n := 1; n <= spec.driftBudget; n++ {
		probe, err := postV1Execute(driftTarget.client, driftTarget.url, body)
		if err != nil {
			return nil, fmt.Errorf("failover: drift request %d: %w", n, err)
		}
		if !probe.Observed {
			return nil, fmt.Errorf("failover: adaptive server did not observe drift request %d", n)
		}
		if driftTarget.planner.Stats().Generation == 0 {
			continue
		}
		snap := registry.Current()
		eff, changed := snap.Overlay(truth)
		if !changed {
			continue
		}
		effOpt, err := oracle.Optimize(noCtx(), eff)
		if err != nil {
			return nil, fmt.Errorf("failover: oracle solve of the overlaid query: %w", err)
		}
		if !effOpt.Optimal {
			return nil, fmt.Errorf("failover: oracle could not prove the overlaid optimum")
		}
		servedPos := planPos(probe.Plan, victim)
		if servedPos > victimPos && eff.Cost(probe.Plan) <= effOpt.Cost*(1+1e-9) {
			res.driftExecs = n
			res.victimPosAfter = servedPos
			break
		}
	}
	res.generations = driftTarget.planner.Stats().Generation
	if res.driftExecs < 0 {
		return nil, fmt.Errorf("failover: reliability drift never demoted %s within %d executions (%d generations published)",
			victimName, spec.driftBudget, res.generations)
	}

	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	res.entry = serveEntry{
		Scenario:  "exec-failover",
		Mode:      "failover",
		Conc:      1,
		Requests:  int64(spec.requests),
		ReqPerSec: float64(spec.requests) / sumDurations(lats).Seconds(),
		P50Micros: quantileMicros(lats, 0.50),
		P99Micros: quantileMicros(lats, 0.99),
		Verified:  int64(spec.requests + 2*spec.detReqs + res.driftExecs),
	}

	// No goroutine leaks: rescues and canceled hedges must all unwind.
	target.close()
	driftTarget.close()
	deadline := time.Now().Add(spec.settleWait)
	for {
		if runtime.NumGoroutine() <= baseGoroutines+8 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("failover: %d goroutines still running %v after shutdown (baseline %d)",
				runtime.NumGoroutine(), spec.settleWait, baseGoroutines)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return res, nil
}
