package main

// The execute and chaos scenarios: end-to-end proofs of the
// fault-tolerant streaming executor behind POST /v1/execute.
//
// execute closes the full production loop in one round trip per request:
// optimize (or reuse the cached plan) -> execute against a deterministic
// mock backend -> observe the execution report into the adaptive registry
// -> replan on drift. Mid-run the backend's ground truth is perturbed
// (costs and selectivities only — the executor deliberately reports no
// transfer observations) and the scenario asserts served plans re-converge
// to the post-drift optimum purely from execution feedback, with no
// explicit /v1/observe traffic at all.
//
// chaos wraps the same backend in a deterministic fault plan (error
// rates, latency spikes past the call timeout, a breaker-opening blackout,
// a slow trickle) and asserts the executor's whole escalation ladder:
// every response is a 200; complete responses processed every tuple;
// degraded responses carry a typed reason and still satisfy the pipeline
// monotonicity invariant (partial, never wrong); breakers open and appear
// in /v1/healthz; latency stays bounded; and no goroutines leak across the
// run.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/exec"
	"serviceordering/internal/faultinject"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
	"serviceordering/internal/serve"
)

// execSpec fixes the execute scenario shape; count-driven, so the
// scenario is deterministic across machines.
type execSpec struct {
	n            int     // services in the query
	tuples       int64   // tuples streamed per /v1/execute request
	perturbScale float64 // log-scale perturbation of costs/selectivities
	minOldRegret float64 // the drift must make the old plan at least this suboptimal
	minRelChange float64 // ... and move some parameter at least this much (drift detectability)
	regretBudget float64 // convergence target vs the post-drift optimum
	execBudget   int     // /v1/execute requests allowed to reach convergence
	stability    int     // post-convergence requests that must stay within budget
	measureReqs  int     // measurement-window requests behind the summary's rps/latency
}

func defaultExecSpec(quick bool) execSpec {
	s := execSpec{
		n:            8,
		tuples:       20_000,
		perturbScale: 1.0,
		minOldRegret: 0.03,
		minRelChange: 0.3,
		regretBudget: 0.01,
		execBudget:   80,
		stability:    10,
		measureReqs:  600,
	}
	if quick {
		s.execBudget = 60
		s.stability = 6
		s.measureReqs = 200
	}
	return s
}

// execResult carries the execute scenario metrics beyond its traffic summary.
type execResult struct {
	entry         serveEntry
	preDriftCost  float64
	postDriftCost float64
	oldPlanRegret float64
	execsToConv   int // /v1/execute requests after the drift until convergence
	generations   uint64
	replans       int64
	executions    int64 // executor-side completed runs
	verified      int64
}

// checkStageInvariants enforces the partial-never-wrong pipeline shape on
// a decoded response: positions ordered, flow monotone (a stage cannot
// emit tuples it never received, a stage cannot receive more than its
// predecessor emitted), and the first stage never sees more than the
// request streamed.
func checkStageInvariants(probe *serve.ExecuteResponse, tuples int64) error {
	for i, st := range probe.Stages {
		if st.Position != i {
			return fmt.Errorf("stage %d reports position %d", i, st.Position)
		}
		if st.TuplesOut > 0 && st.TuplesIn == 0 {
			return fmt.Errorf("stage %d (%s) emitted %d tuples from none", i, st.Service, st.TuplesOut)
		}
		limit := tuples
		if i > 0 {
			limit = probe.Stages[i-1].TuplesOut
		}
		if st.TuplesIn > limit {
			return fmt.Errorf("stage %d (%s) consumed %d tuples, upstream only produced %d", i, st.Service, st.TuplesIn, limit)
		}
	}
	if len(probe.Stages) > 0 {
		if last := probe.Stages[len(probe.Stages)-1]; probe.TuplesOut > last.TuplesOut {
			return fmt.Errorf("result carries %d tuples, final stage emitted %d", probe.TuplesOut, last.TuplesOut)
		}
	}
	return nil
}

// perturbServicesUntilPlanBreaks builds a drifted copy of truth touching
// only service costs and selectivities (the executor observes exactly
// those — transfers stay client-anchored), hard enough that the incumbent
// plan is measurably suboptimal and the parameter motion clears the drift
// detector.
func perturbServicesUntilPlanBreaks(truth *model.Query, oldPlan model.Plan, spec execSpec, seed int64) (*model.Query, float64, float64, error) {
	oracle := planner.New(planner.Config{})
	for attempt := int64(0); attempt < 64; attempt++ {
		rng := rand.New(rand.NewSource(seed*127 + attempt))
		svcs := append([]model.Service(nil), truth.Services...)
		maxRel := 0.0
		for i := range svcs {
			cf := math.Exp((rng.Float64()*2 - 1) * spec.perturbScale)
			svcs[i].Cost *= cf
			if rel := math.Abs(cf - 1); rel > maxRel {
				maxRel = rel
			}
			sf := math.Exp((rng.Float64()*2 - 1) * spec.perturbScale / 2)
			sel := svcs[i].Selectivity * sf
			if sel < 0.05 {
				sel = 0.05
			}
			if sel > 2 {
				sel = 2
			}
			if rel := math.Abs(sel/svcs[i].Selectivity - 1); rel > maxRel {
				maxRel = rel
			}
			svcs[i].Selectivity = sel
		}
		if maxRel < spec.minRelChange {
			continue
		}
		transfer := make([][]float64, len(truth.Transfer))
		for i, row := range truth.Transfer {
			transfer[i] = append([]float64(nil), row...)
		}
		cand, err := model.NewQuery(svcs, transfer)
		if err != nil {
			return nil, 0, 0, err
		}
		opt, err := oracle.Optimize(noCtx(), cand)
		if err != nil {
			return nil, 0, 0, err
		}
		if !opt.Optimal {
			continue
		}
		oldRegret := cand.Cost(oldPlan)/opt.Cost - 1
		if oldRegret >= spec.minOldRegret {
			return cand, opt.Cost, oldRegret, nil
		}
	}
	return nil, 0, 0, fmt.Errorf("execute: no service-only perturbation at scale %v broke the incumbent plan within 64 seeds", spec.perturbScale)
}

// runExecuteScenario proves the optimize -> execute -> observe -> replan
// loop end to end and returns its metrics.
func runExecuteScenario(spec execSpec, opts loadOpts) (*execResult, error) {
	if opts.target != "" {
		return nil, fmt.Errorf("execute: the scenario self-hosts its server; -target is not supported")
	}

	truth, err := gen.Default(spec.n, opts.seed).Generate()
	if err != nil {
		return nil, err
	}
	oracle := planner.New(planner.Config{})
	preOpt, err := oracle.Optimize(noCtx(), truth)
	if err != nil {
		return nil, err
	}
	if !preOpt.Optimal {
		return nil, fmt.Errorf("execute: oracle could not prove the pre-drift optimum")
	}
	newTruth, postCost, oldRegret, err := perturbServicesUntilPlanBreaks(truth, preOpt.Plan, spec, opts.seed)
	if err != nil {
		return nil, err
	}

	// The backend starts at the pre-drift truth; virtual processing times
	// mean fitted statistics reproduce the configured parameters exactly,
	// no wall-clock sleeps involved.
	mock := exec.NewMockBackend(opts.seed)
	mock.SetQuery(truth)
	executor := exec.New(mock, exec.Options{BlockSize: 1024})

	hostOpts := opts
	hostOpts.adaptive = &adapt.Config{Alpha: 0.5, MinObservations: 2, DriftDelta: 0.1}
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
	res := &execResult{preDriftCost: preOpt.Cost, postDriftCost: postCost, oldPlanRegret: oldRegret, execsToConv: -1}
	regretOn := func(q *model.Query, plan model.Plan, opt float64) float64 {
		return q.Cost(plan)/opt - 1
	}
	var lats []time.Duration
	timedExecute := func() (serve.ExecuteResponse, error) {
		t0 := time.Now()
		probe, err := postV1Execute(target.client, target.url, body)
		if err != nil {
			return probe, err
		}
		lats = append(lats, time.Since(t0))
		return probe, nil
	}

	// Phase 1 — steady state: the served plan is the true optimum, every
	// execution is complete, and the report feeds the registry.
	for i := 0; i < 3; i++ {
		probe, err := timedExecute()
		if err != nil {
			return nil, err
		}
		if !probe.Observed {
			return nil, fmt.Errorf("execute: adaptive server did not observe request %d", i)
		}
		if probe.Degraded != nil {
			return nil, fmt.Errorf("execute: healthy backend degraded request %d: %+v", i, probe.Degraded)
		}
		if probe.TuplesIn != spec.tuples {
			return nil, fmt.Errorf("execute: request %d streamed %d tuples, want %d", i, probe.TuplesIn, spec.tuples)
		}
		if err := checkStageInvariants(&probe, spec.tuples); err != nil {
			return nil, fmt.Errorf("execute: request %d: %w", i, err)
		}
		// Fitted parameters are the mock's empirical ones (hash-exact cost,
		// sampling-exact selectivity), so the served plan must stay within
		// the regret budget of the configured truth throughout.
		if r := regretOn(truth, probe.Plan, preOpt.Cost); r > spec.regretBudget {
			return nil, fmt.Errorf("execute: pre-drift request %d served regret %v", i, r)
		}
		res.verified++
	}

	// Phase 2 — the backend drifts to newTruth. Only execution feedback
	// flows; served plans must re-converge to the post-drift optimum.
	for _, svc := range newTruth.Services {
		mock.SetService(svc.Name, exec.MockService{Cost: svc.Cost, Selectivity: svc.Selectivity})
	}
	for n := 1; n <= spec.execBudget; n++ {
		probe, err := timedExecute()
		if err != nil {
			return nil, err
		}
		if probe.Degraded != nil {
			return nil, fmt.Errorf("execute: post-drift request %d degraded: %+v", n, probe.Degraded)
		}
		if err := model.Plan(probe.Plan).Validate(truth); err != nil {
			return nil, fmt.Errorf("execute: served plan invalid: %w", err)
		}
		res.verified++
		if r := regretOn(newTruth, probe.Plan, postCost); r <= spec.regretBudget {
			res.execsToConv = n
			break
		}
	}
	if res.execsToConv < 0 {
		return nil, fmt.Errorf("execute: served plans did not reach %.1f%% regret of the post-drift optimum within %d executions",
			100*spec.regretBudget, spec.execBudget)
	}

	// Phase 3 — stability: once replanned, no response regresses.
	for i := 0; i < spec.stability; i++ {
		probe, err := timedExecute()
		if err != nil {
			return nil, err
		}
		res.verified++
		if r := regretOn(newTruth, probe.Plan, postCost); r > spec.regretBudget {
			return nil, fmt.Errorf("execute: post-convergence request %d regressed to regret %v", i, r)
		}
	}
	st := target.planner.Stats()
	res.generations = st.Generation
	res.replans = st.Replans
	if st.Generation == 0 {
		return nil, fmt.Errorf("execute: converged without publishing a statistics generation")
	}
	if st.Replans == 0 {
		return nil, fmt.Errorf("execute: converged without an incumbent-seeded replan")
	}

	// Phase 4 — measurement: settled post-replan /v1/execute traffic.
	lats = lats[:0]
	measureStart := time.Now()
	for i := 0; i < spec.measureReqs; i++ {
		probe, err := timedExecute()
		if err != nil {
			return nil, err
		}
		if i%verifyEvery == 0 {
			res.verified++
			if r := regretOn(newTruth, probe.Plan, postCost); r > spec.regretBudget {
				return nil, fmt.Errorf("execute: measurement request %d regressed to regret %v", i, r)
			}
			if err := checkStageInvariants(&probe, spec.tuples); err != nil {
				return nil, fmt.Errorf("execute: measurement request %d: %w", i, err)
			}
		}
	}
	measured := time.Since(measureStart)
	res.executions = executor.Stats().Executions

	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	res.entry = serveEntry{
		Requests:  int64(spec.measureReqs),
		ReqPerSec: float64(spec.measureReqs) / measured.Seconds(),
		P50Micros: quantileMicros(lats, 0.50),
		P99Micros: quantileMicros(lats, 0.99),
		Verified:  res.verified,
	}
	return res, nil
}

// chaosSpec fixes the chaos scenario shape.
type chaosSpec struct {
	n          int
	tuples     int64
	requests   int           // /v1/execute requests fired through the fault plan
	shedPause  time.Duration // pause after a breaker-open shed (lets probes run)
	p99Bound   time.Duration // hard latency ceiling under chaos
	settleWait time.Duration // goroutine-leak settle window
}

func defaultChaosSpec(quick bool) chaosSpec {
	s := chaosSpec{
		n:          6,
		tuples:     2_000,
		requests:   300,
		shedPause:  20 * time.Millisecond,
		p99Bound:   1500 * time.Millisecond,
		settleWait: 3 * time.Second,
	}
	if quick {
		s.requests = 120
	}
	return s
}

// chaosResult carries the chaos scenario metrics beyond its traffic summary.
type chaosResult struct {
	entry        serveEntry
	complete     int64
	degraded     int64
	reasons      map[string]int64
	retries      int64
	breakerOpens int64
	injected     faultinject.Stats
	sawBreakerHz bool // /v1/healthz reported breaker-open mid-run
}

// runChaosScenario drives /v1/execute through a deterministic fault plan and
// asserts the fault-tolerance ladder holds end to end.
func runChaosScenario(spec chaosSpec, opts loadOpts) (*chaosResult, error) {
	if opts.target != "" {
		return nil, fmt.Errorf("chaos: the scenario self-hosts its server; -target is not supported")
	}
	baseGoroutines := runtime.NumGoroutine()

	truth, err := gen.Default(spec.n, opts.seed).Generate()
	if err != nil {
		return nil, err
	}
	mock := exec.NewMockBackend(opts.seed)
	mock.SetQuery(truth)

	// The fault plan hits three services three different ways: a flaky one
	// (random errors the retry budget absorbs), a spiky one (latency past
	// the call timeout, so spikes surface as retryable timeouts plus a
	// trickle), and a blacked-out one (consecutive failures that must open
	// the breaker).
	flaky, spiky, dark := truth.Services[0].Name, truth.Services[1].Name, truth.Services[2].Name
	injector := faultinject.Wrap(mock, faultinject.Plan{
		Seed: opts.seed,
		Services: map[string]faultinject.Faults{
			flaky: {ErrorRate: 0.03},
			spiky: {SpikeRate: 0.02, Spike: 60 * time.Millisecond, TrickleEvery: 11, Trickle: 2 * time.Millisecond},
			// Short enough that half-open probes (one per cooldown, each
			// advancing the blackout's call index) burn through the window
			// mid-run, so the scenario also proves breaker recovery.
			dark: {BlackoutFrom: 40, BlackoutLen: 10},
		},
	})
	executor := exec.New(injector, exec.Options{
		BlockSize:        512,
		CallTimeout:      25 * time.Millisecond,
		RetryBudget:      6,
		RetryBase:        time.Millisecond,
		RetryMax:         20 * time.Millisecond,
		BreakerThreshold: 4,
		BreakerCooldown:  100 * time.Millisecond,
		Deadline:         2 * time.Second,
		JitterSeed:       opts.seed,
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

	knownReasons := map[exec.Reason]bool{
		exec.ReasonRetryBudget: true,
		exec.ReasonBreakerOpen: true,
		exec.ReasonDeadline:    true,
	}
	names := make(map[string]bool, spec.n)
	for _, svc := range truth.Services {
		names[svc.Name] = true
	}

	res := &chaosResult{reasons: make(map[string]int64)}
	var lats []time.Duration
	firstBreakerShed, lastComplete := -1, -1
	for i := 0; i < spec.requests; i++ {
		t0 := time.Now()
		probe, err := postV1Execute(target.client, target.url, body)
		if err != nil {
			return nil, fmt.Errorf("chaos: request %d: %w", i, err)
		}
		lats = append(lats, time.Since(t0))
		if err := checkStageInvariants(&probe, spec.tuples); err != nil {
			return nil, fmt.Errorf("chaos: request %d: %w", i, err)
		}
		if probe.Degraded == nil {
			res.complete++
			lastComplete = i
			if probe.TuplesIn != spec.tuples {
				return nil, fmt.Errorf("chaos: complete request %d processed %d tuples, want %d", i, probe.TuplesIn, spec.tuples)
			}
			continue
		}
		res.degraded++
		res.reasons[string(probe.Degraded.Reason)]++
		if !knownReasons[probe.Degraded.Reason] {
			return nil, fmt.Errorf("chaos: request %d degraded with unknown reason %q", i, probe.Degraded.Reason)
		}
		if probe.Degraded.Service != "" && !names[probe.Degraded.Service] {
			return nil, fmt.Errorf("chaos: request %d degraded at unknown service %q", i, probe.Degraded.Service)
		}
		// A breaker-open degrade means the breaker is open right now (the
		// cooldown far exceeds the response round trip): /v1/healthz must name
		// it while it lasts.
		if probe.Degraded.Reason == exec.ReasonBreakerOpen {
			if firstBreakerShed < 0 {
				firstBreakerShed = i
			}
			if !res.sawBreakerHz {
				hz, err := getV1Healthz(target.client, target.url)
				if err != nil {
					return nil, fmt.Errorf("chaos: healthz during breaker-open: %w", err)
				}
				for _, reason := range hz.Reasons {
					if hz.Status == "degraded" && len(reason) > len("breaker-open:") && reason[:len("breaker-open:")] == "breaker-open:" {
						res.sawBreakerHz = true
					}
				}
			}
			// Shed requests return in microseconds while probes are admitted
			// only once per cooldown; pace a little so the breaker's probes
			// can burn through the blackout window and recovery happens
			// inside the request budget.
			time.Sleep(spec.shedPause)
		}
	}

	st := executor.Stats()
	res.retries = st.Retries
	res.breakerOpens = st.BreakerOpens
	res.injected = injector.Stats()
	if res.complete == 0 {
		return nil, fmt.Errorf("chaos: no request completed cleanly (%d degraded)", res.degraded)
	}
	if res.degraded == 0 {
		return nil, fmt.Errorf("chaos: the fault plan degraded nothing — the scenario is vacuous")
	}
	if st.Retries == 0 {
		return nil, fmt.Errorf("chaos: no retries recorded under a fault plan with error injection")
	}
	if st.BreakerOpens == 0 {
		return nil, fmt.Errorf("chaos: the blackout never opened a breaker")
	}
	if !res.sawBreakerHz {
		return nil, fmt.Errorf("chaos: /v1/healthz never reported an open breaker")
	}
	// The ladder must also come back down: after the first breaker-open
	// shed, the half-open probes have to burn through the blackout window
	// and later requests must complete again.
	if firstBreakerShed < 0 || lastComplete < firstBreakerShed {
		return nil, fmt.Errorf("chaos: breaker never recovered (first shed at request %d, last complete at %d)",
			firstBreakerShed, lastComplete)
	}
	if st.DegradedResults != res.degraded {
		return nil, fmt.Errorf("chaos: executor counted %d degraded results, responses carried %d", st.DegradedResults, res.degraded)
	}

	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	p99 := time.Duration(quantileMicros(lats, 0.99)*1e3) * time.Nanosecond
	if p99 > spec.p99Bound {
		return nil, fmt.Errorf("chaos: p99 %v exceeds the %v bound", p99, spec.p99Bound)
	}

	res.entry = serveEntry{
		Requests:  int64(spec.requests),
		ReqPerSec: float64(spec.requests) / sumDurations(lats).Seconds(),
		P50Micros: quantileMicros(lats, 0.50),
		P99Micros: quantileMicros(lats, 0.99),
		Verified:  int64(spec.requests),
	}

	// No goroutine leaks: shut the target down and require the count to
	// settle back to (near) the baseline. The slack covers the HTTP
	// transport's idle machinery, not executor stages — a leaked stage
	// goroutine per degraded request would blow far past it.
	target.close()
	deadline := time.Now().Add(spec.settleWait)
	for {
		if runtime.NumGoroutine() <= baseGoroutines+8 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("chaos: %d goroutines still running %v after shutdown (baseline %d)",
				runtime.NumGoroutine(), spec.settleWait, baseGoroutines)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return res, nil
}

func sumDurations(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

// mustMarshal serializes v or panics — used only for values the scenario
// itself constructed.
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
