package main

// The drift scenario: an end-to-end proof of the adaptive replanning
// loop against the production serving stack. A self-hosted adaptive
// server keeps receiving the SAME client query (its parameters frozen at
// the pre-drift truth — clients do not know the services drifted) while
// the scenario plays the role of the execution layer: it synthesizes
// noise-free execution reports from a hidden ground truth and POSTs them
// to /v1/observe. Mid-run the ground truth is perturbed hard enough that the
// server's cached plan becomes measurably suboptimal; the scenario then
// asserts the loop closes — served plans re-converge to within 1% regret
// of the post-drift oracle optimum inside a fixed observation budget, and
// never regress once the replan generation is published.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/calibrate"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
	"serviceordering/internal/robust"
)

// driftSpec fixes the scenario shape. Everything is count-driven (not
// wall-clock-driven), so the scenario is deterministic across machines.
type driftSpec struct {
	n              int     // services in the drifting query
	tuples         int64   // tuples per synthesized execution report
	perturbScale   float64 // relative perturbation applied to the ground truth
	minOldRegret   float64 // the perturbation must make the old plan at least this suboptimal
	regretBudget   float64 // convergence target vs the post-drift optimum
	obsBudget      int     // observation budget to reach convergence
	stabilityProbe int     // post-convergence requests that must all stay within budget
	measureReqs    int     // post-convergence warm requests behind the summary's rps/latency
	robustSamples  int     // Monte Carlo samples behind the drift threshold
}

func defaultDriftSpec(quick bool) driftSpec {
	s := driftSpec{
		n:              10,
		tuples:         1_000_000,
		perturbScale:   0.5,
		minOldRegret:   0.03,
		regretBudget:   0.01,
		obsBudget:      400,
		stabilityProbe: 25,
		measureReqs:    10000,
		robustSamples:  20,
	}
	if quick {
		s.obsBudget = 250
		s.stabilityProbe = 15
		s.measureReqs = 3000
		s.robustSamples = 8
	}
	return s
}

// driftResult carries the scenario metrics beyond its traffic summary.
type driftResult struct {
	entry           serveEntry
	driftDelta      float64 // regret-derived threshold the server ran with
	obsToConverge   int     // observations ingested until regret <= budget
	generations     uint64  // statistics generations published
	replans         int64   // incumbent-seeded re-optimizations
	preDriftCost    float64 // true optimum before the perturbation
	postDriftCost   float64 // true optimum after it
	oldPlanRegret   float64 // the stale plan's regret under the new truth
	finalRegret     float64 // served-plan regret at the end of the run
	staleServed     int     // post-publish responses beyond the regret budget (must be 0)
	verifiedSamples int64
}

// analyticReport synthesizes the execution report a perfectly instrumented
// run of plan over truth would produce: tuple counts follow the
// selectivities, busy times are exactly per-tuple-parameter * tuples. A
// starved tail (very selective prefixes can round the stream to zero
// tuples mid-plan) is simply absent from the report — a service that
// received nothing has nothing to observe.
func analyticReport(truth *model.Query, plan model.Plan, tuples int64) *adapt.Report {
	rep := &adapt.Report{}
	in := tuples
	for pos, s := range plan {
		if in <= 0 {
			break
		}
		svc := truth.Services[s]
		out := int64(math.Round(float64(in) * svc.Selectivity))
		rep.Services = append(rep.Services, adapt.ServiceObservation{
			Name:           svc.Name,
			TuplesIn:       in,
			TuplesOut:      out,
			BusyProcessing: svc.Cost * float64(in),
		})
		if pos+1 < len(plan) && out > 0 {
			rep.Transfers = append(rep.Transfers, adapt.TransferObservation{
				From:        svc.Name,
				To:          truth.Services[plan[pos+1]].Name,
				Tuples:      out,
				BusySending: truth.Transfer[s][plan[pos+1]] * float64(out),
			})
		}
		in = out
	}
	return rep
}

// perturbUntilPlanBreaks searches deterministic seeds for a perturbation
// that makes the incumbent plan measurably suboptimal — a drift the
// scenario can meaningfully recover from. (A perturbation the old plan
// survives would make the convergence assertion vacuous.)
func perturbUntilPlanBreaks(truth *model.Query, oldPlan model.Plan, spec driftSpec, seed int64) (*model.Query, model.Plan, float64, float64, error) {
	for attempt := int64(0); attempt < 64; attempt++ {
		rng := rand.New(rand.NewSource(seed*31 + attempt))
		cand := robust.Perturb(truth, spec.perturbScale, rng)
		opt, err := planner.New(planner.Config{}).Optimize(noCtx(), cand)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if !opt.Optimal {
			continue
		}
		oldRegret := cand.Cost(oldPlan)/opt.Cost - 1
		if oldRegret >= spec.minOldRegret {
			return cand, opt.Plan, opt.Cost, oldRegret, nil
		}
	}
	return nil, nil, 0, 0, fmt.Errorf("drift: no perturbation at scale %v broke the incumbent plan within 64 seeds", spec.perturbScale)
}

// driftHTTP times the scenario's requests against its server, over the
// shared /v1 client helpers.
type driftHTTP struct {
	target *loadTarget
	lats   []time.Duration
	reqs   int64
}

func (d *driftHTTP) optimize(body []byte) (solvedProbe, error) {
	t0 := time.Now()
	probe, err := postV1Optimize(d.target.client, d.target.url, body)
	d.record(t0, err)
	return probe, err
}

func (d *driftHTTP) observe(rep *adapt.Report) error {
	t0 := time.Now()
	err := postV1Observe(d.target.client, d.target.url, rep)
	d.record(t0, err)
	return err
}

// drain is optimize without decoding the answer — the measurement
// window's unverified requests.
func (d *driftHTTP) drain(body []byte) error {
	t0 := time.Now()
	err := drainV1Optimize(d.target.client, d.target.url, body)
	d.record(t0, err)
	return err
}

// record counts one successful request and its latency since t0.
func (d *driftHTTP) record(t0 time.Time, err error) {
	if err == nil {
		d.lats = append(d.lats, time.Since(t0))
		d.reqs++
	}
}

// runDriftScenario executes the scenario and returns its metrics. It
// always self-hosts: the execution reports must match a ground truth the
// scenario controls, which an external server cannot guarantee.
func runDriftScenario(spec driftSpec, opts loadOpts) (*driftResult, error) {
	if opts.target != "" {
		return nil, fmt.Errorf("drift: the scenario self-hosts its server; -target is not supported")
	}

	// Ground truth and the client's (forever-stale) view of it.
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
		return nil, fmt.Errorf("drift: oracle could not prove the pre-drift optimum")
	}
	clientBody, err := json.Marshal(&model.Instance{Query: truth})
	if err != nil {
		return nil, err
	}

	// The drift threshold comes from the regret budget, not a guess: the
	// largest perturbation the incumbent plan survives within budget
	// (clamped to stay meaningfully below the perturbation we then apply).
	driftDelta, err := adapt.ThresholdFromRegret(truth, preOpt.Plan, spec.regretBudget, robust.Config{
		Deltas:  []float64{0.02, 0.05, 0.1, 0.2},
		Samples: spec.robustSamples,
		Seed:    opts.seed,
	})
	if err != nil {
		return nil, err
	}
	if driftDelta > spec.perturbScale/2 {
		driftDelta = spec.perturbScale / 2
	}

	// The post-drift truth: hard enough that the cached plan is measurably
	// wrong.
	newTruth, _, postCost, oldRegret, err := perturbUntilPlanBreaks(truth, preOpt.Plan, spec, opts.seed)
	if err != nil {
		return nil, err
	}

	adaptiveCfg := adapt.Config{Alpha: 0.5, MinObservations: 2, DriftDelta: driftDelta}
	hostOpts := opts
	hostOpts.adaptive = &adaptiveCfg
	target, err := startTarget(hostOpts)
	if err != nil {
		return nil, err
	}
	defer target.close()
	h := &driftHTTP{target: target}
	covering := calibrate.CoveringPlans(spec.n)
	res := &driftResult{
		driftDelta:    driftDelta,
		preDriftCost:  preOpt.Cost,
		postDriftCost: postCost,
		oldPlanRegret: oldRegret,
		obsToConverge: -1,
	}

	// Phase 1 — steady pre-drift state: warm the plan, anchor every
	// parameter at the (still-accurate) truth, and require served plans to
	// stay at the true optimum throughout.
	regretOn := func(q *model.Query, plan model.Plan, opt float64) float64 {
		return q.Cost(plan)/opt - 1
	}
	probe, err := h.optimize(clientBody)
	if err != nil {
		return nil, err
	}
	if r := regretOn(truth, probe.Plan, preOpt.Cost); r > 1e-9 {
		return nil, fmt.Errorf("drift: fresh server served regret %v on the unperturbed truth", r)
	}
	res.verifiedSamples++
	for round := 0; round < 2; round++ {
		for _, plan := range covering {
			if err := h.observe(analyticReport(truth, plan, spec.tuples)); err != nil {
				return nil, err
			}
		}
	}
	probe, err = h.optimize(clientBody)
	if err != nil {
		return nil, err
	}
	// The overlay now serves fitted parameters; the plan must still be
	// (essentially) truth-optimal — fits of an undrifted system must not
	// perturb the served order beyond fit round-off.
	if r := regretOn(truth, probe.Plan, preOpt.Cost); r > 1e-6 {
		return nil, fmt.Errorf("drift: pre-drift anchoring degraded the served plan to regret %v", r)
	}
	res.verifiedSamples++

	// Phase 2 — the services drift. Interleave execution reports (of the
	// new truth) with client requests until served plans are within the
	// regret budget of the post-drift optimum.
	obs := 0
	for obs < spec.obsBudget {
		plan := covering[obs%len(covering)]
		if err := h.observe(analyticReport(newTruth, plan, spec.tuples)); err != nil {
			return nil, err
		}
		obs++
		probe, err = h.optimize(clientBody)
		if err != nil {
			return nil, err
		}
		if err := model.Plan(probe.Plan).Validate(truth); err != nil {
			return nil, fmt.Errorf("drift: served plan invalid: %w", err)
		}
		res.verifiedSamples++
		if r := regretOn(newTruth, probe.Plan, postCost); r <= spec.regretBudget {
			res.obsToConverge = obs
			res.finalRegret = r
			break
		}
	}
	if res.obsToConverge < 0 {
		return nil, fmt.Errorf("drift: served plans did not reach %.1f%% regret of the post-drift optimum within %d observations",
			100*spec.regretBudget, spec.obsBudget)
	}

	// Phase 3 — stability: once converged (the replan generation is
	// published), no response may fall back to a stale generation's plan.
	for i := 0; i < spec.stabilityProbe; i++ {
		probe, err = h.optimize(clientBody)
		if err != nil {
			return nil, err
		}
		res.verifiedSamples++
		if r := regretOn(newTruth, probe.Plan, postCost); r > spec.regretBudget {
			res.staleServed++
			res.finalRegret = r
		}
	}
	if res.staleServed > 0 {
		return nil, fmt.Errorf("drift: %d of %d post-convergence responses regressed beyond the regret budget (stale generation served)",
			res.staleServed, spec.stabilityProbe)
	}

	st := target.planner.Stats()
	res.generations = st.Generation
	res.replans = st.Replans
	if st.Generation == 0 {
		return nil, fmt.Errorf("drift: converged without ever publishing a generation")
	}
	if st.Replans == 0 {
		return nil, fmt.Errorf("drift: converged without an incumbent-seeded replan")
	}
	// Phase 4 — measurement. The convergence phases above are a handful
	// of requests (their wall-clock is noise, not signal); the summary's
	// throughput and latency instead come from a fixed-count window of
	// settled post-replan traffic: warm hits against the replanned entry
	// on a generation-stamped cache, with the usual 1-in-verifyEvery
	// responses decoded and held to the post-drift regret budget.
	h.lats = h.lats[:0]
	h.reqs = 0
	measureStart := time.Now()
	for i := 0; i < spec.measureReqs; i++ {
		if i%verifyEvery == 0 {
			probe, err = h.optimize(clientBody)
			if err != nil {
				return nil, err
			}
			res.verifiedSamples++
			if r := regretOn(newTruth, probe.Plan, postCost); r > spec.regretBudget {
				res.staleServed++
				return nil, fmt.Errorf("drift: measurement request %d regressed to regret %v (stale generation served)", i, r)
			}
		} else if err := h.drain(clientBody); err != nil {
			return nil, err
		}
	}
	measured := time.Since(measureStart)

	sort.Slice(h.lats, func(a, b int) bool { return h.lats[a] < h.lats[b] })
	res.entry = serveEntry{
		Requests:  h.reqs,
		ReqPerSec: float64(h.reqs) / measured.Seconds(),
		P50Micros: quantileMicros(h.lats, 0.50),
		P99Micros: quantileMicros(h.lats, 0.99),
		Verified:  res.verifiedSamples,
	}
	return res, nil
}

// noCtx is context.Background behind a name that reads better in the
// oracle call sites above.
func noCtx() context.Context { return context.Background() }
