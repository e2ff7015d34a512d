package main

// The overload and restart scenarios: overload survival end to end
// against the production serving stack.
//
// overload drives a self-hosted admission-controlled server at a
// multiple of its calibrated cold-path saturation rate with a mixed
// warm/cold open-loop arrival stream, bumps the statistics generation
// mid-run (so the warm working set goes stale), and holds the node to the
// survival contract: every refusal is a 429 with a Retry-After estimate
// and a typed reason, every admitted response is a correct plan (shed,
// but never wrong), stale-served responses carry "stale": true with the
// previous generation's exact answer, and the background replan shows up
// in /v1/stats. Admitted latency stays bounded by construction (the
// admission queue is bounded); the summary reports it.
//
// restart primes a server, snapshots its plan cache, boots a
// fresh server from the snapshot, and requires the first measurement
// window (one unique sweep of the working set) to be served ≥ 90% from
// cache with every response matching the oracle.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/admit"
	"serviceordering/internal/calibrate"
	"serviceordering/internal/planner"
)

// overloadSpec fixes the overload scenario's shape.
type overloadSpec struct {
	n             int           // warm corpus base service count
	corpus        int           // warm working-set size
	coldPool      int           // unique cold queries available to the arrival stream
	maxConcurrent int           // admission slots
	maxQueue      int           // admission queue bound
	maxWait       time.Duration // max queue wait before a 429
	coldShare     float64       // fraction of arrivals that are first-sight queries
	rateMultiple  float64       // offered cold load as a multiple of calibrated cold capacity
	calibrateReqs int           // sequential cold solves used to estimate service time
	window        time.Duration // measurement window
	driftAt       float64       // fraction of the window after which the generation bump fires
}

func defaultOverloadSpec(quick bool) overloadSpec {
	s := overloadSpec{
		n:             10,
		corpus:        32,
		coldPool:      20000,
		maxConcurrent: 1,
		maxQueue:      8,
		maxWait:       10 * time.Millisecond,
		coldShare:     0.5,
		rateMultiple:  4,
		calibrateReqs: 64,
		window:        2 * time.Second,
		driftAt:       0.3,
	}
	if quick {
		s.window = 800 * time.Millisecond
		s.calibrateReqs = 32
	}
	return s
}

// overloadResult carries the scenario metrics beyond its traffic summary.
type overloadResult struct {
	entry       serveEntry
	offeredRate float64 // arrivals per second actually scheduled
	admitted    int64
	sheds       int64
	staleServed int64 // responses flagged "stale": true (client-observed)
	bgReplans   int64 // background replans visible in /v1/stats afterwards
}

// overloadProbe decodes the full survival-relevant response surface.
type overloadProbe struct {
	solvedProbe
	Stale bool `json:"stale"`
}

func typedShedReason(r string) bool {
	switch admit.Reason(r) {
	case admit.ReasonQueueFull, admit.ReasonColdShed, admit.ReasonTenantOverShare, admit.ReasonWaitTimeout:
		return true
	}
	return false
}

// runOverloadScenario executes the overload scenario. Self-hosted only: the
// scenario must control the admission configuration and the statistics
// generation.
func runOverloadScenario(spec overloadSpec, opts loadOpts) (*overloadResult, error) {
	if opts.target != "" {
		return nil, fmt.Errorf("overload: the scenario self-hosts its server; -target is not supported")
	}
	// Admission pressure requires arrivals and in-flight planning work to
	// interleave. On a single-P runtime an admitted CPU-bound search
	// (hundreds of microseconds — far below the async-preemption quantum)
	// convoys every other goroutine: no request ever observes a busy slot,
	// the queue never forms, and the scenario would measure an idle server.
	// Overcommitting Ps lets the OS timeslice client and server threads
	// the way separate processes would be.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	adaptiveCfg := adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05}
	hostOpts := opts
	hostOpts.adaptive = &adaptiveCfg
	hostOpts.admission = &admit.Options{
		MaxConcurrent: spec.maxConcurrent,
		MaxQueue:      spec.maxQueue,
		MaxWait:       spec.maxWait,
	}
	hostOpts.staleServe = true
	// Sequential search keeps cold service times deterministic (a parallel
	// search would spread one admitted request across every core, competing
	// with the in-process client and making "saturation" load-dependent).
	hostOpts.sequential = true
	target, err := startTarget(hostOpts)
	if err != nil {
		return nil, err
	}
	defer target.close()

	// The warm working set, oracle-verified; and the unique-query stream
	// that provides the cold pressure.
	warmCorp, err := buildCorpus(spec.corpus, spec.n, opts.seed, true)
	if err != nil {
		return nil, err
	}
	for i := range warmCorp.bodies {
		probe, err := postV1Optimize(target.client, target.url, warmCorp.bodies[i])
		if err != nil {
			return nil, fmt.Errorf("warming corpus entry %d: %w", i, err)
		}
		if err := verifySolved(warmCorp, i, probe); err != nil {
			return nil, fmt.Errorf("warmup cross-check failed: %w", err)
		}
	}

	// Calibrate the cold path: sequential first-sight solves establish the
	// mean service time, hence the saturation rate of the admission slots.
	// The cold query size is chosen by the calibration itself — grown until
	// a cold solve costs at least a millisecond — so that rateMultiple
	// times the saturation rate stays within what a single-process client
	// can actually generate. A fast machine gets harder cold queries, not a
	// silently-capped (and then not overloading) offered rate. Growth stops
	// below the heuristic tier's threshold: past it queries get cheaper
	// again, not more expensive.
	maxColdN := planner.DefaultHeuristicThreshold - 1
	coldN := spec.n + 2
	var meanCold time.Duration
	for {
		probeCorp, err := buildCorpus(spec.calibrateReqs, coldN, opts.seed+9_000_000+int64(coldN), false)
		if err != nil {
			return nil, err
		}
		calStart := time.Now()
		for i := range probeCorp.bodies {
			if _, err := postV1Optimize(target.client, target.url, probeCorp.bodies[i]); err != nil {
				return nil, fmt.Errorf("calibration request %d (n=%d): %w", i, coldN, err)
			}
		}
		meanCold = time.Since(calStart) / time.Duration(spec.calibrateReqs)
		if meanCold >= time.Millisecond || coldN >= maxColdN {
			break
		}
		coldN++
	}
	if meanCold <= 0 {
		meanCold = time.Millisecond
	}
	satRate := float64(spec.maxConcurrent) / meanCold.Seconds()
	offered := spec.rateMultiple * satRate / spec.coldShare
	if offered > 8000 {
		offered = 8000 // keep the single-process client out of saturation
	}
	coldCorp, err := buildCorpus(spec.coldPool, coldN, opts.seed+7_000_000, false)
	if err != nil {
		return nil, err
	}

	// The drifted truth for the generation bump: the whole warm working
	// set keeps its structure, but corpus entry 0's services get new
	// statistics (one covering sweep publishes under MinObservations 1).
	driftQuery := warmCorp.queries[0].Clone()
	for i := range driftQuery.Services {
		driftQuery.Services[i].Cost *= 2
	}
	driftQuery.Services[0].Selectivity *= 0.5

	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		admittedLat []time.Duration
		firstErr    atomic.Pointer[error]
		admitted    atomic.Int64
		sheds       atomic.Int64
		stale       atomic.Int64
		verified    atomic.Int64
		nextCold    atomic.Int64
	)
	fail := func(err error) { firstErr.CompareAndSwap(nil, &err) }
	var driftFlag atomic.Bool // set just before the drift observe is posted
	rng := rand.New(rand.NewSource(opts.seed * 6007))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(spec.corpus-1))
	interval := time.Duration(float64(time.Second) / offered)
	// The outstanding cap: the point is sustained pressure on the admission
	// queue, not an unbounded connection pile-up on the client side.
	sem := make(chan struct{}, 256)
	start := time.Now()
	deadline := start.Add(spec.window)
	driftTime := start.Add(time.Duration(spec.driftAt * float64(spec.window)))
	drifted := false

	dispatched := 0
	for n := 0; ; n++ {
		arrival := start.Add(time.Duration(n) * interval)
		// Two exits: the schedule ran out, or the wall clock did (the
		// dispatcher fell behind the schedule — the achieved rate in the
		// result exposes the shortfall). Without the second exit an
		// infeasible schedule would stretch the scenario far past its window.
		if arrival.After(deadline) || time.Now().After(deadline) {
			break
		}
		if d := time.Until(arrival); d > 0 {
			time.Sleep(d)
		}
		if firstErr.Load() != nil {
			break
		}
		if !drifted && time.Now().After(driftTime) {
			// The generation bump: ONE observation of the drifted truth,
			// POSTed through /v1/observe like production. A single report
			// (Alpha 1, MinObservations 1) publishes a single generation,
			// which keeps the oracle sharp: every stale-served answer then
			// comes verbatim from a generation-0 entry whose cost the
			// corpus knows. A burst of reports would publish several
			// generations, and an entry re-optimized under an intermediate
			// overlay could later be stale-served at that overlay's cost —
			// correct behavior, but unverifiable from the client.
			driftFlag.Store(true)
			plan := calibrate.CoveringPlans(len(driftQuery.Services))[0]
			if err := postV1Observe(target.client, target.url, analyticReport(driftQuery, plan, 100000)); err != nil {
				fail(fmt.Errorf("overload: drift observe: %w", err))
				break
			}
			drifted = true
		}

		var idx int
		var body []byte
		cold := rng.Float64() < spec.coldShare
		if cold {
			i := nextCold.Add(1) - 1
			if i >= int64(len(coldCorp.bodies)) {
				fail(fmt.Errorf("overload: cold pool exhausted after %d arrivals; grow coldPool", i))
				break
			}
			idx = int(i)
			body = coldCorp.bodies[idx]
		} else {
			idx = int(zipf.Uint64())
			body = warmCorp.bodies[idx]
		}
		preDrift := !driftFlag.Load()

		sem <- struct{}{}
		wg.Add(1)
		dispatched++
		go func(idx int, body []byte, cold, preDrift bool) {
			defer wg.Done()
			defer func() { <-sem }()
			// Admitted latency is measured from dispatch: the server-side
			// bound the admission queue enforces (wait + service), which is
			// what "bounded admitted p99 under overload" promises. Latency
			// from the scheduled arrival would mostly measure the client's
			// own backlog once the offered schedule is infeasible.
			dispatch := time.Now()
			resp, err := target.client.Post(target.url+"/v1/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				fail(err)
				return
			}
			defer resp.Body.Close()
			lat := time.Since(dispatch)
			probe, shed, err := readV1[overloadProbe](resp.Body)
			if err != nil {
				fail(fmt.Errorf("overload: undecodable status %d answer: %w", resp.StatusCode, err))
				return
			}
			switch resp.StatusCode {
			case http.StatusOK:
				corp := coldCorp
				if !cold {
					corp = warmCorp
				}
				if err := probe.Plan.Validate(corp.queries[idx]); err != nil {
					fail(fmt.Errorf("overload: admitted response carries an infeasible plan: %w", err))
					return
				}
				switch {
				case probe.Stale:
					// Degraded mode must stay honest: the previous
					// generation's exact answer, only ever for the warm
					// working set (cold queries have no stale plan to serve).
					if cold {
						fail(fmt.Errorf("overload: first-sight query served stale"))
						return
					}
					if probe.Cost != warmCorp.expected[idx] {
						fail(fmt.Errorf("overload: stale response cost %v, pre-drift optimum %v", probe.Cost, warmCorp.expected[idx]))
						return
					}
					stale.Add(1)
					verified.Add(1)
				case !cold && preDrift && !driftFlag.Load():
					// The request's whole lifetime was pre-bump (a request
					// dispatched before the bump can queue through it and be
					// legitimately re-optimized under the drifted overlay, so
					// only both-sides-pre-bump responses face the oracle):
					// the warm set must be served at the proven optimum —
					// shed, but never wrong.
					if err := verifySolved(warmCorp, idx, probe.solvedProbe); err != nil {
						fail(fmt.Errorf("overload: admitted pre-drift response failed the oracle: %w", err))
						return
					}
					verified.Add(1)
				}
				admitted.Add(1)
				mu.Lock()
				admittedLat = append(admittedLat, lat)
				mu.Unlock()
			case http.StatusTooManyRequests:
				retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
				if err != nil || retry < 1 {
					fail(fmt.Errorf("overload: 429 without a positive Retry-After header (%q)", resp.Header.Get("Retry-After")))
					return
				}
				if shed == nil || shed.Code != "overloaded" || !typedShedReason(shed.Reason) {
					fail(fmt.Errorf("overload: 429 without a typed overloaded error: %+v", shed))
					return
				}
				sheds.Add(1)
			default:
				fail(fmt.Errorf("overload: status %d under load: %+v", resp.StatusCode, shed))
			}
		}(idx, body, cold, preDrift)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}

	res := &overloadResult{
		// The achieved offered rate, not the scheduled one: when the
		// dispatcher can't sustain the schedule, this is the pressure the
		// server actually saw.
		offeredRate: float64(dispatched) / elapsed.Seconds(),
		admitted:    admitted.Load(),
		sheds:       sheds.Load(),
		staleServed: stale.Load(),
	}
	if res.admitted == 0 {
		return nil, fmt.Errorf("overload: zero admitted requests — admission shed everything")
	}
	if res.sheds == 0 {
		st, _ := getV1Stats(target.client, target.url)
		return nil, fmt.Errorf("overload: %.0f req/s offered (%.1fx calibrated saturation) never shed — no overload was created (dispatched %d in %v, admitted %d, coldN %d, meanCold %v, overload %+v)",
			offered, spec.rateMultiple, dispatched, elapsed, res.admitted, coldN, meanCold, st.Overload)
	}
	if res.staleServed == 0 {
		return nil, fmt.Errorf("overload: the generation bump never produced a stale-served response (planner generation %d, %d admitted, %d shed)",
			target.planner.Stats().Generation, res.admitted, res.sheds)
	}

	// The background replan must land: the degraded answers bought time
	// for a real re-optimize, not a permanent downgrade. The generous
	// deadline only binds on failure — a loaded CI box can starve the
	// single replan worker for seconds without meaning anything is wrong.
	statsDeadline := time.Now().Add(15 * time.Second)
	for {
		st, err := getV1Stats(target.client, target.url)
		if err != nil {
			return nil, err
		}
		if st.Overload == nil {
			return nil, fmt.Errorf("overload: /v1/stats has no overload block")
		}
		res.bgReplans = st.Overload.BackgroundReplans
		if res.bgReplans >= 1 {
			break
		}
		if time.Now().After(statsDeadline) {
			return nil, fmt.Errorf("overload: %d stale-served responses but no background replan in /v1/stats", res.staleServed)
		}
		time.Sleep(10 * time.Millisecond)
	}

	sort.Slice(admittedLat, func(a, b int) bool { return admittedLat[a] < admittedLat[b] })
	res.entry = serveEntry{
		Requests:  res.admitted,
		ReqPerSec: float64(res.admitted) / elapsed.Seconds(),
		P50Micros: quantileMicros(admittedLat, 0.50),
		P99Micros: quantileMicros(admittedLat, 0.99),
		Verified:  verified.Load(),
		ShedRate:  float64(res.sheds) / float64(res.sheds+res.admitted),
	}
	return res, nil
}

// restartSpec fixes the restart scenario's shape.
type restartSpec struct {
	n      int
	corpus int
	window time.Duration // post-sweep warm measurement window
}

func defaultRestartSpec(quick bool) restartSpec {
	s := restartSpec{n: 10, corpus: 64, window: 1500 * time.Millisecond}
	if quick {
		s.window = 500 * time.Millisecond
	}
	return s
}

// restartResult carries the scenario metrics beyond its traffic summary.
type restartResult struct {
	entry              serveEntry
	snapshotBytes      int
	firstWindowHitRate float64
}

// runRestartScenario: prime, snapshot, boot a fresh server from the
// snapshot, and require the first measurement window to be warm.
func runRestartScenario(spec restartSpec, opts loadOpts) (*restartResult, error) {
	if opts.target != "" {
		return nil, fmt.Errorf("restart: the scenario self-hosts its servers; -target is not supported")
	}
	corp, err := buildCorpus(spec.corpus, spec.n, opts.seed, true)
	if err != nil {
		return nil, err
	}

	// First life: plan the working set, then dump the cache.
	first, err := startTarget(opts)
	if err != nil {
		return nil, err
	}
	for i := range corp.bodies {
		probe, err := postV1Optimize(first.client, first.url, corp.bodies[i])
		if err != nil {
			first.close()
			return nil, fmt.Errorf("priming corpus entry %d: %w", i, err)
		}
		if err := verifySolved(corp, i, probe); err != nil {
			first.close()
			return nil, fmt.Errorf("priming cross-check failed: %w", err)
		}
	}
	var snap writeCounter
	if _, err := first.planner.SaveSnapshot(&snap); err != nil {
		first.close()
		return nil, fmt.Errorf("restart: snapshot dump: %w", err)
	}
	first.close()

	// Second life: a fresh planner, warm-booted from the snapshot.
	bootOpts := opts
	bootOpts.snapshot = snap.buf
	second, err := startTarget(bootOpts)
	if err != nil {
		return nil, err
	}
	defer second.close()

	// First measurement window: one unique sweep of the working set. Every
	// answer must match the oracle, and >= 90% must come from the restored
	// cache (no searches).
	before := second.planner.Stats()
	for i := range corp.bodies {
		probe, err := postV1Optimize(second.client, second.url, corp.bodies[i])
		if err != nil {
			return nil, fmt.Errorf("restart: first-window request %d: %w", i, err)
		}
		if err := verifySolved(corp, i, probe); err != nil {
			return nil, fmt.Errorf("restart: warm-booted response failed the oracle: %w", err)
		}
	}
	after := second.planner.Stats()
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	res := &restartResult{snapshotBytes: len(snap.buf)}
	if hits+misses > 0 {
		res.firstWindowHitRate = float64(hits) / float64(hits+misses)
	}
	if res.firstWindowHitRate < 0.9 {
		return nil, fmt.Errorf("restart: first-window hit rate %.1f%% from snapshot, want >= 90%% (%d hits, %d misses)",
			100*res.firstWindowHitRate, hits, misses)
	}

	// Steady-state warm traffic for the summary's throughput and latency.
	mres, err := warmWindow(second.client, second.url, corp, 4, spec.window, opts.seed)
	if err != nil {
		return nil, err
	}
	if mres.requests == 0 {
		return nil, fmt.Errorf("restart: measurement window completed zero requests")
	}
	sort.Slice(mres.latencies, func(a, b int) bool { return mres.latencies[a] < mres.latencies[b] })
	res.entry = serveEntry{
		Requests:  mres.requests,
		ReqPerSec: float64(mres.requests) / mres.elapsed.Seconds(),
		P50Micros: quantileMicros(mres.latencies, 0.50),
		P99Micros: quantileMicros(mres.latencies, 0.99),
		Verified:  mres.verified,
		HitRate:   res.firstWindowHitRate,
	}
	return res, nil
}

// writeCounter buffers a snapshot in memory (the restart scenario
// round-trips the exact on-disk format without touching disk).
type writeCounter struct{ buf []byte }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}
