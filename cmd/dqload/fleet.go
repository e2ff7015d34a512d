package main

// The fleet scenario: the multi-node serving story end to end. Three
// dqserve peers are self-hosted in one process, joined by consistent-hash
// plan sharding over the canonical signature space, and driven through the
// versioned /v1 surface. The scenario runs two phases:
//
//   - fleet-3peer: the corpus is warmed through one entry peer (every
//     request routed or forwarded to its owner, every warm entry
//     replicated owner -> replicas), then each peer is measured in its own
//     closed-loop window. The aggregate req/s is the sum of the per-peer
//     windows — on a single box the peers would otherwise just split the
//     CPU, so sequential windows are the honest approximation of one-peer-
//     per-box capacity. The gate: aggregate >= 2x a single-node reference
//     window of the same shape, and the cross-node cache hit rate
//     (requests answered from an entry that arrived over the wire) above
//     a floor.
//
//   - fleet-drift: the adaptive loop with the observer and the replanner
//     on DIFFERENT nodes. Execution reports of a drifted ground truth land
//     on one peer; its registry fits, publishes a new generation, and the
//     anchor snapshot gossips to the whole fleet; the owner of the
//     (moving) plan signature re-solves under the gossiped overlay; served
//     plans must re-converge to within the regret budget of the post-drift
//     optimum — every sampled response oracle-verified, exactly like the
//     single-node drift scenario.
//
// With >= 2 comma-separated -target URLs the scenario instead drives an
// externally hosted fleet: aggregate throughput plus hit rates scraped
// from each peer's /v1/stats (the drift phase stays self-hosted only — it
// must control the ground truth its reports describe).

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/calibrate"
	"serviceordering/internal/fleet"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
	"serviceordering/internal/robust"
	"serviceordering/internal/serve"
)

// fleetSpec fixes both fleet phases' shapes.
type fleetSpec struct {
	peers       int
	replication int

	// Warm aggregate phase.
	corpus     int
	n          int
	conc       int
	window     time.Duration // per-peer measurement window
	minAggMult float64       // aggregate must beat the single-node reference x this
	minHitRate float64       // cross-node hit-rate floor

	// Drift phase (mirrors driftSpec, but across nodes).
	driftN         int
	tuples         int64
	perturbScale   float64
	minOldRegret   float64
	regretBudget   float64
	obsBudget      int
	stabilityProbe int
	measureReqs    int
	robustSamples  int
}

func defaultFleetSpec(quick bool) fleetSpec {
	s := fleetSpec{
		peers:       3,
		replication: 3, // full replication: the read-heavy fleet shape
		corpus:      64,
		n:           12,
		conc:        8,
		window:      2500 * time.Millisecond,
		minAggMult:  2.0,
		minHitRate:  0.3,

		driftN:         10,
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
		s.window = 500 * time.Millisecond
		s.obsBudget = 250
		s.stabilityProbe = 15
		s.measureReqs = 3000
		s.robustSamples = 8
	}
	return s
}

// fleetResult carries both phases' traffic summaries plus the scenario
// metrics behind them.
type fleetResult struct {
	entry      serveEntry // fleet-3peer
	driftEntry serveEntry // fleet-drift (self-hosted runs only)

	perPeerRps []float64
	aggregate  float64
	hitRate    float64 // cross-node: replica hits + warm forward serves
	warmRef    float64 // the single-node reference the aggregate is gated on (self-hosted runs only)

	// Drift metrics.
	observer      string // peer the execution reports landed on
	obsToConverge int
	finalRegret   float64
	generations   uint64 // final (agreed) anchor generation
	gossipSent    int64
	gossipApplied int64
	remoteSolves  int64 // searches executed on non-observer peers during the drift
}

// fleetNode is one self-hosted fleet member: frame server, fleet peer,
// planner+registry, and the HTTP surface.
type fleetNode struct {
	url      string
	addr     string // peer frame address (the fleet identity)
	planner  *planner.Planner
	registry *adapt.Registry
	peer     *fleet.Peer
}

// startFleetNodes brings up n dqserve peers on loopback, sharing one fleet.
func startFleetNodes(n, replication int, adaptive adapt.Config) ([]*fleetNode, func(), error) {
	servers := make([]*fleet.PeerServer, 0, n)
	httpSrvs := make([]*http.Server, 0, n)
	cleanup := func() {
		for _, s := range httpSrvs {
			_ = s.Close()
		}
		for _, ps := range servers {
			_ = ps.Close()
		}
	}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ps, err := fleet.ListenPeer("127.0.0.1:0", "dqload-fleet")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		servers = append(servers, ps)
		addrs[i] = ps.Addr()
	}
	nodes := make([]*fleetNode, n)
	for i := 0; i < n; i++ {
		reg, err := adapt.New(adaptive)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		p := planner.New(planner.Config{Adaptive: reg})
		fp, err := fleet.New(fleet.Options{
			FleetID:     "dqload-fleet",
			Self:        addrs[i],
			Peers:       addrs,
			Replication: replication,
			Planner:     p,
			Registry:    reg,
			Server:      servers[i],
		})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		srv := &http.Server{Handler: serve.NewHandler(p, serve.Options{
			MaxBody: 64 << 20,
			Fleet:   fp,
		})}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		httpSrvs = append(httpSrvs, srv)
		go func() { _ = srv.Serve(ln) }()
		fp.Run()
		nodes[i] = &fleetNode{
			url:      "http://" + ln.Addr().String(),
			addr:     addrs[i],
			planner:  p,
			registry: reg,
			peer:     fp,
		}
	}
	closeAll := func() {
		for _, nd := range nodes {
			nd.peer.Close()
		}
		cleanup()
	}
	return nodes, closeAll, nil
}

// crossNodeHits extracts the two counters that make a request a
// cross-node cache hit: answered from a replicated entry, or forwarded and
// answered from the owner's warm cache.
func crossNodeHits(s fleet.Stats) int64 { return s.ReplicaHits + s.ForwardServedWarm }

// runFleetScenario drives both fleet phases. Self-hosted runs first
// measure a single-node reference window, which the fleet's aggregate is
// gated against.
func runFleetScenario(spec fleetSpec, opts loadOpts) (*fleetResult, error) {
	if opts.target != "" {
		return runFleetRemote(strings.Split(opts.target, ","), spec, opts)
	}
	transport := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512}
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	defer transport.CloseIdleConnections()

	res := &fleetResult{}

	// The single-node reference: the same corpus and window shape against
	// a plain (fleet-less) server.
	corp, err := buildCorpus(spec.corpus, spec.n, opts.seed, true)
	if err != nil {
		return nil, err
	}
	single, err := startTarget(loadOpts{seed: opts.seed})
	if err != nil {
		return nil, err
	}
	for i := range corp.bodies {
		probe, err := postV1Optimize(single.client, single.url, corp.bodies[i])
		if err != nil {
			single.close()
			return nil, fmt.Errorf("reference warmup %d: %w", i, err)
		}
		if err := verifySolved(corp, i, probe); err != nil {
			single.close()
			return nil, err
		}
	}
	ref, err := warmWindow(client, single.url, corp, spec.conc, spec.window, opts.seed)
	single.close()
	if err != nil {
		return nil, fmt.Errorf("reference window: %w", err)
	}
	res.warmRef = float64(ref.requests) / ref.elapsed.Seconds()

	// ---- fleet-3peer: warm through one entry peer, replicate, measure. ----
	nodes, closeNodes, err := startFleetNodes(spec.peers, spec.replication, adapt.Config{})
	if err != nil {
		return nil, err
	}
	defer closeNodes()

	// Warm every corpus entry through peer 0: wrong-owner requests forward,
	// owners solve fresh and queue replication to their replica sets.
	// Every response is oracle-verified before the clock starts.
	for i := range corp.bodies {
		probe, err := postV1Optimize(client, nodes[0].url, corp.bodies[i])
		if err != nil {
			return nil, fmt.Errorf("fleet warmup %d: %w", i, err)
		}
		if err := verifySolved(corp, i, probe); err != nil {
			return nil, fmt.Errorf("fleet warmup cross-check: %w", err)
		}
	}
	for _, nd := range nodes {
		nd.peer.FlushReplication()
	}

	var (
		allLats  []time.Duration
		requests int64
		verified int64
		cross    int64
	)
	for i, nd := range nodes {
		// Prime this peer's own surface before its clock starts — client
		// connections and the replicated entries it is about to serve —
		// with every response oracle-verified, exactly like the reference
		// server's warmup. The stats snapshot comes after, so the priming
		// pass doesn't inflate the measured cross-node hit rate.
		for j := range corp.bodies {
			probe, err := postV1Optimize(client, nd.url, corp.bodies[j])
			if err != nil {
				return nil, fmt.Errorf("priming peer %d with entry %d: %w", i, j, err)
			}
			if err := verifySolved(corp, j, probe); err != nil {
				return nil, fmt.Errorf("peer %d serves a wrong answer from its replica: %w", i, err)
			}
		}
		before := nd.peer.Stats()
		win, err := warmWindow(client, nd.url, corp, spec.conc, spec.window, opts.seed+int64(i)*977)
		if err != nil {
			return nil, fmt.Errorf("fleet window on peer %d: %w", i, err)
		}
		cross += crossNodeHits(nd.peer.Stats()) - crossNodeHits(before)
		rps := float64(win.requests) / win.elapsed.Seconds()
		res.perPeerRps = append(res.perPeerRps, rps)
		res.aggregate += rps
		requests += win.requests
		verified += win.verified
		allLats = append(allLats, win.latencies...)
	}
	if requests > 0 {
		res.hitRate = float64(cross) / float64(requests)
	}
	sort.Slice(allLats, func(a, b int) bool { return allLats[a] < allLats[b] })
	res.entry = serveEntry{
		Requests:  requests,
		ReqPerSec: res.aggregate,
		P50Micros: quantileMicros(allLats, 0.50),
		P99Micros: quantileMicros(allLats, 0.99),
		HitRate:   res.hitRate,
		Verified:  verified,
	}
	if res.aggregate < spec.minAggMult*res.warmRef {
		return nil, fmt.Errorf("fleet: aggregate %.0f req/s across %d peers is below %.1fx the single-node reference (%.0f req/s)",
			res.aggregate, spec.peers, spec.minAggMult, res.warmRef)
	}
	if res.hitRate < spec.minHitRate {
		return nil, fmt.Errorf("fleet: cross-node cache hit rate %.1f%% below the %.0f%% floor",
			100*res.hitRate, 100*spec.minHitRate)
	}

	// ---- fleet-drift: observer and replanner on different nodes. ----
	// A rare seed can land every post-drift re-solve on the observer (the
	// signature moves under the fitted overlay); retry on a fresh fleet
	// with the next seed rather than weakening the cross-node assertion.
	var lastErr error
	for attempt := int64(0); attempt < 3; attempt++ {
		if err := runFleetDrift(spec, opts.seed+attempt*101, client, res); err != nil {
			lastErr = err
			continue
		}
		return res, nil
	}
	return nil, fmt.Errorf("fleet drift: %w", lastErr)
}

// runFleetDrift executes the cross-node drift phase on a fresh adaptive
// fleet, filling in res.driftEntry and the drift metrics.
func runFleetDrift(spec fleetSpec, seed int64, client *http.Client, res *fleetResult) error {
	truth, err := gen.Default(spec.driftN, seed).Generate()
	if err != nil {
		return err
	}
	oracle := planner.New(planner.Config{})
	preOpt, err := oracle.Optimize(noCtx(), truth)
	if err != nil {
		return err
	}
	if !preOpt.Optimal {
		return fmt.Errorf("oracle could not prove the pre-drift optimum")
	}
	clientBody, err := json.Marshal(&model.Instance{Query: truth})
	if err != nil {
		return err
	}
	driftDelta, err := adapt.ThresholdFromRegret(truth, preOpt.Plan, spec.regretBudget, robust.Config{
		Deltas:  []float64{0.02, 0.05, 0.1, 0.2},
		Samples: spec.robustSamples,
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	if driftDelta > spec.perturbScale/2 {
		driftDelta = spec.perturbScale / 2
	}
	dspec := driftSpec{perturbScale: spec.perturbScale, minOldRegret: spec.minOldRegret}
	newTruth, _, postCost, _, err := perturbUntilPlanBreaks(truth, preOpt.Plan, dspec, seed)
	if err != nil {
		return err
	}

	nodes, closeNodes, err := startFleetNodes(spec.peers, spec.replication,
		adapt.Config{Alpha: 0.5, MinObservations: 2, DriftDelta: driftDelta})
	if err != nil {
		return err
	}
	defer closeNodes()

	// The observer must not be the pre-drift owner: reports land on one
	// node, the re-solve happens on another.
	sig, ok := nodes[0].planner.SignatureFor(truth)
	if !ok {
		return fmt.Errorf("SignatureFor refused the drift query")
	}
	ownerAddr := nodes[0].peer.Owner(sig)
	observerIdx := -1
	for i, nd := range nodes {
		if nd.addr != ownerAddr {
			observerIdx = i
			break
		}
	}
	observer := nodes[observerIdx]
	res.observer = observer.addr

	regretOn := func(q *model.Query, plan model.Plan, opt float64) float64 {
		return q.Cost(plan)/opt - 1
	}
	verified := int64(0)

	// Pre-drift: warm through the observer (forwarded to the owner), then
	// anchor every parameter at the still-accurate truth.
	probe, err := postV1Optimize(client, observer.url, clientBody)
	if err != nil {
		return err
	}
	if r := regretOn(truth, probe.Plan, preOpt.Cost); r > 1e-9 {
		return fmt.Errorf("fresh fleet served regret %v on the unperturbed truth", r)
	}
	verified++
	covering := calibrate.CoveringPlans(spec.driftN)
	for round := 0; round < 2; round++ {
		for _, plan := range covering {
			if err := postV1Observe(client, observer.url, analyticReport(truth, plan, spec.tuples)); err != nil {
				return err
			}
		}
	}

	searchesBefore := make([]int64, len(nodes))
	for i, nd := range nodes {
		searchesBefore[i] = nd.planner.Stats().Searches
	}

	// The services drift: reports of the new truth land on the observer;
	// each published generation gossips the fitted anchor fleet-wide and
	// the signature's owner re-solves under it.
	obsToConverge := -1
	finalRegret := 0.0
	for obs := 0; obs < spec.obsBudget; obs++ {
		plan := covering[obs%len(covering)]
		if err := postV1Observe(client, observer.url, analyticReport(newTruth, plan, spec.tuples)); err != nil {
			return err
		}
		probe, err = postV1Optimize(client, observer.url, clientBody)
		if err != nil {
			return err
		}
		if err := model.Plan(probe.Plan).Validate(truth); err != nil {
			return fmt.Errorf("served plan invalid: %w", err)
		}
		verified++
		if r := regretOn(newTruth, probe.Plan, postCost); r <= spec.regretBudget {
			obsToConverge = obs + 1
			finalRegret = r
			break
		}
	}
	if obsToConverge < 0 {
		return fmt.Errorf("served plans did not reach %.1f%% regret of the post-drift optimum within %d observations",
			100*spec.regretBudget, spec.obsBudget)
	}

	// Stability: no response may regress to a stale generation's plan.
	for i := 0; i < spec.stabilityProbe; i++ {
		probe, err = postV1Optimize(client, observer.url, clientBody)
		if err != nil {
			return err
		}
		verified++
		if r := regretOn(newTruth, probe.Plan, postCost); r > spec.regretBudget {
			return fmt.Errorf("post-convergence response %d regressed to regret %v", i, r)
		}
	}

	// The cross-node story, proven on the counters: the observer gossiped,
	// the others installed, everyone agrees on the generation, and at
	// least one NON-observer peer executed the re-solves.
	res.gossipSent = observer.peer.Stats().GossipSent
	if res.gossipSent == 0 {
		return fmt.Errorf("converged without the observer gossiping an anchor")
	}
	gen0 := observer.registry.Generation()
	if gen0 == 0 {
		return fmt.Errorf("converged without publishing a generation")
	}
	res.generations = gen0
	res.gossipApplied = 0
	res.remoteSolves = 0
	for i, nd := range nodes {
		if nd.registry.Generation() != gen0 {
			return fmt.Errorf("peer %s at generation %d, observer at %d — gossip did not converge",
				nd.addr, nd.registry.Generation(), gen0)
		}
		if nd != observer {
			res.gossipApplied += nd.peer.Stats().GossipApplied
			res.remoteSolves += nd.planner.Stats().Searches - searchesBefore[i]
		}
	}
	if res.gossipApplied == 0 {
		return fmt.Errorf("no peer applied a gossiped anchor")
	}
	if res.remoteSolves == 0 {
		return fmt.Errorf("every post-drift re-solve landed on the observer (signature never left it)")
	}
	res.obsToConverge = obsToConverge
	res.finalRegret = finalRegret

	// Measurement: settled post-replan traffic through the observer entry
	// point, served from the replicated converged entry.
	for _, nd := range nodes {
		nd.peer.FlushReplication()
	}
	lats := make([]time.Duration, 0, spec.measureReqs)
	reqs := int64(0)
	measureStart := time.Now()
	for i := 0; i < spec.measureReqs; i++ {
		t0 := time.Now()
		if i%verifyEvery == 0 {
			probe, err = postV1Optimize(client, observer.url, clientBody)
			if err != nil {
				return err
			}
			verified++
			if r := regretOn(newTruth, probe.Plan, postCost); r > spec.regretBudget {
				return fmt.Errorf("measurement request %d regressed to regret %v (stale generation served)", i, r)
			}
		} else if err := drainV1Optimize(client, observer.url, clientBody); err != nil {
			return err
		}
		lats = append(lats, time.Since(t0))
		reqs++
	}
	measured := time.Since(measureStart)
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	res.driftEntry = serveEntry{
		Requests:  reqs,
		ReqPerSec: float64(reqs) / measured.Seconds(),
		P50Micros: quantileMicros(lats, 0.50),
		P99Micros: quantileMicros(lats, 0.99),
		Verified:  verified,
	}
	return nil
}

// scrapeV1Fleet reads the fleet block of a peer's /v1/stats.
func scrapeV1Fleet(client *http.Client, baseURL string) (fleet.Stats, error) {
	st, err := getV1Stats(client, baseURL)
	if err != nil {
		return fleet.Stats{}, err
	}
	if st.Fleet == nil {
		return fleet.Stats{}, fmt.Errorf("%s/v1/stats reports no fleet block (not a fleet member?)", baseURL)
	}
	return *st.Fleet, nil
}

// runFleetRemote drives an externally hosted fleet: warm through the first
// target, then one window per target; hit rates come from each peer's
// /v1/stats. The drift phase is skipped — the scenario cannot control a
// remote fleet's ground truth.
func runFleetRemote(targets []string, spec fleetSpec, opts loadOpts) (*fleetResult, error) {
	if len(targets) < 2 {
		return nil, fmt.Errorf("fleet: need >= 2 comma-separated -target URLs, got %d", len(targets))
	}
	for i := range targets {
		targets[i] = strings.TrimRight(strings.TrimSpace(targets[i]), "/")
	}
	transport := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512}
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	defer transport.CloseIdleConnections()

	corp, err := buildCorpus(spec.corpus, spec.n, opts.seed, true)
	if err != nil {
		return nil, err
	}
	for i := range corp.bodies {
		probe, err := postV1Optimize(client, targets[0], corp.bodies[i])
		if err != nil {
			return nil, fmt.Errorf("fleet warmup %d: %w", i, err)
		}
		if err := verifySolved(corp, i, probe); err != nil {
			return nil, err
		}
	}
	// Replication drains asynchronously on remote peers; give it a beat.
	time.Sleep(500 * time.Millisecond)

	res := &fleetResult{}
	var (
		allLats  []time.Duration
		requests int64
		verified int64
		cross    int64
	)
	for i, u := range targets {
		// Prime this peer's connections and replicas before its window
		// (verified), then measure against its scraped counters.
		for j := range corp.bodies {
			probe, err := postV1Optimize(client, u, corp.bodies[j])
			if err != nil {
				return nil, fmt.Errorf("priming %s with entry %d: %w", u, j, err)
			}
			if err := verifySolved(corp, j, probe); err != nil {
				return nil, fmt.Errorf("%s serves a wrong answer: %w", u, err)
			}
		}
		before, err := scrapeV1Fleet(client, u)
		if err != nil {
			return nil, err
		}
		win, err := warmWindow(client, u, corp, spec.conc, spec.window, opts.seed+int64(i)*977)
		if err != nil {
			return nil, fmt.Errorf("fleet window on %s: %w", u, err)
		}
		after, err := scrapeV1Fleet(client, u)
		if err != nil {
			return nil, err
		}
		cross += crossNodeHits(after) - crossNodeHits(before)
		rps := float64(win.requests) / win.elapsed.Seconds()
		res.perPeerRps = append(res.perPeerRps, rps)
		res.aggregate += rps
		requests += win.requests
		verified += win.verified
		allLats = append(allLats, win.latencies...)
	}
	if requests > 0 {
		res.hitRate = float64(cross) / float64(requests)
	}
	sort.Slice(allLats, func(a, b int) bool { return allLats[a] < allLats[b] })
	res.entry = serveEntry{
		Requests:  requests,
		ReqPerSec: res.aggregate,
		P50Micros: quantileMicros(allLats, 0.50),
		P99Micros: quantileMicros(allLats, 0.99),
		HitRate:   res.hitRate,
		Verified:  verified,
	}
	return res, nil
}
