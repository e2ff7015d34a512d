package serviceordering

import (
	"context"
	"net/http"

	"serviceordering/internal/adapt"
	"serviceordering/internal/admit"
	"serviceordering/internal/baseline"
	"serviceordering/internal/core"
	"serviceordering/internal/exec"
	"serviceordering/internal/faultinject"
	"serviceordering/internal/fleet"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
	"serviceordering/internal/serve"
	"serviceordering/internal/sim"
)

// Core problem types, re-exported from the internal model.
type (
	// Service describes one web service: per-tuple cost and selectivity.
	Service = model.Service

	// Query is a problem instance: services, the pairwise transfer-cost
	// matrix, and optional source/sink/precedence extensions.
	Query = model.Query

	// Plan is a linear ordering of a query's services.
	Plan = model.Plan

	// Breakdown is a per-stage decomposition of a plan's bottleneck
	// cost.
	Breakdown = model.Breakdown

	// Instance is the JSON interchange document used by the CLI tools.
	Instance = model.Instance
)

// Optimizer types, re-exported from the branch-and-bound core.
type (
	// Options tunes the branch-and-bound search (pruning-rule toggles,
	// budgets, incumbent seeding).
	Options = core.Options

	// Result is an optimization outcome: plan, cost, optimality proof
	// flag, and search statistics.
	Result = core.Result

	// SearchStats counts the work a search performed and what each
	// pruning rule contributed.
	SearchStats = core.Stats
)

// Execution types, re-exported from the simulator and the executor's
// wall-clock runs.
type (
	// SimConfig parameterizes the discrete-event simulator.
	SimConfig = sim.Config

	// SimReport is a simulation outcome (measured vs predicted period,
	// per-stage metrics).
	SimReport = sim.Report

	// WallClockConfig parameterizes Execute: tuples, block size, queue
	// depth, the wall-clock duration of one cost unit, and whether calls
	// cross a loopback HTTP service wire.
	WallClockConfig = exec.WallClockConfig

	// WallClockReport is an Execute outcome (wall-clock makespan, measured
	// against predicted period, per-stage accounts).
	WallClockReport = exec.WallClockReport

	// GenParams describes a random instance distribution for workload
	// generation.
	GenParams = gen.Params
)

// Planner service-layer types, re-exported from the internal planner.
type (
	// Planner serves optimization requests through a canonical plan
	// cache with singleflight deduplication and batch fan-out; safe for
	// concurrent use.
	Planner = planner.Planner

	// PlannerConfig tunes a Planner (cache capacity, the exact search's
	// node and time budgets). The zero value is production-ready.
	PlannerConfig = planner.Config

	// PlannerResult is a planner outcome: the optimization result plus
	// cache provenance (Cached, Shared, Signature).
	PlannerResult = planner.Result

	// PlannerStats is a snapshot of the planner's cache and dedup
	// counters.
	PlannerStats = planner.Stats

	// PlanSignature is the canonical identity of a query: equal for
	// structurally identical queries regardless of service numbering.
	PlanSignature = planner.Signature

	// BatchResult pairs one batch instance's outcome with its input
	// position and per-instance error.
	BatchResult = planner.BatchResult
)

// Adaptive replanning types, re-exported from internal/adapt: the online
// statistics registry behind PlannerConfig.Adaptive and dqserve -adaptive.
type (
	// AdaptiveRegistry ingests execution reports, maintains decayed
	// sample-size-weighted parameter estimates, and publishes generation
	// snapshots on significant drift —
	// attach one via PlannerConfig.Adaptive to close the observe ->
	// detect -> invalidate -> re-optimize loop.
	AdaptiveRegistry = adapt.Registry

	// AdaptiveConfig tunes the registry (decay alpha, confidence floor,
	// drift threshold). The zero value is production-ready.
	AdaptiveConfig = adapt.Config

	// ExecutionReport is one observed execution: per-service tuple
	// counts and busy times, per-edge transfer observations — the POST
	// /v1/observe payload of dqserve.
	ExecutionReport = adapt.Report
)

// Streaming-executor types, re-exported from internal/exec and
// internal/faultinject: the production plan runner behind dqserve
// -exec-backend and POST /v1/execute, and its deterministic fault harness.
type (
	// Executor runs optimized plans as pipelined, credit-backpressured
	// streams of real per-service calls, with per-call timeouts, budgeted
	// retries, circuit breakers, and typed partial-result degradation.
	Executor = exec.Executor

	// ExecOptions tunes an Executor (block size, timeouts, retry budget,
	// breaker thresholds, end-to-end deadline). The zero value is
	// production-ready.
	ExecOptions = exec.Options

	// ExecResult is one execution outcome: output tuples, per-stage
	// accounts, and the Degraded marker when the result is partial.
	ExecResult = exec.Result

	// ExecBackend is the pluggable service-call interface an Executor
	// drives (HTTPBackend posts blocks to real endpoints; MockBackend
	// hash-filters deterministically for tests).
	ExecBackend = exec.Backend

	// ExecStats snapshots an Executor's counters, including per-service
	// breaker states.
	ExecStats = exec.Stats

	// Degraded marks a partial execution result: the failed stage,
	// service, and typed reason. A degraded result is a subset of the
	// true answer, never a wrong one.
	Degraded = exec.Degraded

	// ExecReplicaBackend extends ExecBackend with replica awareness: a
	// backend reporting >= 2 replicas for a service arms hedged calls
	// against it.
	ExecReplicaBackend = exec.ReplicaBackend

	// FailoverReport records one plan-aware failover: the failed service,
	// the re-solved residual suffix, and whether the rescue recovered the
	// full answer.
	FailoverReport = exec.FailoverReport

	// HedgeReport tallies one execution's hedged attempts (launched, won,
	// canceled).
	HedgeReport = exec.HedgeReport

	// ExecResidualPlanner re-solves the residual query a failover builds
	// around a failed stage; install one with Executor.SetResidualPlanner
	// (defaults to a direct branch-and-bound solve).
	ExecResidualPlanner = exec.ResidualPlanner

	// ReliabilityParams is a service's fitted failure profile (error rate,
	// spike rate); its InflationFactor prices unreliability into planning
	// cost as the expected attempts per successful call.
	ReliabilityParams = adapt.ReliabilityParams

	// Tuple is the opaque row identifier flowing through an execution.
	Tuple = exec.Tuple

	// MockBackend is the deterministic in-process backend (seeded
	// hash-filtering, virtual processing time).
	MockBackend = exec.MockBackend

	// MockService fixes one mock service's per-tuple cost and
	// selectivity.
	MockService = exec.MockService

	// HTTPBackend calls real service endpoints: POST {base}/call/{name}
	// per block.
	HTTPBackend = exec.HTTPBackend

	// FaultInjector wraps any ExecBackend with a deterministic fault
	// plan; decisions are pure functions of (seed, service, call index).
	FaultInjector = faultinject.Injector

	// FaultPlan maps service names to their injected fault behavior.
	FaultPlan = faultinject.Plan

	// Faults describes one service's injected failures: error rate,
	// latency spikes, trickle delays, and a blackout window.
	Faults = faultinject.Faults
)

// NewQuery builds and validates a query from services and a transfer-cost
// matrix.
func NewQuery(services []Service, transfer [][]float64) (*Query, error) {
	return model.NewQuery(services, transfer)
}

// Optimize finds a provably optimal plan with the paper's full
// branch-and-bound algorithm.
func Optimize(q *Query) (Result, error) { return core.Optimize(q) }

// OptimizeWithOptions runs the branch-and-bound search with explicit
// options (ablation toggles, node/time budgets, incumbent seed).
func OptimizeWithOptions(q *Query, opts Options) (Result, error) {
	return core.OptimizeWithOptions(q, opts)
}

// NewPlanner builds the planner service layer: a canonical plan cache in
// front of the branch-and-bound core, with singleflight deduplication of
// concurrent identical requests and OptimizeBatch fan-out.
// Use it instead of Optimize when the same (or structurally identical)
// queries recur across requests.
func NewPlanner(cfg PlannerConfig) *Planner { return planner.New(cfg) }

// NewAdaptiveRegistry builds the online statistics registry of the
// adaptive replanning loop (zero config = defaults). Attach it to a
// planner via PlannerConfig.Adaptive and feed it execution reports with
// Observe; drift past the threshold publishes a new statistics generation
// that lazily invalidates every cached plan computed under the old one.
func NewAdaptiveRegistry(cfg AdaptiveConfig) (*AdaptiveRegistry, error) { return adapt.New(cfg) }

// DriftThresholdFromRegret derives an AdaptiveConfig.DriftDelta from a
// regret budget: the largest perturbation scale (probed by the robust
// Monte Carlo analysis) that plan survives on q with worst-case regret
// within budget.
func DriftThresholdFromRegret(q *Query, plan Plan, budget float64, cfg RobustConfig) (float64, error) {
	return adapt.ThresholdFromRegret(q, plan, budget, cfg)
}

// Baselines returns the comparison algorithms keyed by name: exhaustive,
// greedy variants, the Srivastava et al. uniform-communication optimum,
// random sampling, local search, and simulated annealing. Each returns
// its best plan and cost.
func Baselines() map[string]func(*Query) (Plan, float64, error) {
	out := make(map[string]func(*Query) (Plan, float64, error))
	for name, algo := range baseline.Registry() {
		algo := algo
		out[name] = func(q *Query) (Plan, float64, error) {
			res, err := algo(q)
			if err != nil {
				return nil, 0, err
			}
			return res.Plan, res.Cost, nil
		}
	}
	return out
}

// Simulate runs the discrete-event simulator: plan p executed as a
// pipelined decentralized query, reporting the measured per-tuple period
// against Eq. (1)'s prediction.
func Simulate(q *Query, p Plan, cfg SimConfig) (*SimReport, error) {
	return sim.Run(q, p, cfg)
}

// DefaultSimConfig returns the simulator settings used by the experiment
// suite.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Execute runs plan p as the paper's decentralized pipeline on the
// production executor, every service call sleeping its modeled cost, and
// reports the wall-clock makespan against Eq. (1)'s prediction.
func Execute(ctx context.Context, q *Query, p Plan, cfg WallClockConfig) (*WallClockReport, error) {
	return exec.RunWallClock(ctx, q, p, cfg)
}

// NewExecutor builds the production streaming executor over a backend:
// per-call timeouts, budgeted retries, circuit breakers, and typed
// partial-result degradation. Execute runs the same engine against
// modeled costs.
func NewExecutor(b ExecBackend, opts ExecOptions) *Executor { return exec.New(b, opts) }

// NewMockBackend builds the deterministic in-process backend: tuples are
// hash-filtered by (seed, service, tuple), and processing time is
// reported virtually (cost x tuples) without sleeping.
func NewMockBackend(seed int64) *MockBackend { return exec.NewMockBackend(seed) }

// ExecTuples builds the canonical executor input stream 0..n-1.
func ExecTuples(n int) []Tuple { return exec.Tuples(n) }

// InjectFaults wraps a backend with a deterministic fault plan for
// chaos testing: same seed, same failures, byte for byte.
func InjectFaults(b ExecBackend, plan FaultPlan) *FaultInjector { return faultinject.Wrap(b, plan) }

// Generate builds a random problem instance from the given distribution
// parameters; same parameters, same instance.
func Generate(p GenParams) (*Query, error) { return p.Generate() }

// DefaultGenParams returns the experiment suite's base distribution for n
// services.
func DefaultGenParams(n int, seed int64) GenParams { return gen.Default(n, seed) }

// Serving-layer types, re-exported from internal/serve, internal/admit,
// and internal/fleet: the dqserve HTTP handler, its admission controller,
// and the multi-node fleet runtime.
type (
	// AdmissionController is the cost-aware admission gate: bounded
	// concurrency and queueing with warm/cold classification, cold-first
	// shedding, per-tenant fair share, and Retry-After estimates.
	AdmissionController = admit.Controller

	// AdmissionOptions tunes an AdmissionController. The zero value of
	// any field selects its default.
	AdmissionOptions = admit.Options

	// FleetPeer is one member of a multi-node dqserve fleet: it
	// consistent-hashes the canonical plan-signature space across the
	// peer ring, forwards wrong-owner /v1/optimize requests (or answers
	// from a fresh local replica), replicates warm plan-cache entries
	// owner -> replica set, and gossips published adaptive generations
	// to every peer.
	FleetPeer = fleet.Peer

	// FleetStats snapshots a FleetPeer's routing, replication, and
	// gossip counters (the "fleet" block of GET /v1/stats).
	FleetStats = fleet.Stats

	// PeerServer is a fleet peer's frame listener: newline-delimited JSON
	// frames over TCP, behind a fleet-ID handshake.
	PeerServer = fleet.PeerServer

	// ServeOptions configures NewServeHandler: body limits, admission,
	// stale-serve, execution, and fleet membership.
	ServeOptions = serve.Options

	// FleetOptions configures NewFleetPeer. Self must appear in Peers, and
	// the same FleetID, Peers, and Replication must be passed on every
	// node — the ring is computed independently and must agree.
	FleetOptions = fleet.Options
)

// NewAdmissionController builds the cost-aware admission gate. Attach it
// via ServeOptions.Admission.
func NewAdmissionController(opts AdmissionOptions) *AdmissionController { return admit.New(opts) }

// NewServeHandler builds the production dqserve HTTP handler over a
// planner: the versioned /v1 route table, the allocation-lean response
// fast path, and — when configured — admission control, execution, and
// fleet routing.
func NewServeHandler(p *Planner, o ServeOptions) http.Handler { return serve.NewHandler(p, o) }

// ListenFleetPeer opens a fleet peer's frame listener on addr (":0" picks
// a free port; read it back with Addr). Pass the result as
// FleetOptions.Server.
func ListenFleetPeer(addr, fleetID string) (*PeerServer, error) {
	return fleet.ListenPeer(addr, fleetID)
}

// NewFleetPeer builds one fleet member's runtime. Call Run to start
// serving peer frames and replicating, and Close on shutdown.
func NewFleetPeer(o FleetOptions) (*FleetPeer, error) { return fleet.New(o) }
