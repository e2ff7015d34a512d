// Package adapt closes the paper's constant-parameter assumption online:
// it observes real executions of the deployed services, maintains EWMA
// estimates of every cost, selectivity and transfer parameter (fitted with
// the exact formulas of internal/calibrate, so the offline and online
// loops can never disagree), detects when the estimates have drifted past
// a regret-derived threshold, and publishes a new statistics *generation*
// — an immutable parameter snapshot plus a monotone counter.
//
// The generation counter is the invalidation signal the serving stack
// keys on: internal/planner stamps every plan-cache and
// canonicalization-memo entry with the generation it was computed under,
// so a publish lazily invalidates all stale plans (they read as misses and
// seed the re-optimization as warm-start incumbents) without any
// stop-the-world flush. See "The adaptive loop" in the package
// documentation at the repository root.
//
// Two ideas keep the loop sound:
//
//   - Plans are computed against the published snapshot (the anchor), not
//     the live EWMA: within one generation the effective parameters are
//     frozen, so a cached plan is exactly the optimum of a well-defined
//     instance. The live EWMA only feeds drift detection.
//   - The drift threshold is a regret statement, not an arbitrary knob:
//     ThresholdFromRegret runs the internal/robust Monte Carlo analysis to
//     find the largest parameter perturbation the incumbent plan survives
//     within a regret budget, so "drift below threshold" means "the plan
//     we keep serving is provably (in the Monte Carlo sense) within budget
//     of optimal".
package adapt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"serviceordering/internal/calibrate"
	"serviceordering/internal/model"
	"serviceordering/internal/robust"
	"serviceordering/internal/sim"
)

// Config tunes a Registry. The zero value is production-ready: EWMA alpha
// 0.3, three observations per parameter before it is trusted, 10% relative
// drift before a new generation is published.
type Config struct {
	// Alpha is the EWMA smoothing factor in (0, 1]: each observation o
	// moves an estimate v to (1-Alpha)*v + Alpha*o. Higher values adapt
	// faster and smooth less. Zero means DefaultAlpha.
	Alpha float64

	// MinObservations is how many times a parameter must be observed
	// before its estimate is considered confident — unconfident
	// parameters neither appear in published snapshots nor count toward
	// drift. Zero means DefaultMinObservations.
	MinObservations int

	// DriftDelta is the relative deviation |ewma/anchor - 1| beyond which
	// a confident parameter counts as drifted; any drifted parameter
	// triggers a generation publish. Derive it from a regret budget with
	// ThresholdFromRegret, or set it directly. Zero means
	// DefaultDriftDelta.
	DriftDelta float64
}

// Defaults for Config's zero values.
const (
	DefaultAlpha           = 0.3
	DefaultMinObservations = 3
	DefaultDriftDelta      = 0.1
)

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.MinObservations == 0 {
		c.MinObservations = DefaultMinObservations
	}
	if c.DriftDelta == 0 {
		c.DriftDelta = DefaultDriftDelta
	}
	return c
}

func (c Config) validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("adapt: alpha %v outside (0, 1]", c.Alpha)
	}
	if c.MinObservations < 0 {
		return fmt.Errorf("adapt: minObservations %d negative", c.MinObservations)
	}
	if c.DriftDelta < 0 {
		return fmt.Errorf("adapt: driftDelta %v negative", c.DriftDelta)
	}
	return nil
}

// ServiceObservation is the per-service slice of one execution report:
// aggregate tuple counts and busy processing time for one named service,
// exactly the quantities internal/calibrate fits offline — plus the
// reliability tallies (call attempts, failures, latency spikes) the
// executor accounts per stage. An observation may carry performance data
// (TuplesIn > 0), reliability data (Attempts > 0), or both; one with
// neither is malformed. A stage that only ever failed still teaches the
// registry its error rate.
type ServiceObservation struct {
	Name           string  `json:"name"`
	TuplesIn       int64   `json:"tuplesIn"`
	TuplesOut      int64   `json:"tuplesOut"`
	BusyProcessing float64 `json:"busyProcessing"`

	// Attempts counts call attempts, Failures the failed ones, Spikes
	// the successful ones slower than the hedge threshold. Zero Attempts
	// means no reliability content.
	Attempts int64 `json:"attempts,omitempty"`
	Failures int64 `json:"failures,omitempty"`
	Spikes   int64 `json:"spikes,omitempty"`
}

// TransferObservation is the per-edge slice of one execution report: the
// tuples shipped from one named service to another and the busy sending
// time they cost.
type TransferObservation struct {
	From        string  `json:"from"`
	To          string  `json:"to"`
	Tuples      int64   `json:"tuples"`
	BusySending float64 `json:"busySending"`
}

// Report is one execution report — the POST /v1/observe payload of dqserve.
// Services are matched by name (the one identity that survives the
// client's arbitrary index numbering); unknown names simply start new
// estimates.
type Report struct {
	Services  []ServiceObservation  `json:"services"`
	Transfers []TransferObservation `json:"transfers,omitempty"`
}

// ReportFromSim converts a simulated execution (internal/sim) of plan over
// the named services of q into a Report, bridging the simulator to the
// online loop the way calibrate.ObserveSim bridges it to the offline one.
func ReportFromSim(q *model.Query, plan model.Plan, rep *sim.Report) (*Report, error) {
	if len(rep.Stages) != len(plan) {
		return nil, fmt.Errorf("adapt: report has %d stages, plan %d", len(rep.Stages), len(plan))
	}
	out := &Report{}
	for pos, st := range rep.Stages {
		s := plan[pos]
		if st.Service != s {
			return nil, fmt.Errorf("adapt: stage %d reports service %d, plan says %d", pos, st.Service, s)
		}
		name := q.Services[s].Name
		if name == "" {
			return nil, fmt.Errorf("adapt: service %d has no name; the adaptive loop matches by name", s)
		}
		out.Services = append(out.Services, ServiceObservation{
			Name:           name,
			TuplesIn:       st.TuplesIn,
			TuplesOut:      st.TuplesOut,
			BusyProcessing: st.BusyProcessing,
		})
		if pos+1 < len(plan) && st.TuplesOut > 0 {
			out.Transfers = append(out.Transfers, TransferObservation{
				From:        name,
				To:          q.Services[plan[pos+1]].Name,
				Tuples:      st.TuplesOut,
				BusySending: st.BusySending,
			})
		}
	}
	return out, nil
}

// Edge identifies one directed transfer edge by service names.
type Edge struct{ From, To string }

// ewma is one parameter's online estimate.
type ewma struct {
	value float64
	count int
}

func (e *ewma) observe(v, alpha float64) {
	if e.count == 0 {
		e.value = v
	} else {
		e.value = (1-alpha)*e.value + alpha*v
	}
	e.count++
}

// svcState holds one service's live estimates. Performance (cost, sel)
// and reliability (errRate, spikeRate) estimates gain confidence
// independently: a service observed only through failures can publish a
// reliability anchor before its cost is ever fitted.
type svcState struct {
	cost ewma
	sel  ewma

	errRate   ewma
	spikeRate ewma
}

// ServiceParams is one service's published (anchor) parameters.
type ServiceParams struct {
	Cost        float64 `json:"cost"`
	Selectivity float64 `json:"selectivity"`
}

// ReliabilityParams is one service's published reliability anchor.
type ReliabilityParams struct {
	// ErrorRate is the EWMA fraction of call attempts that failed;
	// SpikeRate the fraction of successful calls slower than the hedge
	// threshold.
	ErrorRate float64 `json:"errorRate"`
	SpikeRate float64 `json:"spikeRate"`
}

// maxInflationErrorRate caps the error rate entering the expected-attempts
// geometric series, and maxInflation the factor itself: a fully-black
// service would otherwise price to infinity and destabilize every plan
// comparison.
const (
	maxInflationErrorRate = 0.9
	maxInflation          = 10.0
)

// InflationFactor converts the reliability estimates into the effective
// cost multiplier reliability-priced planning applies: E[attempts] under
// independent failures is 1/(1-errorRate) (each failure costs a retry of
// the same call), and each spike costs roughly one extra concurrent
// hedged attempt, a (1+spikeRate) load factor. The product is clamped to
// [1, 10].
func (p ReliabilityParams) InflationFactor() float64 {
	er := math.Min(math.Max(p.ErrorRate, 0), maxInflationErrorRate)
	sr := math.Max(p.SpikeRate, 0)
	f := (1 + sr) / (1 - er)
	if f < 1 {
		f = 1
	}
	if f > maxInflation {
		f = maxInflation
	}
	return f
}

// Snapshot is one published generation: an immutable view of every
// confident parameter at publish time. Gen 0 is the empty snapshot — no
// overlay, the serving stack trusts client-provided parameters verbatim.
// Snapshots are never mutated after publication; readers hold them across
// an entire request without locks.
type Snapshot struct {
	// Gen is the generation counter, monotone from 0.
	Gen uint64

	// Services maps service name to its anchored cost/selectivity;
	// Edges maps directed name pairs to anchored transfer costs.
	Services map[string]ServiceParams
	Edges    map[Edge]float64

	// Reliability maps service name to its anchored error/spike rates.
	// The overlay prices it as a cost multiplier (InflationFactor), so a
	// chronically flaky service loses plan positions it would win on raw
	// cost alone.
	Reliability map[string]ReliabilityParams
}

// Empty reports whether the snapshot carries no fitted parameters (the
// gen-0 state, or a registry that has only seen unconfident observations).
func (s *Snapshot) Empty() bool {
	return s == nil || (len(s.Services) == 0 && len(s.Edges) == 0 && len(s.Reliability) == 0)
}

// Overlay returns q with every parameter the snapshot anchors substituted
// in — services matched by name, transfer edges by name pairs — leaving
// unanchored parameters at the client-provided values, then inflates each
// reliability-anchored service's cost by its InflationFactor (effective
// cost = cost x expected retry/hedge overhead, so the optimizer prices
// unreliability). The second result reports whether anything was
// substituted; when false the original query is returned as-is (no
// clone). The returned query must be treated as read-only by callers that
// received changed=false.
func (s *Snapshot) Overlay(q *model.Query) (eff *model.Query, changed bool) {
	if s.Empty() {
		return q, false
	}
	n := q.N()
	idxByName := make(map[string]int, n)
	touched := false
	for i := 0; i < n; i++ {
		name := q.Services[i].Name
		if name == "" {
			continue
		}
		idxByName[name] = i
		if _, ok := s.Services[name]; ok {
			touched = true
		}
		if rp, ok := s.Reliability[name]; ok && rp.InflationFactor() > 1 {
			touched = true
		}
	}
	if !touched && len(s.Edges) > 0 {
		for ek := range s.Edges {
			if _, ok := idxByName[ek.From]; !ok {
				continue
			}
			if _, ok := idxByName[ek.To]; ok {
				touched = true
				break
			}
		}
	}
	if !touched {
		return q, false
	}
	out := q.Clone()
	for i := range out.Services {
		if p, ok := s.Services[out.Services[i].Name]; ok {
			out.Services[i].Cost = p.Cost
			out.Services[i].Selectivity = p.Selectivity
		}
		if rp, ok := s.Reliability[out.Services[i].Name]; ok {
			out.Services[i].Cost *= rp.InflationFactor()
		}
	}
	for ek, t := range s.Edges {
		i, iok := idxByName[ek.From]
		j, jok := idxByName[ek.To]
		if iok && jok && i != j {
			out.Transfer[i][j] = t
		}
	}
	return out, true
}

// Outcome describes what one Observe call did.
type Outcome struct {
	// Generation is the current generation after the call.
	Generation uint64 `json:"generation"`

	// Drift is the maximum relative deviation of any confident live
	// estimate from its anchor at return time (0 right after a publish —
	// the anchors were just reset to the live values).
	Drift float64 `json:"drift"`

	// Published reports that this observation crossed the drift threshold
	// and published a new generation.
	Published bool `json:"published"`
}

// Registry is the concurrent statistics registry: Observe folds execution
// reports into live EWMA estimates and publishes generation snapshots on
// drift; Current is the wait-free read side the planner consults once per
// request. Safe for concurrent use.
type Registry struct {
	cfg Config

	mu   sync.Mutex
	svc  map[string]*svcState
	edge map[Edge]*ewma

	// snap is the published anchor snapshot; never nil after New.
	snap atomic.Pointer[Snapshot]

	observations atomic.Int64
	driftEvents  atomic.Int64
	driftBits    atomic.Uint64 // Float64bits of the latest live drift
}

// New builds a Registry (zero Config = defaults).
func New(cfg Config) (*Registry, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Registry{
		cfg:  cfg.withDefaults(),
		svc:  make(map[string]*svcState),
		edge: make(map[Edge]*ewma),
	}
	r.snap.Store(&Snapshot{Gen: 0})
	return r, nil
}

// MustNew is New for static configs known valid.
func MustNew(cfg Config) *Registry {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Current returns the published snapshot: one atomic pointer load, no
// locks, no allocation. The planner calls it once per request; the
// snapshot's Gen is the generation every cache entry created for the
// request is stamped with.
func (r *Registry) Current() *Snapshot { return r.snap.Load() }

// Generation returns the current generation counter.
func (r *Registry) Generation() uint64 { return r.snap.Load().Gen }

// Observe folds one execution report into the live estimates, re-evaluates
// drift against the published anchors, and publishes a new generation when
// any confident parameter has drifted beyond the threshold. Malformed
// observations (negative or non-finite values, a service observation with
// neither performance nor reliability content) reject the whole report
// without touching any estimate. A reliability-only observation — call
// attempts with no surviving latency sample, e.g. a service that failed
// every call — is valid and can bump the generation on its own.
func (r *Registry) Observe(rep *Report) (Outcome, error) {
	if rep == nil || (len(rep.Services) == 0 && len(rep.Transfers) == 0) {
		return Outcome{}, fmt.Errorf("adapt: empty report")
	}

	// Fit first (calibrate's formulas validate the raw aggregates), so a
	// bad trailing observation cannot leave a half-applied report.
	type svcFit struct {
		name      string
		hasPerf   bool
		cost, sel float64

		hasRel             bool
		errRate, spikeRate float64
	}
	type edgeFit struct {
		key Edge
		t   float64
	}
	svcFits := make([]svcFit, 0, len(rep.Services))
	for i, o := range rep.Services {
		if o.Name == "" {
			return Outcome{}, fmt.Errorf("adapt: service observation %d has no name", i)
		}
		f := svcFit{name: o.Name}
		if o.TuplesIn > 0 {
			cost, sel, err := calibrate.FitService(o.BusyProcessing, o.TuplesIn, o.TuplesOut)
			if err != nil {
				return Outcome{}, fmt.Errorf("adapt: service %q: %w", o.Name, err)
			}
			f.hasPerf, f.cost, f.sel = true, cost, sel
		}
		if o.Attempts > 0 {
			if o.Failures < 0 || o.Failures > o.Attempts || o.Spikes < 0 || o.Spikes > o.Attempts {
				return Outcome{}, fmt.Errorf("adapt: service %q: failures %d / spikes %d outside attempts %d",
					o.Name, o.Failures, o.Spikes, o.Attempts)
			}
			f.hasRel = true
			f.errRate = float64(o.Failures) / float64(o.Attempts)
			f.spikeRate = float64(o.Spikes) / float64(o.Attempts)
		} else if o.Attempts < 0 || o.Failures != 0 || o.Spikes != 0 {
			return Outcome{}, fmt.Errorf("adapt: service %q: failures/spikes without attempts", o.Name)
		}
		if !f.hasPerf && !f.hasRel {
			return Outcome{}, fmt.Errorf("adapt: service %q: observation has neither tuples nor attempts", o.Name)
		}
		svcFits = append(svcFits, f)
	}
	edgeFits := make([]edgeFit, 0, len(rep.Transfers))
	for i, o := range rep.Transfers {
		if o.From == "" || o.To == "" || o.From == o.To {
			return Outcome{}, fmt.Errorf("adapt: transfer observation %d needs two distinct named endpoints", i)
		}
		t, err := calibrate.FitEdge(o.BusySending, o.Tuples)
		if err != nil {
			return Outcome{}, fmt.Errorf("adapt: edge %s->%s: %w", o.From, o.To, err)
		}
		edgeFits = append(edgeFits, edgeFit{Edge{o.From, o.To}, t})
	}

	r.mu.Lock()
	for _, f := range svcFits {
		st := r.svc[f.name]
		if st == nil {
			st = &svcState{}
			r.svc[f.name] = st
		}
		if f.hasPerf {
			st.cost.observe(f.cost, r.cfg.Alpha)
			st.sel.observe(f.sel, r.cfg.Alpha)
		}
		if f.hasRel {
			st.errRate.observe(f.errRate, r.cfg.Alpha)
			st.spikeRate.observe(f.spikeRate, r.cfg.Alpha)
		}
	}
	for _, f := range edgeFits {
		e := r.edge[f.key]
		if e == nil {
			e = &ewma{}
			r.edge[f.key] = e
		}
		e.observe(f.t, r.cfg.Alpha)
	}

	anchor := r.snap.Load()
	drift := r.driftLocked(anchor)
	out := Outcome{Generation: anchor.Gen, Drift: drift}
	if drift > r.cfg.DriftDelta {
		next := r.publishLocked(anchor.Gen + 1)
		r.snap.Store(next)
		r.driftEvents.Add(1)
		out = Outcome{Generation: next.Gen, Drift: 0, Published: true}
		drift = 0
	}
	r.mu.Unlock()

	r.observations.Add(1)
	r.driftBits.Store(math.Float64bits(drift))
	return out, nil
}

// relDrift is the relative deviation of a live estimate from its anchor.
// An unanchored confident estimate is infinitely drifted: the anchor
// simply does not know the parameter yet, and serving plans that ignore a
// confidently-measured parameter is exactly the staleness drift detection
// exists to end.
func relDrift(live float64, anchored bool, anchor float64) float64 {
	if !anchored {
		return math.Inf(1)
	}
	if anchor == 0 {
		if live == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(live/anchor - 1)
}

// driftLocked computes the maximum relative deviation of any confident
// live estimate from the anchor snapshot. Reliability drifts in
// inflation-factor space against an implicit anchor of 1.0 when
// unanchored (gen 0 prices every service as perfectly reliable, and a
// healthy service measuring factor 1.0 is zero drift, not churn).
// Caller holds r.mu.
func (r *Registry) driftLocked(anchor *Snapshot) float64 {
	maxDrift := 0.0
	for name, st := range r.svc {
		if st.cost.count >= r.cfg.MinObservations {
			p, ok := anchor.Services[name]
			maxDrift = math.Max(maxDrift, relDrift(st.cost.value, ok, p.Cost))
			maxDrift = math.Max(maxDrift, relDrift(st.sel.value, ok, p.Selectivity))
		}
		if st.errRate.count >= r.cfg.MinObservations {
			live := ReliabilityParams{ErrorRate: st.errRate.value, SpikeRate: st.spikeRate.value}.InflationFactor()
			anchorF := 1.0
			if rp, ok := anchor.Reliability[name]; ok {
				anchorF = rp.InflationFactor()
			}
			maxDrift = math.Max(maxDrift, relDrift(live, true, anchorF))
		}
	}
	for key, e := range r.edge {
		if e.count < r.cfg.MinObservations {
			continue
		}
		t, ok := anchor.Edges[key]
		maxDrift = math.Max(maxDrift, relDrift(e.value, ok, t))
	}
	return maxDrift
}

// publishLocked builds the next snapshot from every confident live
// estimate. Caller holds r.mu.
func (r *Registry) publishLocked(gen uint64) *Snapshot {
	next := &Snapshot{
		Gen:         gen,
		Services:    make(map[string]ServiceParams, len(r.svc)),
		Edges:       make(map[Edge]float64, len(r.edge)),
		Reliability: make(map[string]ReliabilityParams, len(r.svc)),
	}
	for name, st := range r.svc {
		if st.cost.count >= r.cfg.MinObservations {
			next.Services[name] = ServiceParams{Cost: st.cost.value, Selectivity: st.sel.value}
		}
		if st.errRate.count >= r.cfg.MinObservations {
			next.Reliability[name] = ReliabilityParams{ErrorRate: st.errRate.value, SpikeRate: st.spikeRate.value}
		}
	}
	for key, e := range r.edge {
		if e.count >= r.cfg.MinObservations {
			next.Edges[key] = e.value
		}
	}
	return next
}

// Stats is a point-in-time snapshot of the registry counters.
type Stats struct {
	// Generation is the current statistics generation (0 until the first
	// drift publish).
	Generation uint64 `json:"generation"`

	// DriftEvents counts generation publishes.
	DriftEvents int64 `json:"driftEvents"`

	// Observations counts accepted execution reports.
	Observations int64 `json:"observations"`

	// Drift is the live maximum relative deviation from the anchors as of
	// the most recent report. Always finite and at most the drift
	// threshold: any observation pushing drift beyond the threshold
	// publishes within the same call and resets it to 0, so infinity
	// (a confident parameter with no anchor) never survives to a
	// snapshot here — /v1/stats can serialize it with encoding/json.
	Drift float64 `json:"drift"`

	// TrackedServices and TrackedEdges count parameters with at least one
	// observation.
	TrackedServices int `json:"trackedServices"`
	TrackedEdges    int `json:"trackedEdges"`
}

// Stats returns the registry counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	svcs, edges := len(r.svc), len(r.edge)
	r.mu.Unlock()
	return Stats{
		Generation:      r.Generation(),
		DriftEvents:     r.driftEvents.Load(),
		Observations:    r.observations.Load(),
		Drift:           math.Float64frombits(r.driftBits.Load()),
		TrackedServices: svcs,
		TrackedEdges:    edges,
	}
}

// ThresholdFromRegret derives a drift threshold from a regret budget: it
// runs the internal/robust Monte Carlo stability analysis of plan on q and
// returns the largest probed perturbation scale whose *maximum* observed
// regret stays within budget — i.e. parameters may drift this far
// (relative) before the incumbent plan's regret is expected to exceed the
// budget, so re-planning earlier would be churn and later would overspend
// the budget. When even the smallest probed scale exceeds the budget it
// returns that smallest scale (re-plan as eagerly as the probe resolution
// allows).
func ThresholdFromRegret(q *model.Query, plan model.Plan, budget float64, cfg robust.Config) (float64, error) {
	if budget <= 0 {
		return 0, fmt.Errorf("adapt: regret budget %v, want > 0", budget)
	}
	points, err := robust.Analyze(q, plan, cfg)
	if err != nil {
		return 0, err
	}
	best := points[0].Delta
	found := false
	for _, p := range points {
		if p.MaxRegret <= budget && (!found || p.Delta > best) {
			best, found = p.Delta, true
		}
	}
	if !found {
		best = points[0].Delta
		for _, p := range points {
			if p.Delta < best {
				best = p.Delta
			}
		}
	}
	return best, nil
}
