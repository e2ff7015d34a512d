// Package adapt closes the paper's constant-parameter assumption online:
// it observes real executions of the deployed services, estimates every
// cost, selectivity and transfer parameter — and each service's error and
// latency-spike rates — from exponentially decayed sums of the raw report
// totals (the ratio-of-sums fits of internal/calibrate, so the offline
// and online loops can never disagree), detects when an estimate has
// drifted significantly from the parameters plans are computed from, and
// publishes a new statistics *generation* — an immutable parameter
// snapshot plus a monotone counter.
//
// The generation counter is the invalidation signal the serving stack
// keys on: internal/planner stamps every plan-cache and
// canonicalization-memo entry with the generation it was computed under,
// so a publish lazily invalidates all stale plans (they read as misses and
// seed the re-optimization as incumbents) without any
// stop-the-world flush. See "The adaptive loop" in the package
// documentation at the repository root.
//
// Three ideas keep the loop sound:
//
//   - Plans are computed against the published snapshot (the anchor), not
//     the live estimates: within one generation the effective parameters
//     are frozen, so a cached plan is exactly the optimum of a
//     well-defined instance. The live estimates only feed drift detection.
//   - Every estimate is weighted by sample size. A parameter is the ratio
//     of two decayed sums — busy seconds over tuples in for a cost, tuples
//     out over tuples in for a selectivity, failures over attempts for an
//     error rate — so a report that saw 20 tuples moves a selectivity a
//     hundredth as far as one that saw 2048.
//   - Publishing costs every cached plan, so a deviation counts as drift
//     only when it is both large and significant: beyond Config.DriftDelta
//     of the anchor, and beyond driftZ standard errors at the estimate's
//     effective sample size. Sampling noise on a stationary backend
//     therefore rarely republishes. ThresholdFromRegret can derive
//     DriftDelta from a regret budget by a Monte Carlo scan of
//     perturbations around the incumbent plan (internal/robust).
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

// Config tunes a Registry. The zero value is production-ready: decay 0.3
// per observation, three observations per parameter before it is
// trusted, 10% significant relative drift before a new generation is
// published.
type Config struct {
	// Alpha is the decay in (0, 1] of the sums behind every estimate:
	// each observation of a parameter multiplies its sums by (1-Alpha)
	// before adding the report's raw totals, so at 0.3 an old report's
	// weight halves about every two observations, and at 1 only the
	// latest report counts. Higher values adapt faster and smooth less.
	// Zero means DefaultAlpha.
	Alpha float64

	// MinObservations is how many times a parameter must be observed
	// before its estimate is considered confident — unconfident
	// parameters neither appear in published snapshots nor count toward
	// drift. Zero means DefaultMinObservations.
	MinObservations int

	// DriftDelta is the relative deviation |live/anchor - 1| a confident
	// parameter must exceed to count as drifted — reliability in
	// inflation-factor space. The deviation must also be significant at
	// the parameter's sample size (see Registry.Observe), so DriftDelta
	// bounds how far an anchor may lag a well-measured parameter, not how
	// far noise may move a poorly measured one. Any drifted parameter
	// triggers a generation publish. Set it directly, or derive it from a
	// regret budget with ThresholdFromRegret. Zero means
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

// ratio is one parameter's online estimate, the ratio Σw·y / Σw·x of two
// exponentially decayed sums: each report adds its raw totals x and y
// (tuples in and busy seconds for a cost, tuples in and out for a
// selectivity, attempts and failures for an error rate) after every
// older report's weight w was multiplied by (1-Alpha). A report thus
// counts in proportion to its sample size. The squared-weight sums carry
// the estimate's spread: Σw²·x gives Kish's effective sample size, and
// Σw²·x², Σw²·xy, Σw²·y² the residual scatter between reports.
type ratio struct {
	wx, wy           float64
	w2x              float64
	w2xx, w2xy, w2yy float64
	count            int
}

func (e *ratio) observe(x, y, keep float64) {
	k2 := keep * keep
	e.wx = keep*e.wx + x
	e.wy = keep*e.wy + y
	e.w2x = k2*e.w2x + x
	e.w2xx = k2*e.w2xx + x*x
	e.w2xy = k2*e.w2xy + x*y
	e.w2yy = k2*e.w2yy + y*y
	e.count++
}

// value is the live estimate.
func (e *ratio) value() float64 { return e.wy / e.wx }

// size is Kish's effective sample size (Σw·x)² / Σw²·x, in units of x: the
// latest report's count at Alpha 1, saturating near (2-Alpha)/Alpha
// reports' worth under decay.
func (e *ratio) size() float64 { return e.wx * e.wx / e.w2x }

// scatter is the standard error the residual scatter between reports
// implies, √(Σw²·(y - θx)²) / Σw·x with θ the live value: the sandwich
// variance of a weighted ratio estimator. It is 0 when every report fits
// θ exactly.
func (e *ratio) scatter() float64 {
	t := e.value()
	ss := e.w2yy - 2*t*e.w2xy + t*t*e.w2xx
	if ss <= 0 {
		return 0
	}
	return math.Sqrt(ss) / e.wx
}

// binomialSE is the standard error of a count ratio p over n trials,
// √(p(1-p)/n), or √(p/n) when p > 1 (a proliferative service emits more
// tuples than it reads).
func binomialSE(p, n float64) float64 {
	if p > 1 {
		return math.Sqrt(p / n)
	}
	return math.Sqrt(p * (1 - p) / n)
}

// svcState holds one service's live estimates. Performance (cost, sel)
// and reliability (errRate, spikeRate) estimates gain confidence
// independently: a service observed only through failures can publish a
// reliability anchor before its cost is ever fitted.
type svcState struct {
	cost ratio
	sel  ratio

	errRate   ratio
	spikeRate ratio
}

// ServiceParams is one service's published (anchor) parameters.
type ServiceParams struct {
	Cost        float64 `json:"cost"`
	Selectivity float64 `json:"selectivity"`
}

// ReliabilityParams is one service's published reliability anchor.
type ReliabilityParams struct {
	// ErrorRate is the fraction of call attempts that failed; SpikeRate
	// the fraction of attempts that succeeded slower than the hedge
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

	// Drift is the largest relative deviation from its anchor of any
	// confident live estimate whose deviation is significant, at return
	// time. A deviation beyond the threshold publishes within the call,
	// so Drift is finite and at most Config.DriftDelta, and 0 right after
	// a publish — the anchors were just reset to the live values.
	Drift float64 `json:"drift"`

	// Published reports that this observation crossed the drift threshold
	// and published a new generation.
	Published bool `json:"published"`
}

// Registry is the concurrent statistics registry: Observe folds execution
// reports into live decayed-sum estimates and publishes generation
// snapshots on significant drift; Current is the wait-free read side the
// planner consults once per request. Safe for concurrent use.
type Registry struct {
	cfg Config

	mu           sync.Mutex
	svc          map[string]*svcState
	edge         map[Edge]*ratio
	observations int64
	driftEvents  int64
	drift        float64 // the latest Outcome.Drift; a publish resets it

	// snap is the published anchor snapshot; never nil after New. It is
	// stored under mu and loaded without it.
	snap atomic.Pointer[Snapshot]
}

// New builds a Registry (zero Config = defaults).
func New(cfg Config) (*Registry, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Registry{
		cfg:  cfg.withDefaults(),
		svc:  make(map[string]*svcState),
		edge: make(map[Edge]*ratio),
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

// Observe folds one execution report into the live estimates, re-tests
// drift against the published anchors, and publishes a new generation
// when any confident parameter has drifted. A confident parameter with no
// anchor has drifted by definition. An anchored one has drifted when its
// deviation |live - anchor| exceeds both Config.DriftDelta of the anchor
// (reliability in inflation-factor space) and driftZ standard errors at
// its effective sample size, plus one count of resolution for the count
// ratios. The standard error depends on the parameter:
//
//   - selectivity: the larger of the binomial error at the live value and
//     the residual scatter between reports. Repeated executions of one
//     query stream the same tuples, so their reports are not independent
//     samples, and the binomial error alone would overstate precision.
//   - error and spike rates: the binomial error under the anchored rate
//     (0 for a service with no reliability anchor). Failures arrive in
//     bursts, so their scatter stays large enough to hide a real change
//     for dozens of reports.
//   - cost and transfer: the residual scatter alone. Busy time is
//     proportional to tuples, so the scatter is 0 on a backend whose
//     costs fit exactly, and the test reduces to DriftDelta.
//
// Malformed observations (negative or non-finite values, a service
// observation with neither performance nor reliability content) reject
// the whole report without touching any estimate. A reliability-only
// observation — call attempts with no surviving latency sample, e.g. a
// service that failed every call — is valid and can bump the generation
// on its own.
func (r *Registry) Observe(rep *Report) (Outcome, error) {
	if rep == nil || (len(rep.Services) == 0 && len(rep.Transfers) == 0) {
		return Outcome{}, fmt.Errorf("adapt: empty report")
	}

	// Validate first (calibrate's fits check the raw aggregates), so a
	// bad trailing observation cannot leave a half-applied report.
	for i, o := range rep.Services {
		if o.Name == "" {
			return Outcome{}, fmt.Errorf("adapt: service observation %d has no name", i)
		}
		if o.TuplesIn > 0 {
			if _, _, err := calibrate.FitService(o.BusyProcessing, o.TuplesIn, o.TuplesOut); err != nil {
				return Outcome{}, fmt.Errorf("adapt: service %q: %w", o.Name, err)
			}
			if o.BusyProcessing > maxValue {
				return Outcome{}, fmt.Errorf("adapt: service %q: busyProcessing %v above %v", o.Name, o.BusyProcessing, maxValue)
			}
		}
		if o.Attempts > 0 {
			if o.Failures < 0 || o.Failures > o.Attempts || o.Spikes < 0 || o.Spikes > o.Attempts {
				return Outcome{}, fmt.Errorf("adapt: service %q: failures %d / spikes %d outside attempts %d",
					o.Name, o.Failures, o.Spikes, o.Attempts)
			}
		} else if o.Attempts < 0 || o.Failures != 0 || o.Spikes != 0 {
			return Outcome{}, fmt.Errorf("adapt: service %q: failures/spikes without attempts", o.Name)
		}
		if o.TuplesIn <= 0 && o.Attempts == 0 {
			return Outcome{}, fmt.Errorf("adapt: service %q: observation has neither tuples nor attempts", o.Name)
		}
	}
	for i, o := range rep.Transfers {
		if o.From == "" || o.To == "" || o.From == o.To {
			return Outcome{}, fmt.Errorf("adapt: transfer observation %d needs two distinct named endpoints", i)
		}
		if _, err := calibrate.FitEdge(o.BusySending, o.Tuples); err != nil {
			return Outcome{}, fmt.Errorf("adapt: edge %s->%s: %w", o.From, o.To, err)
		}
		if o.BusySending > maxValue {
			return Outcome{}, fmt.Errorf("adapt: edge %s->%s: busySending %v above %v", o.From, o.To, o.BusySending, maxValue)
		}
	}

	keep := 1 - r.cfg.Alpha
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, o := range rep.Services {
		st := r.svc[o.Name]
		if st == nil {
			st = &svcState{}
			r.svc[o.Name] = st
		}
		if in := float64(o.TuplesIn); in > 0 {
			st.cost.observe(in, o.BusyProcessing, keep)
			st.sel.observe(in, float64(o.TuplesOut), keep)
		}
		if att := float64(o.Attempts); att > 0 {
			st.errRate.observe(att, float64(o.Failures), keep)
			st.spikeRate.observe(att, float64(o.Spikes), keep)
		}
	}
	for _, o := range rep.Transfers {
		key := Edge{o.From, o.To}
		e := r.edge[key]
		if e == nil {
			e = &ratio{}
			r.edge[key] = e
		}
		e.observe(float64(o.Tuples), o.BusySending, keep)
	}
	r.observations++

	anchor := r.snap.Load()
	drift, publish := r.driftLocked(anchor)
	out := Outcome{Generation: anchor.Gen, Drift: drift}
	if publish {
		next := r.publishLocked(anchor.Gen + 1)
		r.snap.Store(next)
		r.driftEvents++
		out = Outcome{Generation: next.Gen, Published: true}
	}
	r.drift = out.Drift
	return out, nil
}

// maxValue bounds a report's busy seconds and, through them, every cost
// and transfer a snapshot may anchor. The squared-weight sums hold busy²,
// which past about 1e154 would overflow to +Inf and poison the estimate
// for good, and an anchored cost times InflationFactor must stay finite.
// Real values are far below it.
const maxValue = 1e100

// driftZ is how many standard errors a deviation must clear to count as
// drift. Every report re-tests every confident parameter — dozens when
// many queries share service names — and each false alarm costs every
// cached plan, so the test must stay quiet over thousands of repetitions.
// A normal deviation clears 3 standard errors with probability 0.27%, 4
// with 6e-5; and the error is itself estimated from a few reports' worth
// of decayed data, so real tails are heavier than normal. A real step
// drift still clears 4 within a few reports, because the decayed sums
// forget the old regime at the rate Alpha sets.
const driftZ = 4

// significant reports whether live lies farther from anchor than driftZ
// standard errors plus res, the resolution of a count ratio.
func significant(live, anchor, se, res float64) bool {
	return math.Abs(live-anchor) > driftZ*se+res
}

// relDev is the relative deviation |live/anchor - 1| of a significant
// deviation, so live != anchor; infinite when the anchor is 0.
func relDev(live, anchor float64) float64 {
	if anchor == 0 {
		return math.Inf(1)
	}
	return math.Abs(live/anchor - 1)
}

// driftLocked tests every confident live estimate against the anchor
// snapshot (see Observe). It returns the largest relative deviation among
// the significant ones within DriftDelta, and whether any parameter
// drifted: significantly and beyond DriftDelta, or confident with no
// anchor. Caller holds r.mu.
func (r *Registry) driftLocked(anchor *Snapshot) (drift float64, publish bool) {
	note := func(dev float64) {
		if dev > r.cfg.DriftDelta {
			publish = true
		} else {
			drift = math.Max(drift, dev)
		}
	}
	perf := func(e *ratio, anchored float64, se, res float64) {
		if live := e.value(); significant(live, anchored, se, res) {
			note(relDev(live, anchored))
		}
	}
	for name, st := range r.svc {
		if st.cost.count >= r.cfg.MinObservations {
			p, ok := anchor.Services[name]
			if !ok {
				return 0, true
			}
			perf(&st.cost, p.Cost, st.cost.scatter(), 0)
			n := st.sel.size()
			se := math.Max(binomialSE(st.sel.value(), n), st.sel.scatter())
			perf(&st.sel, p.Selectivity, se, 1/n)
		}
		if st.errRate.count >= r.cfg.MinObservations {
			// Reliability deviates in inflation-factor space, against an
			// implicit all-zero anchor when unanchored: gen 0 prices every
			// service as perfectly reliable, so a healthy service is no
			// drift, not churn. Each rate moves the live factor only when
			// its own deviation is significant.
			rp := anchor.Reliability[name]
			live := rp
			n := st.errRate.size()
			if v := st.errRate.value(); significant(v, rp.ErrorRate, binomialSE(rp.ErrorRate, n), 1/n) {
				live.ErrorRate = v
			}
			if v := st.spikeRate.value(); significant(v, rp.SpikeRate, binomialSE(rp.SpikeRate, n), 1/n) {
				live.SpikeRate = v
			}
			note(relDev(live.InflationFactor(), rp.InflationFactor()))
		}
	}
	for key, e := range r.edge {
		if e.count < r.cfg.MinObservations {
			continue
		}
		t, ok := anchor.Edges[key]
		if !ok {
			return 0, true
		}
		perf(e, t, e.scatter(), 0)
	}
	return drift, publish
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
			next.Services[name] = ServiceParams{Cost: st.cost.value(), Selectivity: st.sel.value()}
		}
		if st.errRate.count >= r.cfg.MinObservations {
			next.Reliability[name] = ReliabilityParams{ErrorRate: st.errRate.value(), SpikeRate: st.spikeRate.value()}
		}
	}
	for key, e := range r.edge {
		if e.count >= r.cfg.MinObservations {
			next.Edges[key] = e.value()
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

	// Drift is the latest report's Outcome.Drift, measured against the
	// anchors current when it was taken: the largest significant relative
	// deviation, finite and at most the drift threshold. A publish, local
	// or installed, resets it to 0, so it never reports drift against a
	// superseded anchor, and /v1/stats can serialize it with
	// encoding/json.
	Drift float64 `json:"drift"`

	// TrackedServices and TrackedEdges count parameters with at least one
	// observation.
	TrackedServices int `json:"trackedServices"`
	TrackedEdges    int `json:"trackedEdges"`
}

// Stats returns the registry counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Generation:      r.Generation(),
		DriftEvents:     r.driftEvents,
		Observations:    r.observations,
		Drift:           r.drift,
		TrackedServices: len(r.svc),
		TrackedEdges:    len(r.edge),
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
