package adapt

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"serviceordering/internal/core"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/robust"
	"serviceordering/internal/sim"
)

// twoService builds a minimal named query for overlay tests.
func twoService(t *testing.T) *model.Query {
	t.Helper()
	q := &model.Query{
		Services: []model.Service{
			{Name: "a", Cost: 1, Selectivity: 0.5},
			{Name: "b", Cost: 2, Selectivity: 0.25},
		},
		Transfer: [][]float64{{0, 0.1}, {0.2, 0}},
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("query: %v", err)
	}
	return q
}

// report synthesizes a noise-free execution report for q's services along
// plan: tuple counts follow the selectivities, busy times follow the
// per-tuple parameters exactly, so fits reproduce the parameters up to
// float round-trips.
func report(q *model.Query, plan model.Plan, tuples int64) *Report {
	rep := &Report{}
	in := tuples
	for pos, s := range plan {
		svc := q.Services[s]
		out := int64(math.Round(float64(in) * svc.Selectivity))
		rep.Services = append(rep.Services, ServiceObservation{
			Name:           svc.Name,
			TuplesIn:       in,
			TuplesOut:      out,
			BusyProcessing: svc.Cost * float64(in),
		})
		if pos+1 < len(plan) && out > 0 {
			rep.Transfers = append(rep.Transfers, TransferObservation{
				From:        svc.Name,
				To:          q.Services[plan[pos+1]].Name,
				Tuples:      out,
				BusySending: q.Transfer[s][plan[pos+1]] * float64(out),
			})
		}
		in = out
	}
	return rep
}

// TestObserveFitsAndPublishes: constant observations of a true query make
// the registry publish a snapshot whose parameters reproduce the truth.
func TestObserveFitsAndPublishes(t *testing.T) {
	t.Parallel()
	q := twoService(t)
	r := MustNew(Config{Alpha: 0.5, MinObservations: 2, DriftDelta: 0.05})

	if got := r.Generation(); got != 0 {
		t.Fatalf("fresh registry at generation %d, want 0", got)
	}
	if !r.Current().Empty() {
		t.Fatal("fresh snapshot is not empty")
	}

	var out Outcome
	var err error
	for i := 0; i < 4; i++ {
		out, err = r.Observe(report(q, model.Plan{0, 1}, 1000))
		if err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	if !out.Published && r.Generation() == 0 {
		t.Fatalf("no generation published after confident observations (outcome %+v)", out)
	}
	snap := r.Current()
	if snap.Empty() {
		t.Fatal("published snapshot is empty")
	}
	a, ok := snap.Services["a"]
	if !ok {
		t.Fatal("snapshot missing service a")
	}
	if math.Abs(a.Cost-1) > 1e-9 || math.Abs(a.Selectivity-0.5) > 1e-9 {
		t.Fatalf("service a fitted as %+v, want cost 1 sel 0.5", a)
	}
	if tr, ok := snap.Edges[Edge{"a", "b"}]; !ok || math.Abs(tr-0.1) > 1e-9 {
		t.Fatalf("edge a->b fitted as %v/%v, want 0.1", tr, ok)
	}

	// Steady state: constant observations, no further publishes.
	genBefore := r.Generation()
	for i := 0; i < 5; i++ {
		if _, err := r.Observe(report(q, model.Plan{0, 1}, 1000)); err != nil {
			t.Fatalf("steady observe: %v", err)
		}
	}
	if r.Generation() != genBefore {
		t.Fatalf("steady observations bumped generation %d -> %d", genBefore, r.Generation())
	}

	// Drift: the true parameters change; the registry must detect and
	// publish a new generation whose snapshot tracks the new truth.
	drifted := q.Clone()
	drifted.Services[0].Cost = 3 // 3x the anchored cost
	for i := 0; i < 10; i++ {
		if _, err := r.Observe(report(drifted, model.Plan{0, 1}, 1000)); err != nil {
			t.Fatalf("drift observe: %v", err)
		}
	}
	if r.Generation() <= genBefore {
		t.Fatalf("drift did not publish: generation still %d", r.Generation())
	}
	final := r.Current().Services["a"]
	if math.Abs(final.Cost-3) > 0.2 {
		t.Fatalf("post-drift anchored cost %v, want ~3", final.Cost)
	}
	st := r.Stats()
	if st.DriftEvents == 0 || st.Observations == 0 || st.TrackedServices != 2 {
		t.Fatalf("stats %+v: want drift events, observations and 2 tracked services", st)
	}
}

// TestObserveRejectsMalformed: invalid observations reject the whole
// report atomically.
func TestObserveRejectsMalformed(t *testing.T) {
	t.Parallel()
	r := MustNew(Config{})
	cases := []*Report{
		nil,
		{},
		{Services: []ServiceObservation{{Name: "", TuplesIn: 10, TuplesOut: 5, BusyProcessing: 1}}},
		{Services: []ServiceObservation{{Name: "a", TuplesIn: 0, TuplesOut: 0, BusyProcessing: 1}}},
		{Services: []ServiceObservation{{Name: "a", TuplesIn: 10, TuplesOut: 5, BusyProcessing: -1}}},
		{Transfers: []TransferObservation{{From: "a", To: "a", Tuples: 5, BusySending: 1}}},
		{Transfers: []TransferObservation{{From: "a", To: "b", Tuples: 0, BusySending: 1}}},
		{
			Services:  []ServiceObservation{{Name: "good", TuplesIn: 10, TuplesOut: 5, BusyProcessing: 1}},
			Transfers: []TransferObservation{{From: "a", To: "b", Tuples: -1, BusySending: 1}},
		},
	}
	for i, rep := range cases {
		if _, err := r.Observe(rep); err == nil {
			t.Errorf("case %d: malformed report accepted", i)
		}
	}
	if st := r.Stats(); st.Observations != 0 || st.TrackedServices != 0 {
		t.Fatalf("rejected reports mutated the registry: %+v", st)
	}
}

// TestOverlay: published parameters substitute into matching queries by
// name; unmatched queries pass through untouched (and unclosed).
func TestOverlay(t *testing.T) {
	t.Parallel()
	q := twoService(t)
	r := MustNew(Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.01})

	// No overlay before any publish: the same pointer comes back.
	if eff, changed := r.Current().Overlay(q); changed || eff != q {
		t.Fatal("empty snapshot overlaid something")
	}

	truth := q.Clone()
	truth.Services[0].Cost = 5
	truth.Transfer[1][0] = 0.7
	if _, err := r.Observe(report(truth, model.Plan{1, 0}, 1000)); err != nil {
		t.Fatalf("observe: %v", err)
	}
	if _, err := r.Observe(report(truth, model.Plan{0, 1}, 1000)); err != nil {
		t.Fatalf("observe: %v", err)
	}
	if r.Generation() == 0 {
		t.Fatal("no publish after confident observations")
	}

	eff, changed := r.Current().Overlay(q)
	if !changed || eff == q {
		t.Fatal("overlay did not rewrite a matching query")
	}
	if math.Abs(eff.Services[0].Cost-5) > 1e-9 {
		t.Fatalf("overlaid cost %v, want 5", eff.Services[0].Cost)
	}
	if math.Abs(eff.Transfer[1][0]-0.7) > 1e-9 {
		t.Fatalf("overlaid transfer %v, want 0.7", eff.Transfer[1][0])
	}
	if q.Services[0].Cost != 1 || q.Transfer[1][0] != 0.2 {
		t.Fatal("overlay mutated the client query")
	}
	if err := eff.Validate(); err != nil {
		t.Fatalf("overlaid query invalid: %v", err)
	}

	// A query with unknown names passes through by pointer.
	other := twoService(t)
	other.Services[0].Name, other.Services[1].Name = "x", "y"
	if eff, changed := r.Current().Overlay(other); changed || eff != other {
		t.Fatal("overlay touched a query with no matching names")
	}
}

// TestReportFromSim bridges a real simulated execution into a report the
// registry accepts, and the fitted parameters land near the simulated
// truth.
func TestReportFromSim(t *testing.T) {
	t.Parallel()
	q, err := gen.Default(5, 11).Generate()
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	plan := model.Plan{0, 1, 2, 3, 4}
	cfg := sim.DefaultConfig()
	cfg.Tuples = 2000
	rep, err := sim.Run(q, plan, cfg)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	obs, err := ReportFromSim(q, plan, rep)
	if err != nil {
		t.Fatalf("ReportFromSim: %v", err)
	}
	if len(obs.Services) != 5 {
		t.Fatalf("report has %d services, want 5", len(obs.Services))
	}
	r := MustNew(Config{MinObservations: 1, DriftDelta: 0.01, Alpha: 1})
	if _, err := r.Observe(obs); err != nil {
		t.Fatalf("observe simulated report: %v", err)
	}
	if r.Generation() == 0 {
		t.Fatal("simulated observations did not publish")
	}
	got := r.Current().Services[q.Services[0].Name]
	if got.Cost <= 0 {
		t.Fatalf("fitted cost %v from simulation, want > 0", got.Cost)
	}
}

// TestThresholdFromRegret ties the drift threshold to the robust regret
// analysis: the returned delta's own MaxRegret is within budget, and any
// larger probed delta overspends it.
func TestThresholdFromRegret(t *testing.T) {
	t.Parallel()
	q, err := gen.Default(8, 3).Generate()
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	opt, err := core.Optimize(q)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	cfg := robust.Config{Deltas: []float64{0.01, 0.05, 0.1, 0.2}, Samples: 20, Seed: 5}
	budget := 0.02
	delta, err := ThresholdFromRegret(q, opt.Plan, budget, cfg)
	if err != nil {
		t.Fatalf("ThresholdFromRegret: %v", err)
	}
	points, err := robust.Analyze(q, opt.Plan, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	within := map[float64]bool{}
	for _, p := range points {
		within[p.Delta] = p.MaxRegret <= budget
	}
	if within[delta] {
		for _, p := range points {
			if p.Delta > delta && within[p.Delta] {
				t.Fatalf("delta %v returned but larger delta %v is also within budget", delta, p.Delta)
			}
		}
	} else {
		// Nothing was within budget: the smallest probe must come back.
		for _, p := range points {
			if p.Delta < delta {
				t.Fatalf("no probe within budget, but %v returned over smaller %v", delta, p.Delta)
			}
		}
	}
	if _, err := ThresholdFromRegret(q, opt.Plan, 0, cfg); err == nil {
		t.Fatal("zero budget accepted")
	}
}

// TestRegistryConcurrent hammers Observe and Current from many goroutines
// under -race: snapshots must stay internally consistent (a published
// generation never decreases, published values are never torn).
func TestRegistryConcurrent(t *testing.T) {
	t.Parallel()
	q := twoService(t)
	r := MustNew(Config{Alpha: 0.5, MinObservations: 1, DriftDelta: 0.02})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			truth := q.Clone()
			for i := 0; i < 200; i++ {
				truth.Services[0].Cost = 1 + float64((i+w)%7)
				if _, err := r.Observe(report(truth, model.Plan{0, 1}, 1000)); err != nil {
					t.Errorf("observe: %v", err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		last := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Current()
			if s.Gen < last {
				t.Errorf("generation moved backwards: %d -> %d", last, s.Gen)
				return
			}
			last = s.Gen
			_, _ = s.Overlay(q)
		}
	}()
	wg.Wait()
	close(stop)
	checker.Wait()
	if r.Generation() == 0 {
		t.Fatal("concurrent churn never published")
	}
}

// Example of the /v1/observe payload shape (documented in
// internal/exper/README.md).
func ExampleRegistry_Observe() {
	r := MustNew(Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
	out, _ := r.Observe(&Report{
		Services: []ServiceObservation{
			{Name: "ws0", TuplesIn: 1000, TuplesOut: 420, BusyProcessing: 2.5},
		},
		Transfers: []TransferObservation{
			{From: "ws0", To: "ws1", Tuples: 420, BusySending: 0.84},
		},
	})
	fmt.Println(out.Published, out.Generation)
	// Output: true 1
}

func TestInflationFactor(t *testing.T) {
	cases := []struct {
		p    ReliabilityParams
		want float64
	}{
		{ReliabilityParams{}, 1},
		{ReliabilityParams{ErrorRate: 0.5}, 2},                 // E[attempts] = 1/(1-0.5)
		{ReliabilityParams{SpikeRate: 0.5}, 1.5},               // hedge load factor
		{ReliabilityParams{ErrorRate: 0.5, SpikeRate: 0.5}, 3}, // product
		{ReliabilityParams{ErrorRate: 1.0}, 10},                // capped, not infinite
		{ReliabilityParams{ErrorRate: -1, SpikeRate: -1}, 1},   // clamped below
	}
	for _, c := range cases {
		if got := c.p.InflationFactor(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("InflationFactor(%+v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestObserveReliabilityOnly: a report carrying only attempt/failure
// tallies — a service that failed every call has no tuple counts to fit —
// is valid, gains confidence, and publishes a reliability anchor that
// bumps the generation on its own.
func TestObserveReliabilityOnly(t *testing.T) {
	r := MustNew(Config{MinObservations: 3, DriftDelta: 0.1})
	rep := &Report{Services: []ServiceObservation{
		{Name: "flaky", Attempts: 10, Failures: 5, Spikes: 2},
	}}
	var out Outcome
	var err error
	for i := 0; i < 3; i++ {
		out, err = r.Observe(rep)
		if err != nil {
			t.Fatalf("Observe %d: %v", i, err)
		}
	}
	// At confidence, the live inflation factor (~(1+0.2)/(1-0.5) = 2.4)
	// drifts 140% from the implicit 1.0 anchor: a publish.
	if !out.Published || out.Generation != 1 {
		t.Fatalf("outcome = %+v, want a gen-1 publish from reliability alone", out)
	}
	snap := r.Current()
	rp, ok := snap.Reliability["flaky"]
	if !ok {
		t.Fatalf("snapshot has no reliability anchor: %+v", snap)
	}
	if math.Abs(rp.ErrorRate-0.5) > 1e-12 || math.Abs(rp.SpikeRate-0.2) > 1e-12 {
		t.Fatalf("anchored reliability = %+v, want {0.5 0.2}", rp)
	}
	if _, ok := snap.Services["flaky"]; ok {
		t.Fatal("a reliability-only service published performance params")
	}
}

// TestObserveRejectsMalformedReliability: tallies that cannot have
// happened reject the whole report without touching estimates.
func TestObserveRejectsMalformedReliability(t *testing.T) {
	r := MustNew(Config{})
	bad := []*Report{
		{Services: []ServiceObservation{{Name: "s", Attempts: 2, Failures: 3}}},  // failures > attempts
		{Services: []ServiceObservation{{Name: "s", Attempts: 2, Spikes: -1}}},   // negative spikes
		{Services: []ServiceObservation{{Name: "s", Failures: 1}}},               // failures without attempts
		{Services: []ServiceObservation{{Name: "s", Attempts: -1}}},              // negative attempts
		{Services: []ServiceObservation{{Name: "s"}}},                            // neither tuples nor attempts
		{Services: []ServiceObservation{{Name: "s", Attempts: 4, Failures: -2}}}, // negative failures
	}
	for i, rep := range bad {
		if _, err := r.Observe(rep); err == nil {
			t.Errorf("report %d accepted: %+v", i, rep.Services[0])
		}
	}
	if st := r.Stats(); st.Observations != 0 || st.TrackedServices != 0 {
		t.Fatalf("rejected reports touched the registry: %+v", st)
	}
}

// TestObserveHealthyReliabilityNoChurn: a service measuring factor-1.0
// reliability matches the implicit anchor — confident healthy services
// must not bump generations.
func TestObserveHealthyReliabilityNoChurn(t *testing.T) {
	r := MustNew(Config{MinObservations: 2, DriftDelta: 0.1})
	rep := &Report{Services: []ServiceObservation{
		{Name: "solid", Attempts: 20, Failures: 0, Spikes: 0},
	}}
	for i := 0; i < 5; i++ {
		out, err := r.Observe(rep)
		if err != nil {
			t.Fatalf("Observe %d: %v", i, err)
		}
		if out.Published {
			t.Fatalf("observation %d published on a perfectly healthy service", i)
		}
	}
	if gen := r.Generation(); gen != 0 {
		t.Fatalf("generation = %d, want 0", gen)
	}
}

// TestOverlayInflatesUnreliableCost: the overlay multiplies an anchored
// service's cost by its inflation factor, so the planner demotes flaky
// services even when raw performance is unchanged.
func TestOverlayInflatesUnreliableCost(t *testing.T) {
	q := twoService(t)
	snap := &Snapshot{
		Gen:         1,
		Reliability: map[string]ReliabilityParams{"a": {ErrorRate: 0.5}},
	}
	eff, changed := snap.Overlay(q)
	if !changed {
		t.Fatal("reliability-only snapshot did not change the query")
	}
	if got := eff.Services[0].Cost; math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("inflated cost = %v, want 1 x factor 2", got)
	}
	if got := eff.Services[1].Cost; got != 2 {
		t.Fatalf("unanchored service cost changed to %v", got)
	}
	// Inflation composes with a performance anchor: substituted cost, then
	// the multiplier.
	snap.Services = map[string]ServiceParams{"a": {Cost: 3, Selectivity: 0.4}}
	eff, _ = snap.Overlay(q)
	if got := eff.Services[0].Cost; math.Abs(got-6.0) > 1e-12 {
		t.Fatalf("anchored+inflated cost = %v, want 3 x 2", got)
	}
	// A factor-1 reliability anchor alone is a no-op overlay.
	calm := &Snapshot{Gen: 1, Reliability: map[string]ReliabilityParams{"a": {}}}
	if _, changed := calm.Overlay(q); changed {
		t.Fatal("factor-1 reliability anchor cloned the query for nothing")
	}
}

// TestReliabilityDriftRepublishes: after a reliability anchor exists,
// further error-rate movement re-triggers publication in inflation-factor
// space.
func TestReliabilityDriftRepublishes(t *testing.T) {
	r := MustNew(Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.2})
	flaky := func(failures int64) *Report {
		return &Report{Services: []ServiceObservation{
			{Name: "s", Attempts: 10, Failures: failures},
		}}
	}
	out, err := r.Observe(flaky(5)) // factor 2 vs implicit 1.0: publish
	if err != nil || !out.Published {
		t.Fatalf("first publish: out=%+v err=%v", out, err)
	}
	out, err = r.Observe(flaky(5)) // unchanged: no churn
	if err != nil || out.Published {
		t.Fatalf("steady state published: out=%+v err=%v", out, err)
	}
	out, err = r.Observe(flaky(8)) // factor 5 vs anchor 2: 150% drift
	if err != nil || !out.Published || out.Generation != 2 {
		t.Fatalf("worsening reliability did not republish: out=%+v err=%v", out, err)
	}
	rp := r.Current().Reliability["s"]
	if math.Abs(rp.ErrorRate-0.8) > 1e-12 {
		t.Fatalf("anchored error rate = %v, want 0.8", rp.ErrorRate)
	}
}
