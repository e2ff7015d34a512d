package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"serviceordering/internal/exec"
	"serviceordering/internal/faultinject"
	"serviceordering/internal/model"
)

// TestExecuteFailoverRescuedResponse: a mid-plan blackout triggers
// plan-aware failover; the residual replan comes through the handler's
// planner (the SetResidualPlanner wiring), and the response carries the
// rescued full answer with the failover report instead of a degraded
// marker.
func TestExecuteFailoverRescuedResponse(t *testing.T) {
	q := fixtureInstance(t).Query
	mock := exec.NewMockBackend(7)
	mock.SetQuery(q)
	inj := faultinject.Wrap(mock, faultinject.Plan{Seed: 4, Services: map[string]faultinject.Faults{
		"b": {BlackoutFrom: 0, BlackoutLen: 2}, // first two b-calls fail, then healed
	}})
	srv, ex := newExecServer(t, inj, exec.Options{
		RetryBudget:         -1, // the first failure escalates straight to failover
		BreakerThreshold:    -1,
		Failover:            true,
		FailoverRetryBudget: 4,
		RetryBase:           time.Millisecond,
		BlockSize:           512,
	}, Options{MaxBody: 1 << 20})

	resp := postJSON(t, srv.URL+"/v1/execute", ExecuteRequest{Query: q, Tuples: 300})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	got := decodeData[ExecuteResponse](t, resp)
	if got.Degraded != nil {
		t.Fatalf("degraded despite rescue: %+v", got.Degraded)
	}
	if got.Failover == nil || !got.Failover.Rescued || got.Failover.Service != "b" {
		t.Fatalf("failover = %+v, want rescued b", got.Failover)
	}
	if len(got.Failover.ResidualPlan) != 2 || got.Failover.ResidualPlan[0] != "c" || got.Failover.ResidualPlan[1] != "b" {
		t.Fatalf("residual plan = %v, want [c b]", got.Failover.ResidualPlan)
	}
	if len(got.FailoverStages) != 2 {
		t.Fatalf("failoverStages = %+v", got.FailoverStages)
	}
	// The rescued answer equals a clean run's: selectivity 0.5*0.8*0.25
	// realized on the same seed.
	clean := exec.New(mock, exec.Options{})
	truth, err := clean.Execute(context.Background(), q, got.Plan, exec.Tuples(300))
	if err != nil || truth.Degraded != nil {
		t.Fatalf("truth run: %v %v", err, truth.Degraded)
	}
	if got.TuplesOut != truth.TuplesOut {
		t.Fatalf("rescued TuplesOut = %d, clean run = %d", got.TuplesOut, truth.TuplesOut)
	}
	if got.Hedges != nil {
		t.Fatalf("hedges reported without a replica backend: %+v", got.Hedges)
	}

	// /v1/stats carries the failover counters.
	st, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	stats := decodeData[StatsResponse](t, st)
	if stats.Exec == nil || stats.Exec.Failovers.Attempted != 1 || stats.Exec.Failovers.Succeeded != 1 {
		t.Fatalf("stats failovers = %+v", stats.Exec)
	}
	if got := ex.Stats().Failovers.Active; len(got) != 0 {
		t.Fatalf("active failovers after completion: %v", got)
	}
}

// gateBackend blocks the first call to one service until released — it
// holds a rescue pipeline in flight so the test can scrape /v1/healthz
// mid-failover.
type gateBackend struct {
	base    exec.Backend
	service string

	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newGateBackend(base exec.Backend, service string) *gateBackend {
	return &gateBackend{base: base, service: service, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateBackend) Call(ctx context.Context, service string, in []exec.Tuple) (exec.CallResult, error) {
	if service == g.service {
		g.once.Do(func() { close(g.entered) })
		select {
		case <-g.release:
		case <-ctx.Done():
			return exec.CallResult{}, ctx.Err()
		}
	}
	return g.base.Call(ctx, service, in)
}

// TestHealthzFailoverActive: while a rescue pipeline is in flight the node
// reports failover-active:<svc>; once it finishes the reason clears.
func TestHealthzFailoverActive(t *testing.T) {
	q := fixtureInstance(t).Query
	mock := exec.NewMockBackend(7)
	mock.SetQuery(q)
	inj := faultinject.Wrap(mock, faultinject.Plan{Seed: 4, Services: map[string]faultinject.Faults{
		"b": {BlackoutFrom: 0, BlackoutLen: 1 << 30}, // b never comes back
	}})
	// The rescue defers b behind c; gating c holds the rescue open.
	gate := newGateBackend(inj, "c")
	srv, ex := newExecServer(t, gate, exec.Options{
		RetryBudget:      -1,
		BreakerThreshold: -1,
		Failover:         true,
		BlockSize:        512,
	}, Options{MaxBody: 1 << 20})

	done := make(chan *exec.Result, 1)
	go func() {
		res, err := ex.Execute(context.Background(), q, model.Plan{0, 1, 2}, exec.Tuples(100))
		if err != nil {
			t.Errorf("Execute: %v", err)
		}
		done <- res
	}()

	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("rescue never reached the gated service")
	}
	hz, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeData[HealthzResponse](t, hz)
	hz.Body.Close()
	found := false
	for _, r := range health.Reasons {
		if r == "failover-active:b" {
			found = true
		}
	}
	if health.Status != "degraded" || !found {
		t.Fatalf("healthz mid-rescue = %+v, want degraded with failover-active:b", health)
	}

	close(gate.release)
	res := <-done
	// b never healed, so the rescue itself degrades — but the failover was
	// attempted and the gauge must be back to zero.
	if res.Degraded == nil || res.Failover == nil {
		t.Fatalf("result = degraded %+v failover %+v", res.Degraded, res.Failover)
	}
	hz2, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health2 := decodeData[HealthzResponse](t, hz2)
	hz2.Body.Close()
	for _, r := range health2.Reasons {
		if r == "failover-active:b" {
			t.Fatalf("healthz after rescue = %+v, gauge did not clear", health2)
		}
	}
}

// slowPrimary is a ReplicaBackend whose primary replica stalls, so every
// call wants a hedge — the saturation path's driver.
type slowPrimary struct {
	mb    *exec.MockBackend
	delay time.Duration
}

func (s slowPrimary) Replicas(service string) int { return 2 }

func (s slowPrimary) Call(ctx context.Context, service string, in []exec.Tuple) (exec.CallResult, error) {
	timer := time.NewTimer(s.delay)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
		return exec.CallResult{}, ctx.Err()
	}
	return s.mb.Call(ctx, service, in)
}

func (s slowPrimary) CallReplica(ctx context.Context, service string, replica int, in []exec.Tuple) (exec.CallResult, error) {
	if replica == 0 {
		return s.Call(ctx, service, in)
	}
	return s.mb.Call(ctx, service, in)
}

// TestHealthzHedgeRateSaturated: once the global hedge-rate cap blocks
// hedges, /v1/healthz carries hedge-rate-saturated until a launch clears
// it.
func TestHealthzHedgeRateSaturated(t *testing.T) {
	q := fixtureInstance(t).Query
	mock := exec.NewMockBackend(7)
	mock.SetQuery(q)
	srv, ex := newExecServer(t, slowPrimary{mb: mock, delay: 8 * time.Millisecond}, exec.Options{
		HedgeDelay:   time.Millisecond,
		HedgeBudget:  1000,
		HedgeRateCap: 0.01,
		BlockSize:    8,
	}, Options{MaxBody: 1 << 20})

	res, err := ex.Execute(context.Background(), q, model.Plan{0, 1, 2}, exec.Tuples(96))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Degraded != nil {
		t.Fatalf("degraded: %v", res.Degraded)
	}
	st := ex.Stats()
	if !st.Hedges.Saturated || st.Hedges.Suppressed == 0 {
		t.Fatalf("hedge stats = %+v, want saturated with suppressions", st.Hedges)
	}
	hz, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeData[HealthzResponse](t, hz)
	hz.Body.Close()
	found := false
	for _, r := range health.Reasons {
		if r == "hedge-rate-saturated" {
			found = true
		}
	}
	if health.Status != "degraded" || !found {
		t.Fatalf("healthz = %+v, want degraded with hedge-rate-saturated", health)
	}
}
