package serve

import (
	"context"
	"strings"

	"net/http"
	"net/http/httptest"
	"serviceordering/internal/admit"
	"testing"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/exec"
	"serviceordering/internal/faultinject"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// newExecServer hosts the handler with an executor over backend.
func newExecServer(t testing.TB, backend exec.Backend, eopts exec.Options, opts Options) (*httptest.Server, *exec.Executor) {
	t.Helper()
	ex := exec.New(backend, eopts)
	opts.Executor = ex
	srv := httptest.NewServer(NewHandler(planner.New(planner.Config{}), opts))
	t.Cleanup(srv.Close)
	return srv, ex
}

func TestExecuteDisabled(t *testing.T) {
	srv := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/execute", ExecuteRequest{Query: fixtureInstance(t).Query, Tuples: 10})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 without an executor", resp.StatusCode)
	}
}

func TestExecuteEndToEnd(t *testing.T) {
	q := fixtureInstance(t).Query
	mock := exec.NewMockBackend(7)
	mock.SetQuery(q)
	srv, _ := newExecServer(t, mock, exec.Options{}, Options{MaxBody: 1 << 20})

	resp := postJSON(t, srv.URL+"/v1/execute", ExecuteRequest{Comment: "e2e", Query: q, Tuples: 200})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	got := decodeData[ExecuteResponse](t, resp)
	if !got.Plan.Equal(model.Plan{0, 1, 2}) {
		t.Errorf("plan = %v, want the fixture optimum [0 1 2]", got.Plan)
	}
	if got.Cost != 2.5 || !got.Optimal {
		t.Errorf("cost/optimal = %v/%v, want 2.5/true", got.Cost, got.Optimal)
	}
	if got.TuplesIn != 200 {
		t.Errorf("tuplesIn = %d, want 200", got.TuplesIn)
	}
	// Selectivity product 0.5*0.8*0.25 = 0.1: ~20 survivors of 200.
	if got.TuplesOut < 5 || got.TuplesOut > 50 {
		t.Errorf("tuplesOut = %d, want ~20", got.TuplesOut)
	}
	if got.Degraded != nil {
		t.Errorf("healthy run degraded: %+v", got.Degraded)
	}
	if len(got.Stages) != 3 || got.Stages[0].Service != "a" || got.Stages[0].TuplesIn != 200 {
		t.Errorf("stages = %+v", got.Stages)
	}
	if got.Observed {
		t.Error("non-adaptive server claimed to observe")
	}

	// Second run: the plan comes from the cache, execution still happens.
	resp2 := postJSON(t, srv.URL+"/v1/execute", ExecuteRequest{Query: q, Tuples: 100})
	got2 := decodeData[ExecuteResponse](t, resp2)
	if !got2.Cached {
		t.Error("second execute did not reuse the cached plan")
	}
	if got2.TuplesIn != 100 {
		t.Errorf("tuplesIn = %d, want 100", got2.TuplesIn)
	}

	// /v1/stats exposes the executor block.
	st, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	stats := decodeData[StatsResponse](t, st)
	if stats.Exec == nil || stats.Exec.Executions != 2 || stats.Exec.Calls == 0 {
		t.Fatalf("stats exec block = %+v, want 2 executions", stats.Exec)
	}
}

func TestExecuteFeedsAdaptiveRegistry(t *testing.T) {
	q := fixtureInstance(t).Query
	mock := exec.NewMockBackend(3)
	mock.SetQuery(q)
	reg := adapt.MustNew(adapt.Config{})
	ex := exec.New(mock, exec.Options{})
	srv := httptest.NewServer(NewHandler(planner.New(planner.Config{Adaptive: reg}),
		Options{MaxBody: 1 << 20, Executor: ex}))
	t.Cleanup(srv.Close)

	resp := postJSON(t, srv.URL+"/v1/execute", ExecuteRequest{Query: q, Tuples: 500})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	got := decodeData[ExecuteResponse](t, resp)
	if !got.Observed {
		t.Fatal("adaptive server did not observe the execution report")
	}
	if st := reg.Stats(); st.Observations == 0 {
		t.Fatalf("registry stats = %+v, want observations > 0", st)
	}
}

func TestExecuteDegradedIsTypedAnd200(t *testing.T) {
	q := fixtureInstance(t).Query
	mock := exec.NewMockBackend(5)
	mock.SetQuery(q)
	inj := faultinject.Wrap(mock, faultinject.Plan{Seed: 9, Services: map[string]faultinject.Faults{
		"b": {ErrorRate: 1},
	}})
	srv, _ := newExecServer(t, inj,
		exec.Options{RetryBudget: 2, RetryBase: time.Millisecond, BreakerThreshold: 2, BreakerCooldown: time.Hour},
		Options{MaxBody: 1 << 20})

	resp := postJSON(t, srv.URL+"/v1/execute", ExecuteRequest{Query: q, Tuples: 100})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 with a typed degraded marker", resp.StatusCode)
	}
	got := decodeData[ExecuteResponse](t, resp)
	// Threshold 2 trips before the budget runs dry, so the typed reason is
	// the open breaker shedding the retry.
	if got.Degraded == nil || got.Degraded.Service != "b" || got.Degraded.Reason != exec.ReasonBreakerOpen {
		t.Fatalf("degraded = %+v, want breaker-open at b", got.Degraded)
	}

	// The breaker opened (threshold 2 < budget+1 failures) and the cooldown
	// is an hour: /v1/healthz reports the node degraded with the breaker
	// named.
	hz, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200 even when degraded", hz.StatusCode)
	}
	health := decodeData[HealthzResponse](t, hz)
	if health.Status != "degraded" {
		t.Fatalf("healthz = %+v, want degraded", health)
	}
	found := false
	for _, r := range health.Reasons {
		if r == "breaker-open:b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("healthz reasons = %v, want breaker-open:b", health.Reasons)
	}
}

func TestExecuteRejectsBadTuples(t *testing.T) {
	q := fixtureInstance(t).Query
	mock := exec.NewMockBackend(1)
	mock.SetQuery(q)
	srv, _ := newExecServer(t, mock, exec.Options{}, Options{})
	resp := postJSON(t, srv.URL+"/v1/execute", ExecuteRequest{Query: q, Tuples: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 for negative tuples", resp.StatusCode)
	}
}

func TestHealthzSnapshotRestoreFailed(t *testing.T) {
	srv := httptest.NewServer(NewHandler(planner.New(planner.Config{}), Options{SnapshotRestoreFailed: true}))
	t.Cleanup(srv.Close)
	hz, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	health := decodeData[HealthzResponse](t, hz)
	if health.Status != "degraded" || len(health.Reasons) != 1 || health.Reasons[0] != "snapshot-restore-failed" {
		t.Fatalf("healthz = %+v, want degraded with snapshot-restore-failed", health)
	}
}

func TestHealthzOKJSON(t *testing.T) {
	srv := newTestServer(t)
	hz, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	health := decodeData[HealthzResponse](t, hz)
	if health.Status != "ok" || len(health.Reasons) != 0 {
		t.Fatalf("healthz = %+v, want ok with no reasons", health)
	}
}

// TestExecuteRejectsMalformedRequests covers the request-validation
// branches: broken JSON, a missing query, an invalid query, an oversized
// tuple count, and trailing data are all 400s.
func TestExecuteRejectsMalformedRequests(t *testing.T) {
	q := fixtureInstance(t).Query
	mock := exec.NewMockBackend(7)
	mock.SetQuery(q)
	srv, _ := newExecServer(t, mock, exec.Options{}, Options{MaxBody: 1 << 20})

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/execute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := map[string]string{
		"broken JSON":     `{"tuples": `,
		"missing query":   `{"tuples": 5}`,
		"invalid query":   `{"query": {"services": [{"cost": -1, "selectivity": 0.5}], "transfer": [[0]]}, "tuples": 5}`,
		"too many tuples": `{"tuples": 2097152}`,
		"trailing data":   `{"query": ` + mustJSON(t, q) + `, "tuples": 5} {"tuples": 5}`,
	}
	for name, body := range cases {
		if got := post(body); got != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, got)
		}
	}
}

// TestExecuteShedsUnderAdmission: /v1/execute sits behind the same
// admission gate as /v1/optimize — with capacity pinned, the request is
// refused with the 429 shed contract.
func TestExecuteShedsUnderAdmission(t *testing.T) {
	q := fixtureInstance(t).Query
	mock := exec.NewMockBackend(7)
	mock.SetQuery(q)
	ctl := admit.New(admit.Options{MaxConcurrent: 1, MaxQueue: 1, MaxWait: 20 * time.Millisecond})
	srv, _ := newExecServer(t, mock, exec.Options{}, Options{MaxBody: 1 << 20, Admission: ctl})

	ticket, err := ctl.Acquire(context.Background(), admit.Warm, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ticket.Release()

	resp := postJSON(t, srv.URL+"/v1/execute", ExecuteRequest{Query: q, Tuples: 10})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 with the slot held", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if e := decodeError(t, resp); e.Code != string(codeOverloaded) || !typedReason(e.Reason) {
		t.Fatalf("shed envelope %+v, want overloaded with a typed reason", e)
	}
}
