package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"serviceordering/internal/gen"
	"serviceordering/internal/planner"
)

// TestV1ClientRejectsMalformedAnswers: the client helpers never mistake a
// broken answer for data — an undecodable 200, an error envelope behind a
// 200, and a non-envelope error status each come back as an error naming
// the path.
func TestV1ClientRejectsMalformedAnswers(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/undecodable":
			_, _ = w.Write([]byte("not json"))
		case "/v1/enveloped-error":
			_, _ = w.Write([]byte(`{"data":null,"error":{"code":"internal","message":"boom"}}`))
		default:
			http.Error(w, "upstream down", http.StatusBadGateway)
		}
	}))
	defer srv.Close()
	c := srv.Client()
	for path, want := range map[string]string{
		"/v1/undecodable":     "/v1/undecodable: invalid character",
		"/v1/enveloped-error": "/v1/enveloped-error: internal: boom",
		"/v1/plain":           "/v1/plain: status 502",
	} {
		if _, err := postV1[solvedProbe](c, srv.URL, path, []byte("{}")); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("POST %s: %v, want an error containing %q", path, err, want)
		}
	}
	if _, err := getV1[solvedProbe](c, srv.URL, "/v1/plain"); err == nil || !strings.Contains(err.Error(), "status 502") {
		t.Errorf("GET /v1/plain: %v, want a status 502 error", err)
	}
	if err := drainV1(c, srv.URL, "/v1/plain", nil); err == nil || !strings.Contains(err.Error(), "status 502") {
		t.Errorf("drain /v1/plain: %v, want a status 502 error", err)
	}
	dead := "http://127.0.0.1:1"
	if _, err := postV1[solvedProbe](c, dead, "/v1/optimize", nil); err == nil {
		t.Error("POST to an unreachable server succeeded")
	}
	if _, err := getV1[solvedProbe](c, dead, "/v1/stats"); err == nil {
		t.Error("GET from an unreachable server succeeded")
	}
	if err := drainV1(c, dead, "/v1/optimize", nil); err == nil {
		t.Error("drain to an unreachable server succeeded")
	}
}

// TestDriftHTTPRecordsOnlySuccesses: the drift scenario's timer counts a
// request toward its cell only when the request succeeded.
func TestDriftHTTPRecordsOnlySuccesses(t *testing.T) {
	target, err := startTarget(loadOpts{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer target.close()
	corp, err := buildCorpus(1, 6, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	h := &driftHTTP{target: target}
	if _, err := h.optimize(corp.bodies[0]); err != nil {
		t.Fatal(err)
	}
	if err := h.drain(corp.bodies[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.optimize([]byte("{not json")); err == nil {
		t.Error("malformed optimize accepted")
	}
	if err := h.drain([]byte("{not json")); err == nil {
		t.Error("malformed drain accepted")
	}
	// No -adaptive on this target: /v1/observe 404s.
	if err := h.observe(analyticReport(corp.queries[0], []int{0, 1, 2, 3, 4, 5}, 1000)); err == nil {
		t.Error("observe against a non-adaptive server succeeded")
	}
	if h.reqs != 2 || len(h.lats) != 2 {
		t.Fatalf("recorded %d requests (%d latencies), want the 2 successes", h.reqs, len(h.lats))
	}
}

// TestPerturbUntilPlanBreaksGivesUp: a perturbation too small to break the
// incumbent plan is reported as an error after the seed budget, never
// passed off as a drift the scenario could recover from.
func TestPerturbUntilPlanBreaksGivesUp(t *testing.T) {
	t.Parallel()
	truth, err := gen.Default(5, 3).Generate()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := planner.New(planner.Config{}).Optimize(noCtx(), truth)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, _, err = perturbUntilPlanBreaks(truth, opt.Plan, driftSpec{perturbScale: 0, minOldRegret: 0.03}, 1)
	if err == nil || !strings.Contains(err.Error(), "within 64 seeds") {
		t.Fatalf("zero-scale perturbation: %v, want the seed-budget error", err)
	}
}
