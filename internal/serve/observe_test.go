package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"serviceordering/internal/adapt"
	"serviceordering/internal/calibrate"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// The /v1/observe endpoint and the HTTP-visible half of the adaptive
// replanning loop: ingest reports, watch the generation move, and see
// replanned responses reflect the drifted statistics.

func newAdaptiveServer(t testing.TB, cfg adapt.Config) (*httptest.Server, *adapt.Registry) {
	t.Helper()
	reg := adapt.MustNew(cfg)
	srv := httptest.NewServer(NewHandler(planner.New(planner.Config{Adaptive: reg}), Options{MaxBody: 1 << 20}))
	t.Cleanup(srv.Close)
	return srv, reg
}

// fixtureReport builds a noise-free execution report of the fixture
// instance's services along plan, with every cost and transfer scaled by
// scale (scale 1 reproduces the fixture parameters exactly).
func fixtureReport(t testing.TB, plan model.Plan, scale float64) *adapt.Report {
	t.Helper()
	q := fixtureInstance(t).Query
	rep := &adapt.Report{}
	in := int64(100000)
	for pos, s := range plan {
		if in <= 0 {
			break // starved tail: nothing flowed, nothing to observe
		}
		svc := q.Services[s]
		out := int64(float64(in) * svc.Selectivity)
		rep.Services = append(rep.Services, adapt.ServiceObservation{
			Name:           svc.Name,
			TuplesIn:       in,
			TuplesOut:      out,
			BusyProcessing: svc.Cost * scale * float64(in),
		})
		if pos+1 < len(plan) && out > 0 {
			rep.Transfers = append(rep.Transfers, adapt.TransferObservation{
				From:        svc.Name,
				To:          q.Services[plan[pos+1]].Name,
				Tuples:      out,
				BusySending: q.Transfer[s][plan[pos+1]] * scale * float64(out),
			})
		}
		in = out
	}
	return rep
}

// TestObserveDisabled: without -adaptive the endpoint 404s with a helpful
// error instead of silently accepting reports into nothing.
func TestObserveDisabled(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/observe", fixtureReport(t, model.Plan{0, 1, 2}, 1))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d without a registry, want 404", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != string(codeNotFound) || e.Message == "" {
		t.Fatalf("disabled reply %+v, want a not_found error with a message", e)
	}
}

// TestObserveRejectsMalformedReport: a bad report — invalid, or followed
// by trailing data — is a 400, not a half-applied observation.
func TestObserveRejectsMalformedReport(t *testing.T) {
	t.Parallel()
	srv, reg := newAdaptiveServer(t, adapt.Config{})
	resp := postJSON(t, srv.URL+"/v1/observe", map[string]any{
		"services": []map[string]any{{"name": "a", "tuplesIn": 0, "tuplesOut": 0, "busyProcessing": 1}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d for malformed report, want 400", resp.StatusCode)
	}
	valid, err := json.Marshal(fixtureReport(t, model.Plan{0, 1, 2}, 1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/observe", "application/json", bytes.NewReader(append(valid, " {}"...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d for a report with trailing data, want 400", resp.StatusCode)
	}
	if st := reg.Stats(); st.Observations != 0 {
		t.Fatalf("malformed report counted as an observation: %+v", st)
	}
}

// TestObserveDriftReplanOverHTTP is the end-to-end loop through the
// production handler: warm a plan, drift the observed statistics, watch
// /v1/observe publish a generation, and verify the next /v1/optimize
// response is a replan whose cost reflects the fitted (drifted) parameters
// while /v1/stats exposes every counter along the way.
func TestObserveDriftReplanOverHTTP(t *testing.T) {
	t.Parallel()
	srv, _ := newAdaptiveServer(t, adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
	inst := fixtureInstance(t)

	first := decodeData[OptimizeResponse](t, postJSON(t, srv.URL+"/v1/optimize", inst))
	if first.Cost != 2.5 {
		t.Fatalf("fixture optimum %v, want 2.5", first.Cost)
	}
	warm := decodeData[OptimizeResponse](t, postJSON(t, srv.URL+"/v1/optimize", inst))
	if !warm.Cached {
		t.Fatal("second request not cached")
	}

	// Drift: every observed cost and transfer is 3x the client's claims,
	// reported along a covering plan set so every directed edge is
	// observed and the full overlay is exactly the 3x-scaled fixture.
	published := false
	var lastGen uint64
	reports := 0
	for round := 0; round < 2; round++ {
		for _, plan := range calibrate.CoveringPlans(3) {
			out := decodeData[ObserveResponse](t, postJSON(t, srv.URL+"/v1/observe", fixtureReport(t, plan, 3)))
			published = published || out.Published
			lastGen = out.Generation
			reports++
		}
	}
	if !published || lastGen == 0 {
		t.Fatalf("drifted reports never published (gen %d)", lastGen)
	}

	replanned := decodeData[OptimizeResponse](t, postJSON(t, srv.URL+"/v1/optimize", inst))
	if replanned.Cached || replanned.Shared {
		t.Fatal("post-drift response served from the stale cache")
	}
	if replanned.Signature == first.Signature {
		t.Fatal("effective signature did not move with the overlay")
	}
	// With all parameters scaled 3x the optimal ORDER is unchanged but
	// the served cost must reflect the fitted reality, not the client's
	// stale numbers: 3 * 2.5 = 7.5 (up to fit round-trip error).
	if diff := replanned.Cost - 7.5; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("replanned cost %v, want ~7.5 (3x fixture optimum)", replanned.Cost)
	}
	if err := model.Plan(replanned.Plan).Validate(inst.Query); err != nil {
		t.Fatalf("replanned plan invalid: %v", err)
	}

	recached := decodeData[OptimizeResponse](t, postJSON(t, srv.URL+"/v1/optimize", inst))
	if !recached.Cached {
		t.Fatal("replanned result not re-cached under the new generation")
	}

	st := decodeData[StatsResponse](t, mustGet(t, srv.URL+"/v1/stats"))
	if st.Adaptive == nil {
		t.Fatal("/v1/stats omits the adaptive block with a registry attached")
	}
	if st.Adaptive.Generation == 0 || st.Adaptive.DriftEvents == 0 || st.Adaptive.Observations != int64(reports) {
		t.Fatalf("adaptive counters %+v want generation, drift events, every observation counted", st.Adaptive)
	}
	if st.Generation != st.Adaptive.Generation {
		t.Fatalf("planner generation %d != registry generation %d", st.Generation, st.Adaptive.Generation)
	}
	if st.Replans == 0 {
		t.Fatal("/v1/stats replans counter did not record the replan")
	}
	if st.Adaptive.TrackedServices != 3 {
		t.Fatalf("tracked services %d, want 3", st.Adaptive.TrackedServices)
	}
}

// TestStatsOmitsAdaptiveWhenDisabled: the non-adaptive /v1/stats document
// must not grow an adaptive block (and generation/replans stay zero), so
// dashboards can key on its presence.
func TestStatsOmitsAdaptiveWhenDisabled(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t)
	raw := decodeData[map[string]any](t, mustGet(t, srv.URL+"/v1/stats"))
	if _, ok := raw["adaptive"]; ok {
		t.Fatal("adaptive block present without a registry")
	}
	if raw["generation"].(float64) != 0 || raw["replans"].(float64) != 0 {
		t.Fatalf("generation/replans nonzero without a registry: %v/%v", raw["generation"], raw["replans"])
	}
}

func mustGet(t testing.TB, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}
