package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// genInstance builds a deterministic random instance of the given size.
func genInstance(t testing.TB, p gen.Params) *model.Instance {
	t.Helper()
	q, err := p.Generate()
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	return &model.Instance{Query: q}
}

// TestLargeInstanceServed: a query past the exact core's 64-service limit
// is admitted, solved by the heuristic tier, and the response reports
// which tier (and member) produced the plan. A byte-identical
// resubmission is served warm with the identical tier.
func TestLargeInstanceServed(t *testing.T) {
	srv := newTestServer(t)
	inst := genInstance(t, gen.Default(70, 2026))

	first := decodeData[OptimizeResponse](t, postJSON(t, srv.URL+"/v1/optimize", inst))
	if !strings.HasPrefix(first.Tier, "heuristic/") {
		t.Fatalf("tier = %q, want heuristic/*", first.Tier)
	}
	if first.Optimal {
		t.Error("n=70 response claims optimality without an exact proof")
	}
	if err := first.Plan.Validate(inst.Query); err != nil {
		t.Fatalf("served plan invalid: %v", err)
	}
	if got := inst.Query.Cost(first.Plan); got != first.Cost {
		t.Errorf("reported cost %v != recomputed %v", first.Cost, got)
	}

	second := decodeData[OptimizeResponse](t, postJSON(t, srv.URL+"/v1/optimize", inst))
	if !second.Cached {
		t.Error("identical large-n request not served from cache")
	}
	if second.Tier != first.Tier || second.Cost != first.Cost {
		t.Errorf("cached response diverged: tier %q cost %v vs %q / %v",
			second.Tier, second.Cost, first.Tier, first.Cost)
	}
}

// TestExactTierReported: small instances keep the exact tier.
func TestExactTierReported(t *testing.T) {
	srv := newTestServer(t)
	got := decodeData[OptimizeResponse](t, postJSON(t, srv.URL+"/v1/optimize", fixtureInstance(t)))
	if got.Tier != planner.TierExact {
		t.Errorf("tier = %q, want %q", got.Tier, planner.TierExact)
	}
}

// TestQueryTooLargeMapsTo422: with the heuristic tier disabled, an
// oversized query gets the typed planner rejection as a 422 error
// envelope — not a 400 (the query itself is well-formed) and not a panic.
func TestQueryTooLargeMapsTo422(t *testing.T) {
	srv := httptest.NewServer(NewHandler(
		planner.New(planner.Config{ExactOnly: true}), Options{}))
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/optimize", genInstance(t, gen.Default(65, 7)))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != string(codeQueryTooLarge) || e.Message == "" {
		t.Fatalf("422 envelope %+v, want query_too_large with a message", e)
	}
}

// TestQueryMemoAdmitsLargeQueries: the memo's only admission criterion is
// the byte bound — a compactly encoded query past 64 services is
// memoized on its second sighting, so its byte-identical resubmissions
// skip the parse.
func TestQueryMemoAdmitsLargeQueries(t *testing.T) {
	h := NewHandler(planner.New(planner.Config{}), Options{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Uniform zero-cost transfers encode as "0," per cell, keeping a
	// 70-service instance comfortably under the 16KiB memo bound.
	p := gen.Default(70, 99)
	p.Topology = gen.TopologyUniform
	p.TransferBase = 0
	inst := genInstance(t, p)
	body, err := json.Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > maxMemoQueryBytes {
		t.Fatalf("test instance encodes to %d bytes; must stay under the %d memo bound", len(body), maxMemoQueryBytes)
	}

	post := func() OptimizeResponse {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		return decodeData[OptimizeResponse](t, resp)
	}
	scrapeHits := func() int64 {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return decodeData[StatsResponse](t, resp).QueryMemoHits
	}

	first := post()
	if hits := scrapeHits(); hits != 0 {
		t.Fatalf("queryMemoHits = %d after first sight, want 0", hits)
	}
	post() // the second sighting admits the body to the memo
	second := post()
	if hits := scrapeHits(); hits != 1 {
		t.Fatalf("queryMemoHits = %d after byte-identical large-n resubmission, want 1", hits)
	}
	if !second.Cached || second.Cost != first.Cost || second.Tier != first.Tier {
		t.Fatalf("memo-hit large-n request diverged: %+v vs %+v", second, first)
	}
}

// TestStatsReportsTierCounts: /v1/stats surfaces the per-tier execution
// counters from the planner.
func TestStatsReportsTierCounts(t *testing.T) {
	srv := newTestServer(t)
	postJSON(t, srv.URL+"/v1/optimize", fixtureInstance(t))
	postJSON(t, srv.URL+"/v1/optimize", genInstance(t, gen.Default(70, 11)))

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := decodeData[StatsResponse](t, resp)
	if got.TierCounts[planner.TierExact] != 1 {
		t.Errorf("tierCounts[exact] = %d, want 1 (%v)", got.TierCounts[planner.TierExact], got.TierCounts)
	}
	var heuristic int64
	for tier, n := range got.TierCounts {
		if strings.HasPrefix(tier, "heuristic/") {
			heuristic += n
		}
	}
	if heuristic != 1 {
		t.Errorf("heuristic tier executions = %d, want 1 (%v)", heuristic, got.TierCounts)
	}
}
