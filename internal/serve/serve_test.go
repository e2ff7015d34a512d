package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"serviceordering/internal/admit"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// fixtureInstance returns the hand-checked 3-service instance (optimum
// [a b c], cost 2.5).
func fixtureInstance(t testing.TB) *model.Instance {
	t.Helper()
	q, err := model.NewQuery(
		[]model.Service{
			{Name: "a", Cost: 2, Selectivity: 0.5},
			{Name: "b", Cost: 1, Selectivity: 0.8},
			{Name: "c", Cost: 4, Selectivity: 0.25},
		},
		[][]float64{
			{0, 1, 2},
			{3, 0, 1},
			{2, 5, 0},
		})
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}
	return &model.Instance{Comment: "fixture", Query: q}
}

func newTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(planner.New(planner.Config{}), Options{MaxBody: 1 << 20, Pprof: true}))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatalf("encode: %v", err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// decodeEnvelope decodes one /v1 response body.
func decodeEnvelope(t testing.TB, resp *http.Response) v1Envelope {
	t.Helper()
	var env v1Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	return env
}

// decodeData returns a /v1 success envelope's data payload as a T; an
// error envelope fails the test.
func decodeData[T any](t testing.TB, resp *http.Response) T {
	t.Helper()
	env := decodeEnvelope(t, resp)
	if env.Error != nil {
		t.Fatalf("status %d: error envelope %+v", resp.StatusCode, *env.Error)
	}
	var v T
	if err := json.Unmarshal(env.Data, &v); err != nil {
		t.Fatalf("decode data: %v\n%s", err, env.Data)
	}
	return v
}

// decodeError returns a /v1 failure envelope's error half; a success
// envelope fails the test.
func decodeError(t testing.TB, resp *http.Response) v1ErrorBody {
	t.Helper()
	env := decodeEnvelope(t, resp)
	if env.Error == nil || string(env.Data) != "null" {
		t.Fatalf("status %d: want an error envelope, got data %s", resp.StatusCode, env.Data)
	}
	return *env.Error
}

func TestOptimizeEndpoint(t *testing.T) {
	srv := newTestServer(t)
	inst := fixtureInstance(t)

	resp := postJSON(t, srv.URL+"/v1/optimize", inst)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	got := decodeData[OptimizeResponse](t, resp)
	if !got.Plan.Equal(model.Plan{0, 1, 2}) {
		t.Errorf("plan = %v, want [0 1 2]", got.Plan)
	}
	if got.Cost != 2.5 {
		t.Errorf("cost = %v, want 2.5", got.Cost)
	}
	if !got.Optimal {
		t.Error("response not marked optimal")
	}
	if got.Cached {
		t.Error("first request reported cached")
	}
	if got.Signature == "" {
		t.Error("response missing signature")
	}
	if got.Comment != "fixture" {
		t.Errorf("comment = %q, want fixture echoed back", got.Comment)
	}
	if got.Query == nil || len(got.Query.Services) != 3 {
		t.Fatalf("query echo missing or truncated: %+v", got.Query)
	}
	if got.Query.Services[0].Name != "a" || got.Query.Transfer[2][1] != 5 {
		t.Errorf("query echo corrupted: %+v", got.Query)
	}

	// Second identical request: cache hit, zero search work.
	resp2 := postJSON(t, srv.URL+"/v1/optimize", inst)
	got2 := decodeData[OptimizeResponse](t, resp2)
	if !got2.Cached {
		t.Error("second request not served from cache")
	}
	if got2.NodesExpanded != 0 {
		t.Errorf("cached response expanded %d nodes, want 0", got2.NodesExpanded)
	}
	if !got2.Plan.Equal(got.Plan) || got2.Cost != got.Cost {
		t.Errorf("cached response differs: %v/%v vs %v/%v", got2.Plan, got2.Cost, got.Plan, got.Cost)
	}
}

// TestFastEncoderMatchesEncodingJSON holds the hand-rolled encoder to
// encoding/json: for every comment shape — plain, one needing escapes, an
// explicit empty one, none — and for both a fresh search and a cache hit,
// appendSolved's document must decode to exactly what encoding/json makes
// of the OptimizeResponse the test builds from the same request and
// planner result.
func TestFastEncoderMatchesEncodingJSON(t *testing.T) {
	query := mustJSON(t, fixtureInstance(t).Query)
	for _, comment := range []string{
		`"fixture"`,
		mustJSON(t, "tabs\tand \"quotes\" and <html> & ünïcode"),
		`""`,
		"", // no comment key at all
	} {
		p := planner.New(planner.Config{})
		h := newHandler(p, Options{})
		body := `{"query":` + query + `}`
		if comment != "" {
			body = `{"comment":` + comment + `,"query":` + query + `}`
		}
		for round := 0; round < 2; round++ { // miss, then hit
			doc, err := h.memo.decode([]byte(body), instanceDoc)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Optimize(context.Background(), doc.q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached != (round == 1) {
				t.Fatalf("comment %s round %d: cached=%v", comment, round, res.Cached)
			}
			inst := model.Instance{Query: doc.q, Plan: res.Plan}
			if comment != "" {
				if err := json.Unmarshal([]byte(comment), &inst.Comment); err != nil {
					t.Fatal(err)
				}
			}
			want, err := json.Marshal(&OptimizeResponse{
				Instance:      inst,
				Cost:          res.Cost,
				Optimal:       res.Optimal,
				Cached:        res.Cached,
				Shared:        res.Shared,
				Stale:         res.Stale,
				Signature:     res.Signature.String(),
				Tier:          res.Tier,
				NodesExpanded: res.Stats.NodesExpanded,
				ElapsedMicros: res.Stats.Elapsed.Microseconds(),
			})
			if err != nil {
				t.Fatal(err)
			}
			var fastDoc, jsonDoc map[string]any
			if err := json.Unmarshal(appendSolved(nil, doc, res), &fastDoc); err != nil {
				t.Fatalf("comment %s: fast encoder produced invalid JSON: %v", comment, err)
			}
			if err := json.Unmarshal(want, &jsonDoc); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fastDoc, jsonDoc) {
				t.Fatalf("comment %s round %d: encoders diverge:\nfast:          %v\nencoding/json: %v", comment, round, fastDoc, jsonDoc)
			}
		}
	}
}

func mustRawInstances(t testing.TB, insts ...*model.Instance) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, len(insts))
	for i, inst := range insts {
		raw, err := json.Marshal(inst)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = raw
	}
	return out
}

// TestOptimizeEchoesUnusualComments: comments needing JSON escaping round
// trip through the raw-bytes echo path intact.
func TestOptimizeEchoesUnusualComments(t *testing.T) {
	srv := newTestServer(t)
	inst := fixtureInstance(t)
	inst.Comment = "tabs\tand \"quotes\" and <html> & ünïcode"
	got := decodeData[OptimizeResponse](t, postJSON(t, srv.URL+"/v1/optimize", inst))
	if got.Comment != inst.Comment {
		t.Errorf("comment round trip: got %q, want %q", got.Comment, inst.Comment)
	}

	inst.Comment = ""
	got = decodeData[OptimizeResponse](t, postJSON(t, srv.URL+"/v1/optimize", inst))
	if got.Comment != "" {
		t.Errorf("empty comment came back as %q", got.Comment)
	}

	// An EXPLICIT empty comment (omitempty strips it from marshaled
	// instances, so build the body by hand) must be omitted from the
	// response like encoding/json does — not echoed as "".
	q, err := json.Marshal(inst.Query)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"comment":"","query":` + string(q) + `}`)
	resp, err := http.Post(srv.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"comment"`)) {
		t.Errorf("explicit empty comment was echoed: %s", raw[:80])
	}
}

func TestOptimizeRejectsBadRequests(t *testing.T) {
	srv := newTestServer(t)
	instance := mustJSON(t, fixtureInstance(t))

	for name, body := range map[string]string{
		"malformed JSON":         "{not json",
		"trailing garbage":       instance + " garbage",
		"trailing document":      instance + `{"query":null}`,
		"trailing on a bad body": "{} x",
	} {
		resp, err := http.Post(srv.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if e := decodeError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != string(codeBadRequest) {
			t.Errorf("%s: status %d code %q, want 400 bad_request", name, resp.StatusCode, e.Code)
		}
		resp.Body.Close()
	}
	// Trailing whitespace is not data.
	resp, err := http.Post(srv.URL+"/v1/optimize", "application/json", strings.NewReader(instance+" \n\t "))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: status %d, want 200", resp.StatusCode)
	}

	resp = postJSON(t, srv.URL+"/v1/optimize", map[string]any{"comment": "no query"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query: status %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, srv.URL+"/v1/optimize", map[string]any{"comment": 42, "query": fixtureInstance(t).Query})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-string comment: status %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, srv.URL+"/v1/optimize", map[string]any{"unknown": 1, "query": fixtureInstance(t).Query})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, srv.URL+"/v1/optimize", map[string]any{"cost": "not a number", "query": fixtureInstance(t).Query})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mistyped cost: status %d, want 400", resp.StatusCode)
	}

	bad := fixtureInstance(t)
	bad.Query.Transfer[0][0] = 7 // non-zero diagonal
	resp = postJSON(t, srv.URL+"/v1/optimize", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid query: status %d, want 400", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := newTestServer(t)
	good := fixtureInstance(t)
	bad := fixtureInstance(t)
	bad.Query = bad.Query.Clone()
	bad.Query.Transfer[1][0] = -3 // invalid; must fail alone, not the batch

	req := BatchRequest{Instances: mustRawInstances(t, good, bad, good)}
	resp := postJSON(t, srv.URL+"/v1/optimize/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	got := decodeData[batchData](t, resp)
	if len(got.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(got.Results))
	}
	for _, i := range []int{0, 2} {
		r := got.Results[i]
		if r.Error != nil {
			t.Fatalf("instance %d failed: %+v", i, *r.Error)
		}
		if !r.Plan.Equal(model.Plan{0, 1, 2}) || r.Cost != 2.5 {
			t.Errorf("instance %d: plan %v cost %v, want [0 1 2] / 2.5", i, r.Plan, r.Cost)
		}
	}
	if e := got.Results[1].Error; e == nil || e.Code != string(codeUnprocessable) || e.Message == "" {
		t.Errorf("invalid instance reported %+v, want an unprocessable {code,message}", e)
	}
}

// batchData is the /v1/optimize/batch payload: per instance, a solved
// document or a {code,message} error.
type batchData struct {
	Results []struct {
		OptimizeResponse
		Error *v1ErrorBody `json:"error"`
	} `json:"results"`
}

func TestBatchRejectsMalformedInstance(t *testing.T) {
	srv := newTestServer(t)
	for name, body := range map[string]string{
		"truncated instance": `{"instances":[{"query":{"services":`,
		"trailing data":      `{"instances":[]} trailing`,
	} {
		resp, err := http.Post(srv.URL+"/v1/optimize/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	inst := fixtureInstance(t)
	postJSON(t, srv.URL+"/v1/optimize", inst)
	postJSON(t, srv.URL+"/v1/optimize", inst)

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	got := decodeData[StatsResponse](t, resp)
	if got.Hits != 1 || got.Misses != 1 || got.Searches != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 search", got.Stats)
	}
	if got.Entries != 1 {
		t.Errorf("entries = %d, want 1", got.Entries)
	}
	if got.HitRate != 0.5 {
		t.Errorf("hitRate = %v, want 0.5", got.HitRate)
	}
	if got.Touches != 1 {
		t.Errorf("touches = %d after one warm hit, want 1", got.Touches)
	}
	if got.OptimizeP50Micros <= 0 || got.OptimizeP99Micros < got.OptimizeP50Micros {
		t.Errorf("latency quantiles malformed: p50=%v p99=%v", got.OptimizeP50Micros, got.OptimizeP99Micros)
	}
	// The 3-service fixture's proof takes one node and under a
	// microsecond, so only decodability is asserted here; accumulation is
	// pinned deterministically in the planner's own tests.
	if got.SearchNodes < 0 || got.SearchMicros < 0 {
		t.Errorf("search counters negative: %+v", got.Stats)
	}
	if got.DominanceOccupancy < 0 || got.DominanceOccupancy > 1 {
		t.Errorf("dominanceOccupancy = %v, want in [0, 1]", got.DominanceOccupancy)
	}
}

// TestStatsEndpointFresh is the zero-denominator regression test: scraping
// /v1/stats before the first planner lookup must return decodable JSON
// with a hit rate (and latency quantiles) of exactly 0. A NaN here would
// not surface as a number — Go's encoding/json refuses NaN, so the handler
// would answer with an internal error instead of the stats and the first
// scrape of every fresh deployment would break.
func TestStatsEndpointFresh(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env v1Envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error != nil {
		t.Fatalf("fresh /v1/stats is not a success envelope (NaN smuggled into the encoder?): %v\n%s", err, raw)
	}
	var got StatsResponse
	if err := json.Unmarshal(env.Data, &got); err != nil {
		t.Fatalf("fresh /v1/stats data is not a stats document: %v\n%s", err, raw)
	}
	if got.HitRate != 0 {
		t.Errorf("fresh hitRate = %v, want exactly 0", got.HitRate)
	}
	if got.Hits != 0 || got.Misses != 0 || got.Searches != 0 {
		t.Errorf("fresh counters non-zero: %+v", got.Stats)
	}
	if got.DominancePrunes != 0 || got.DominanceOccupancy != 0 {
		t.Errorf("fresh dominance counters non-zero: %+v", got.Stats)
	}
	if got.Touches != 0 || got.OptimizeP50Micros != 0 || got.OptimizeP90Micros != 0 || got.OptimizeP99Micros != 0 {
		t.Errorf("fresh hot-path counters non-zero: %+v", got.Stats)
	}
}

func TestPprofEndpointBehindFlag(t *testing.T) {
	srv := newTestServer(t) // newTestServer enables pprof
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d, want 200", resp.StatusCode)
	}

	off := httptest.NewServer(NewHandler(planner.New(planner.Config{}), Options{}))
	defer off.Close()
	resp, err = http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("pprof exposed without Pprof option")
	}
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
}

// handlerAllocBudget pins the full warm-hit handler cost in allocations
// per request, measured through ServeHTTP with httptest scaffolding. The
// body lands in a pooled buffer and the memo of decoded documents answers
// it without running encoding/json, so what remains is mostly the httptest
// request and recorder themselves; the response side contributes ~zero
// (pooled buffer, verbatim echo, fragment splice, envelope on the same
// buffer). It measured 22 allocations without admission and 23 with it
// when set (24 and 26 under -race, where sync.Pool drops some buffers);
// the budget is 1.3x the admitted count, batchWarmAllocBudget's
// convention. The Content-Length header added two (its value and its
// header slice): 24 and 25. A decode that runs encoding/json again costs
// ~14 more.
const handlerAllocBudget = 30

// TestQueryMemo pins the byte-exact parse memo: identical query bytes hit
// (skipping the decode) once the memo has admitted them on their second
// sighting, different bytes for the same query miss, and a memo hit still
// resolves through the planner (plan-cache counters tick).
func TestQueryMemo(t *testing.T) {
	srv := newTestServer(t)
	inst := fixtureInstance(t)

	var bufA bytes.Buffer // fixed serialization, sent twice
	if err := json.NewEncoder(&bufA).Encode(inst); err != nil {
		t.Fatal(err)
	}
	bodyA := bufA.Bytes()
	post := func(body []byte) OptimizeResponse {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		return decodeData[OptimizeResponse](t, resp)
	}
	scrape := func() StatsResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return decodeData[StatsResponse](t, resp)
	}

	first := post(bodyA)
	if hits := scrape().QueryMemoHits; hits != 0 {
		t.Fatalf("queryMemoHits = %d after first sight, want 0", hits)
	}
	post(bodyA) // the second sighting admits the body to the memo
	second := post(bodyA)
	if hits := scrape().QueryMemoHits; hits != 1 {
		t.Fatalf("queryMemoHits = %d after byte-identical resubmission, want 1", hits)
	}
	if !second.Cached {
		t.Fatal("memo-hit request bypassed the plan cache")
	}
	if !second.Plan.Equal(first.Plan) || second.Cost != first.Cost {
		t.Fatalf("memo hit diverged: %v/%v vs %v/%v", second.Plan, second.Cost, first.Plan, first.Cost)
	}

	// Same instance, different serialization (indented): memo miss, same
	// answer.
	bodyB, err := json.MarshalIndent(inst, "", "   ")
	if err != nil {
		t.Fatal(err)
	}
	third := post(bodyB)
	if hits := scrape().QueryMemoHits; hits != 1 {
		t.Fatalf("queryMemoHits = %d after different serialization, want still 1", hits)
	}
	if !third.Plan.Equal(first.Plan) || third.Cost != first.Cost {
		t.Fatalf("re-serialized request diverged: %v/%v", third.Plan, third.Cost)
	}
}

// TestQueryMemoDoesNotCacheInvalidQueries: an invalid query is rejected
// on every submission, not accidentally legitimized by the memo.
func TestQueryMemoDoesNotCacheInvalidQueries(t *testing.T) {
	srv := newTestServer(t)
	bad := fixtureInstance(t)
	bad.Query.Transfer[0][0] = 7
	for i := 0; i < 2; i++ {
		resp := postJSON(t, srv.URL+"/v1/optimize", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submission %d: status %d, want 400", i, resp.StatusCode)
		}
	}
}

// TestHandlerWarmHitAllocs pins the warm hit through the admission gate —
// the serving configuration under load — to the same budget: classifying
// the query and taking and releasing a warm ticket must fit in the
// headroom the budget leaves.
func TestHandlerWarmHitAllocs(t *testing.T) {
	ctl := admit.New(admit.Options{MaxConcurrent: 2})
	h := NewHandler(planner.New(planner.Config{}), Options{Admission: ctl})
	body, err := json.Marshal(fixtureInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	do := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code
	}
	// Two warm-ups: the first solves the query, the second admits the
	// body to the memo, so every measured request is a memo hit.
	for range 2 {
		if code := do(); code != http.StatusOK {
			t.Fatalf("warmup status = %d", code)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		if code := do(); code != http.StatusOK {
			t.Fatalf("status = %d mid-measurement", code)
		}
	})
	if allocs > handlerAllocBudget {
		t.Errorf("admitted warm-hit handler allocates %.1f/op, budget %d", allocs, handlerAllocBudget)
	}
	if st := ctl.Stats(); st.Admitted < 300 || st.Inflight != 0 {
		t.Fatalf("admission stats %+v: the measured requests did not pass the gate", st)
	}
}
