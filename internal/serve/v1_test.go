package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/admit"
	"serviceordering/internal/core"
	"serviceordering/internal/exec"
	"serviceordering/internal/fleet"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// v1ErrorBody is the decoded error half of the envelope.
type v1ErrorBody struct {
	Code              string `json:"code"`
	Message           string `json:"message"`
	Reason            string `json:"reason"`
	RetryAfterSeconds int64  `json:"retryAfterSeconds"`
}

// v1Envelope decodes any /v1 response.
type v1Envelope struct {
	Data  json.RawMessage `json:"data"`
	Error *v1ErrorBody    `json:"error"`
}

// v1Volatile masks the fields whose values depend on the clock, so golden
// files byte-compare across runs. Everything else — plans, costs,
// signatures, counters, error codes and messages — is deterministic and
// compared exactly.
var v1Volatile = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`"elapsedMicros":\d+`), `"elapsedMicros":0`},
	{regexp.MustCompile(`"uptimeSeconds":[0-9.eE+-]+`), `"uptimeSeconds":0`},
	{regexp.MustCompile(`"retryAfterSeconds":\d+`), `"retryAfterSeconds":1`},
	{regexp.MustCompile(`retry after [0-9][^"]*`), `retry after ?`},
	{regexp.MustCompile(`"busyProcessingNanos":\d+`), `"busyProcessingNanos":0`},
	{regexp.MustCompile(`"(warmServiceEwmaMicros|coldServiceEwmaMicros)":[0-9.eE+-]+`), `"$1":0`},
}

func maskVolatile(b []byte) []byte {
	for _, m := range v1Volatile {
		b = m.re.ReplaceAll(b, []byte(m.repl))
	}
	return b
}

// checkGolden byte-compares the masked body against
// testdata/v1/<name>.golden. Run with UPDATE_GOLDENS=1 to regenerate —
// the api-compat CI check runs these tests, so an envelope change without
// a matching goldens update fails the build.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	masked := maskVolatile(append([]byte(nil), body...))
	path := filepath.Join("testdata", "v1", name+".golden")
	if os.Getenv("UPDATE_GOLDENS") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, masked, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with UPDATE_GOLDENS=1 to create): %v", path, err)
	}
	if !bytes.Equal(masked, want) {
		t.Fatalf("envelope diverged from golden %s\n got: %s\nwant: %s", path, masked, want)
	}
}

// v1Request drives one request against srv and returns the response and
// its full body.
func v1Request(t *testing.T, srv *httptest.Server, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestV1Golden pins every /v1 endpoint's envelope — success and error
// classes — byte-for-byte (volatile fields masked).
func TestV1Golden(t *testing.T) {
	fixture := mustJSON(t, fixtureInstance(t))

	t.Run("optimize_ok", func(t *testing.T) {
		srv := newTestServer(t)
		resp, body := v1Request(t, srv, "POST", "/v1/optimize", fixture)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkGolden(t, "optimize_ok", body)
		// Warm hit: identical envelope apart from cached:true.
		resp2, body2 := v1Request(t, srv, "POST", "/v1/optimize", fixture)
		if resp2.StatusCode != 200 {
			t.Fatalf("warm status %d", resp2.StatusCode)
		}
		checkGolden(t, "optimize_warm", body2)
	})

	t.Run("optimize_bad_json", func(t *testing.T) {
		srv := newTestServer(t)
		resp, body := v1Request(t, srv, "POST", "/v1/optimize", `{"query":`)
		if resp.StatusCode != 400 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkGolden(t, "optimize_bad_json", body)
	})

	t.Run("optimize_no_query", func(t *testing.T) {
		srv := newTestServer(t)
		resp, body := v1Request(t, srv, "POST", "/v1/optimize", `{}`)
		if resp.StatusCode != 400 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkGolden(t, "optimize_no_query", body)
	})

	t.Run("optimize_overloaded", func(t *testing.T) {
		ctl := admit.New(admit.Options{MaxConcurrent: 1, MaxQueue: 1, MaxWait: 10 * time.Second})
		srv := httptest.NewServer(NewHandler(planner.New(planner.Config{}), Options{Admission: ctl}))
		t.Cleanup(srv.Close)
		// Warm the cache, then pin the slot and fill the queue with a warm
		// waiter so a cold arrival sheds immediately and deterministically.
		if resp, body := v1Request(t, srv, "POST", "/v1/optimize", fixture); resp.StatusCode != 200 {
			t.Fatalf("warmup: %d %s", resp.StatusCode, body)
		}
		ticket, err := ctl.Acquire(context.Background(), admit.Warm, "")
		if err != nil {
			t.Fatal(err)
		}
		waiterDone := make(chan struct{})
		go func() {
			defer close(waiterDone)
			resp, _ := v1Request(t, srv, "POST", "/v1/optimize", fixture)
			resp.Body.Close()
		}()
		deadline := time.Now().Add(5 * time.Second)
		for ctl.Stats().Queued == 0 {
			if time.Now().After(deadline) {
				t.Fatal("warm waiter never queued")
			}
			time.Sleep(time.Millisecond)
		}
		resp, body := v1Request(t, srv, "POST", "/v1/optimize", mustJSON(t, genInstance(t, gen.Default(5, 2))))
		if resp.StatusCode != 429 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Fatalf("Retry-After %q", resp.Header.Get("Retry-After"))
		}
		checkGolden(t, "optimize_overloaded", body)
		ticket.Release()
		<-waiterDone
	})

	t.Run("batch_ok", func(t *testing.T) {
		srv := newTestServer(t)
		body := fmt.Sprintf(`{"instances":[%s,null,%s]}`, fixture, mustJSON(t, genInstance(t, gen.Default(4, 9))))
		resp, got := v1Request(t, srv, "POST", "/v1/optimize/batch", body)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		checkGolden(t, "batch_ok", got)
	})

	t.Run("batch_bad_instance", func(t *testing.T) {
		srv := newTestServer(t)
		resp, got := v1Request(t, srv, "POST", "/v1/optimize/batch", `{"instances":[{"query":{"services":"nope"}}]}`)
		if resp.StatusCode != 400 {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		checkGolden(t, "batch_bad_instance", got)
	})

	t.Run("observe_disabled", func(t *testing.T) {
		srv := newTestServer(t)
		resp, body := v1Request(t, srv, "POST", "/v1/observe", `{"services":[]}`)
		if resp.StatusCode != 404 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkGolden(t, "observe_disabled", body)
	})

	t.Run("observe_ok", func(t *testing.T) {
		reg := adapt.MustNew(adapt.Config{})
		p := planner.New(planner.Config{Adaptive: reg})
		srv := httptest.NewServer(NewHandler(p, Options{}))
		t.Cleanup(srv.Close)
		rep := `{"services":[{"name":"a","tuplesIn":1000,"tuplesOut":500,"busyProcessing":2000}]}`
		resp, body := v1Request(t, srv, "POST", "/v1/observe", rep)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkGolden(t, "observe_ok", body)
	})

	t.Run("execute_disabled", func(t *testing.T) {
		srv := newTestServer(t)
		resp, body := v1Request(t, srv, "POST", "/v1/execute", fixture)
		if resp.StatusCode != 404 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkGolden(t, "execute_disabled", body)
	})

	t.Run("execute_ok", func(t *testing.T) {
		inst := fixtureInstance(t)
		backend := exec.NewMockBackend(7)
		backend.SetQuery(inst.Query)
		ex := exec.New(backend, exec.Options{})
		srv := httptest.NewServer(NewHandler(planner.New(planner.Config{}), Options{Executor: ex}))
		t.Cleanup(srv.Close)
		body := fmt.Sprintf(`{"query":%s,"tuples":100}`, mustJSON(t, inst.Query))
		resp, got := v1Request(t, srv, "POST", "/v1/execute", body)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		checkGolden(t, "execute_ok", got)
	})

	t.Run("execute_bad_tuples", func(t *testing.T) {
		backend := exec.NewMockBackend(7)
		ex := exec.New(backend, exec.Options{})
		srv := httptest.NewServer(NewHandler(planner.New(planner.Config{}), Options{Executor: ex}))
		t.Cleanup(srv.Close)
		resp, got := v1Request(t, srv, "POST", "/v1/execute", fmt.Sprintf(`{"query":%s,"tuples":-1}`, mustJSON(t, fixtureInstance(t).Query)))
		if resp.StatusCode != 400 {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		checkGolden(t, "execute_bad_tuples", got)
	})

	t.Run("stats_ok", func(t *testing.T) {
		srv := newTestServer(t)
		resp, body := v1Request(t, srv, "GET", "/v1/stats", "")
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkGolden(t, "stats_ok", body)
	})

	t.Run("healthz_ok", func(t *testing.T) {
		srv := newTestServer(t)
		resp, body := v1Request(t, srv, "GET", "/v1/healthz", "")
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkGolden(t, "healthz_ok", body)
	})

	t.Run("call_disabled", func(t *testing.T) {
		srv := newTestServer(t)
		resp, body := v1Request(t, srv, "POST", "/v1/call/a", `{"tuples":[1,2,3]}`)
		if resp.StatusCode != 404 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkGolden(t, "call_disabled", body)
	})

	t.Run("call_ok", func(t *testing.T) {
		inst := fixtureInstance(t)
		backend := exec.NewMockBackend(7)
		backend.SetQuery(inst.Query)
		srv := httptest.NewServer(NewHandler(planner.New(planner.Config{}), Options{Backend: backend}))
		t.Cleanup(srv.Close)
		resp, body := v1Request(t, srv, "POST", "/v1/call/a", `{"tuples":[1,2,3,4,5,6,7,8]}`)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkGolden(t, "call_ok", body)
	})

	t.Run("call_backend_failed", func(t *testing.T) {
		srv := httptest.NewServer(NewHandler(planner.New(planner.Config{}), Options{Backend: failingBackend{}}))
		t.Cleanup(srv.Close)
		resp, body := v1Request(t, srv, "POST", "/v1/call/a", `{"tuples":[1]}`)
		if resp.StatusCode != 502 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkGolden(t, "call_backend_failed", body)
	})

	t.Run("not_found", func(t *testing.T) {
		srv := newTestServer(t)
		resp, body := v1Request(t, srv, "GET", "/v1/nope", "")
		if resp.StatusCode != 404 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkGolden(t, "not_found", body)
	})
}

// failingBackend errors on every call — the backend_failed class.
type failingBackend struct{}

func (failingBackend) Call(context.Context, string, []exec.Tuple) (exec.CallResult, error) {
	return exec.CallResult{}, errors.New("backend down")
}

// TestErrorTable enumerates the one error-mapping table: every typed error
// class, its code, and its status — the single source every path
// consults.
func TestErrorTable(t *testing.T) {
	t.Parallel()
	want := map[apiCode]int{
		codeBadRequest:    400,
		codeNotFound:      404,
		codeTimeout:       408,
		codeUnprocessable: 422,
		codeOverloaded:    429,
		codeBackendFailed: 502,
		codeInternal:      500,
	}
	if len(codeStatus) != len(want) {
		t.Fatalf("codeStatus has %d entries, want %d — update this enumeration with the table", len(codeStatus), len(want))
	}
	for code, status := range want {
		if got := codeStatus[code]; got != status {
			t.Errorf("codeStatus[%s] = %d, want %d", code, got, status)
		}
	}

	cases := []struct {
		name   string
		err    error
		code   apiCode
		reason admit.Reason // sheds only
		retry  int64        // sheds only: Retry-After seconds, rounded up
	}{
		{"shed", &admit.ShedError{Reason: admit.ReasonColdShed, RetryAfter: 1500 * time.Millisecond}, codeOverloaded, admit.ReasonColdShed, 2},
		{"wrapped_shed", fmt.Errorf("gate: %w", &admit.ShedError{Reason: admit.ReasonQueueFull, RetryAfter: time.Second}), codeOverloaded, admit.ReasonQueueFull, 1},
		{"canceled", context.Canceled, codeTimeout, "", 0},
		{"deadline", context.DeadlineExceeded, codeTimeout, "", 0},
		{"wrapped_deadline", fmt.Errorf("solve: %w", context.DeadlineExceeded), codeTimeout, "", 0},
		{"generic", errors.New("whatever"), codeUnprocessable, "", 0},
	}
	for _, tc := range cases {
		code, shed := classifyError(tc.err)
		if code != tc.code {
			t.Errorf("%s: classified %s, want %s", tc.name, code, tc.code)
		}
		if (shed != nil) != (tc.reason != "") || (shed != nil && shed.Reason != tc.reason) {
			t.Errorf("%s: shed %+v, want reason %q", tc.name, shed, tc.reason)
		}
		if got := retryAfterSeconds(shed); got != tc.retry {
			t.Errorf("%s: retryAfter %d, want %d (ceil rounding)", tc.name, got, tc.retry)
		}
	}
}

// TestRemovedRoutes404: the unversioned aliases are gone. Each answers
// 404 and reaches nothing behind the mux — the planner sees no lookup.
func TestRemovedRoutes404(t *testing.T) {
	p := planner.New(planner.Config{})
	srv := httptest.NewServer(NewHandler(p, Options{}))
	t.Cleanup(srv.Close)
	fixture := mustJSON(t, fixtureInstance(t))
	if resp, body := v1Request(t, srv, "POST", "/v1/optimize", fixture); resp.StatusCode != 200 {
		t.Fatalf("warmup: %d %s", resp.StatusCode, body)
	}
	before := p.Stats()
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/optimize", fixture},
		{"POST", "/optimize/batch", `{"instances":[` + fixture + `]}`},
		{"POST", "/observe", `{"services":[]}`},
		{"POST", "/execute", `{"query":` + mustJSON(t, fixtureInstance(t).Query) + `,"tuples":1}`},
		{"GET", "/stats", ""},
		{"GET", "/healthz", ""},
	} {
		resp, _ := v1Request(t, srv, tc.method, tc.path, tc.body)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
	if after := p.Stats(); !reflect.DeepEqual(after, before) {
		t.Fatalf("planner stats moved across removed routes:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestV1WarmHitAllocs pins the /v1/optimize warm path to the handler
// allocation budget: the envelope is appended around the solved document
// on the same pooled buffer, so it costs zero extra allocations.
func TestV1WarmHitAllocs(t *testing.T) {
	h := NewHandler(planner.New(planner.Config{}), Options{})
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
		t.Errorf("v1 warm-hit handler allocates %.1f/op, budget %d", allocs, handlerAllocBudget)
	}
}

// TestV1ResponsesCarryContentLength: every /v1 response states its
// length, so a body past net/http's 2048-byte buffer goes out whole, not
// chunked — cold and warm 12-service answers, the stats document, and an
// error.
func TestV1ResponsesCarryContentLength(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t)
	body := mustJSON(t, genInstance(t, gen.Default(12, 1)))
	for _, tc := range []struct{ name, method, path, body string }{
		{"cold optimize", "POST", "/v1/optimize", body},
		{"warm optimize", "POST", "/v1/optimize", body},
		{"stats", "GET", "/v1/stats", ""},
		{"bad request", "POST", "/v1/optimize", "{nope"},
	} {
		resp, got := v1Request(t, srv, tc.method, tc.path, tc.body)
		if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				tc.name, resp.ContentLength, resp.TransferEncoding, len(got))
		}
		if tc.path == "/v1/optimize" && tc.body == body && len(got) <= 2048 {
			t.Fatalf("%s: the answer is %d bytes, within net/http's 2048-byte buffer", tc.name, len(got))
		}
	}
}

// batchWarmAllocBudget bounds one warm 32-instance /v1/optimize/batch
// request. It measured 96 allocations per request when set, the envelope
// split in one pass and every instance a hit in the memo of decoded
// documents (a 1-instance batch 29, a 4-instance batch 37; each repeated
// exactly; 120 under -race; 148 while encoding/json decoded the
// envelope). The budget is 1.3x the measurement: the allocs/op regression
// ratio dqload's serving benchmark allowed its warm-batch32 cell, which
// this pin replaces.
const batchWarmAllocBudget = 124

// TestV1BatchWarmAllocs pins the warm batch path: 32 instances cycling
// over 8 cached gen.Default queries (n = 6-9), every one a plan-cache
// hit, so the count covers the batch decode, the per-instance lookups,
// and the response assembly.
func TestV1BatchWarmAllocs(t *testing.T) {
	h := NewHandler(planner.New(planner.Config{}), Options{})
	insts := make([]*model.Instance, 32)
	for k := range insts {
		i := k % 8
		insts[k] = genInstance(t, gen.Default(6+i%4, int64(i+1)))
	}
	body, err := json.Marshal(BatchRequest{Instances: mustRawInstances(t, insts...)})
	if err != nil {
		t.Fatal(err)
	}
	do := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/optimize/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	// Two warm-ups: the first solves the 8 queries, and by the end of the
	// second every instance body has been seen twice and admitted to the
	// memo, so every measured instance is a memo hit.
	for range 2 {
		if w := do(); w.Code != http.StatusOK {
			t.Fatalf("warmup status = %d", w.Code)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if w := do(); w.Code != http.StatusOK {
			t.Fatalf("status = %d mid-measurement", w.Code)
		}
	})
	if allocs > batchWarmAllocBudget {
		t.Errorf("warm 32-instance batch allocates %.1f/request, budget %d", allocs, batchWarmAllocBudget)
	}
	got := decodeData[batchData](t, do().Result())
	if len(got.Results) != len(insts) {
		t.Fatalf("results = %d, want %d", len(got.Results), len(insts))
	}
	for k, r := range got.Results {
		if r.Error != nil || !r.Cached {
			t.Fatalf("instance %d not a warm hit: cached %v, error %+v", k, r.Cached, r.Error)
		}
	}
}

// TestV1ConcurrentAnswersMatchOracle drives the handler from 8 goroutines
// at once, mixing single /v1/optimize requests with 4-instance
// /v1/optimize/batch requests over 24 gen.Default queries (n = 6-9), so
// first-sight searches, singleflight piggybacks and warm hits interleave.
// Every answer is held to an independent core.Optimize solve: proven
// optimal, exactly the oracle's cost, a feasible plan that re-evaluates
// to that cost, and (each instance echoing its own comment) batch results
// in input order.
func TestV1ConcurrentAnswersMatchOracle(t *testing.T) {
	const (
		queries = 24
		workers = 8
		rounds  = 12 // per worker, alternating single and batch requests
		batch   = 4
	)
	srv := httptest.NewServer(NewHandler(planner.New(planner.Config{}), Options{}))
	defer srv.Close()

	insts := make([]*model.Instance, queries)
	raws := make([]json.RawMessage, queries)
	optimum := make([]float64, queries)
	for i := range insts {
		insts[i] = genInstance(t, gen.Default(6+i%4, int64(100+i)))
		insts[i].Comment = fmt.Sprintf("q%d", i)
		res, err := core.Optimize(insts[i].Query)
		if err != nil || !res.Optimal {
			t.Fatalf("oracle solve of q%d: optimal %v, %v", i, res.Optimal, err)
		}
		optimum[i] = res.Cost
		raws[i] = mustRawInstances(t, insts[i])[0]
	}
	check := func(i int, got OptimizeResponse) error {
		q := insts[i].Query
		switch {
		case got.Comment != insts[i].Comment:
			return fmt.Errorf("answer for %s echoes %q: results out of input order", insts[i].Comment, got.Comment)
		case !got.Optimal:
			return fmt.Errorf("%s: optimal:false", got.Comment)
		case got.Cost != optimum[i]:
			return fmt.Errorf("%s: cost %v, oracle %v", got.Comment, got.Cost, optimum[i])
		}
		if err := got.Plan.Validate(q); err != nil {
			return fmt.Errorf("%s: infeasible plan %v: %w", got.Comment, got.Plan, err)
		}
		if c := q.Cost(got.Plan); c != got.Cost {
			return fmt.Errorf("%s: plan re-evaluates to %v, response says %v", got.Comment, c, got.Cost)
		}
		return nil
	}
	post := func(path string, body []byte) (json.RawMessage, error) {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var env v1Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			return nil, fmt.Errorf("%s: status %d: %w", path, resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusOK || env.Error != nil {
			return nil, fmt.Errorf("%s: status %d, error %+v", path, resp.StatusCode, env.Error)
		}
		return env.Data, nil
	}

	var firstSight, warm atomic.Int64
	accept := func(i int, got OptimizeResponse) error {
		if err := check(i, got); err != nil {
			return err
		}
		if got.Cached {
			warm.Add(1)
		} else {
			firstSight.Add(1)
		}
		return nil
	}
	single := func(i int) error {
		data, err := post("/v1/optimize", raws[i])
		if err != nil {
			return err
		}
		var got OptimizeResponse
		if err := json.Unmarshal(data, &got); err != nil {
			return err
		}
		return accept(i, got)
	}
	batched := func(idxs []int) error {
		req := BatchRequest{Instances: make([]json.RawMessage, len(idxs))}
		for k, i := range idxs {
			req.Instances[k] = raws[i]
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		data, err := post("/v1/optimize/batch", body)
		if err != nil {
			return err
		}
		var got batchData
		if err := json.Unmarshal(data, &got); err != nil {
			return err
		}
		if len(got.Results) != len(idxs) {
			return fmt.Errorf("%d batch results for %d instances", len(got.Results), len(idxs))
		}
		for k, r := range got.Results {
			if r.Error != nil {
				return fmt.Errorf("batch instance %d failed: %+v", k, *r.Error)
			}
			if err := accept(idxs[k], r.OptimizeResponse); err != nil {
				return err
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				var err error
				if r%2 == 0 {
					err = single(rng.Intn(queries))
				} else {
					idxs := make([]int, batch)
					for k := range idxs {
						idxs[k] = rng.Intn(queries)
					}
					err = batched(idxs)
				}
				if err != nil {
					t.Errorf("worker %d, round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstSight.Load() == 0 || warm.Load() == 0 {
		t.Fatalf("traffic was not mixed: %d first-sight and %d warm answers", firstSight.Load(), warm.Load())
	}
}

// servePeer is one full serve-layer fleet member: the production handler
// over a planner, attached to a fleet peer with a live frame server.
type servePeer struct {
	srv  *httptest.Server
	fp   *fleet.Peer
	pl   *planner.Planner
	addr string
}

// startServeFleet brings up n dqserve handlers joined into one fleet,
// optionally customizing each node's serve options.
func startServeFleet(t *testing.T, n int, optsFor func(i int) Options) []*servePeer {
	t.Helper()
	servers := make([]*fleet.PeerServer, n)
	addrs := make([]string, n)
	for i := range servers {
		ps, err := fleet.ListenPeer("127.0.0.1:0", "serve-fleet")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		servers[i] = ps
		addrs[i] = ps.Addr()
	}
	peers := make([]*servePeer, n)
	for i := range peers {
		pl := planner.New(planner.Config{})
		fp, err := fleet.New(fleet.Options{
			FleetID: "serve-fleet", Self: addrs[i], Peers: addrs,
			Replication: 2, Planner: pl, Server: servers[i],
		})
		if err != nil {
			t.Fatalf("fleet: %v", err)
		}
		o := Options{}
		if optsFor != nil {
			o = optsFor(i)
		}
		o.Fleet = fp
		h := NewHandler(pl, o)
		fp.Run()
		srv := httptest.NewServer(h)
		peers[i] = &servePeer{srv: srv, fp: fp, pl: pl, addr: addrs[i]}
	}
	t.Cleanup(func() {
		for _, sp := range peers {
			sp.srv.Close()
			sp.fp.Close()
		}
	})
	return peers
}

// instanceOwnedBy searches deterministic seeds for an instance whose
// canonical signature the given peer owns.
func instanceOwnedBy(t *testing.T, peers []*servePeer, owner int) *model.Instance {
	t.Helper()
	for seed := int64(1); seed < 256; seed++ {
		inst := genInstance(t, gen.Default(5, seed))
		sig, ok := peers[0].pl.SignatureFor(inst.Query)
		if ok && peers[0].fp.Owner(sig) == peers[owner].addr {
			return inst
		}
	}
	t.Fatal("no instance found for owner")
	return nil
}

// TestV1FleetRoutedServe is the serve-level fleet integration test:
// wrong-owner /v1/optimize requests forward to the owner, the owner's
// fresh search replicates back, and the repeat request is a cross-node
// warm hit served locally.
func TestV1FleetRoutedServe(t *testing.T) {
	peers := startServeFleet(t, 2, nil)
	inst := instanceOwnedBy(t, peers, 1)
	body := mustJSON(t, inst)

	// Wrong-owner request: peer 0 forwards to peer 1.
	resp, got := v1Request(t, peers[0].srv, "POST", "/v1/optimize", body)
	if resp.StatusCode != 200 {
		t.Fatalf("forwarded status %d: %s", resp.StatusCode, got)
	}
	var env v1Envelope
	if err := json.Unmarshal(got, &env); err != nil || env.Error != nil {
		t.Fatalf("forwarded envelope: %v %s", err, got)
	}
	var first OptimizeResponse
	if err := json.Unmarshal(env.Data, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first fleet request reported cached")
	}
	if s := peers[0].fp.Stats(); s.Forwarded != 1 {
		t.Fatalf("peer0 forwarded %d, want 1", s.Forwarded)
	}
	if s := peers[1].fp.Stats(); s.ForwardServed != 1 {
		t.Fatalf("peer1 served %d forwards, want 1", s.ForwardServed)
	}

	// The owner's fresh search queued a replication to peer 0 (2 peers,
	// replication 2). After the flush, the repeat request is answered on
	// peer 0 from the replicated entry — no second hop.
	peers[1].fp.FlushReplication()
	sig, _ := peers[0].pl.SignatureFor(inst.Query)
	if !peers[0].pl.ResidentFresh(sig) {
		t.Fatal("replica entry not resident on peer 0 after flush")
	}
	resp2, got2 := v1Request(t, peers[0].srv, "POST", "/v1/optimize", body)
	if resp2.StatusCode != 200 {
		t.Fatalf("replica-hit status %d", resp2.StatusCode)
	}
	if err := json.Unmarshal(got2, &env); err != nil || env.Error != nil {
		t.Fatalf("replica envelope: %v %s", err, got2)
	}
	var second OptimizeResponse
	if err := json.Unmarshal(env.Data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("replica hit not served from cache")
	}
	if !second.Plan.Equal(first.Plan) || second.Cost != first.Cost || second.Signature != first.Signature {
		t.Fatalf("replica answer diverged: %v/%v vs %v/%v", second.Plan, second.Cost, first.Plan, first.Cost)
	}
	s := peers[0].fp.Stats()
	if s.ReplicaHits != 1 || s.Forwarded != 1 {
		t.Fatalf("peer0 stats %+v, want 1 replica hit and still 1 forward", s)
	}
}

// TestV1FleetRejectsTrailingData: the fleet paths decode as strictly as
// the local one — trailing bytes after the document are a 400 on the
// entry peer (never forwarded) and on a forwarded frame.
func TestV1FleetRejectsTrailingData(t *testing.T) {
	peers := startServeFleet(t, 2, nil)
	body := mustJSON(t, instanceOwnedBy(t, peers, 1))
	for _, trailing := range []string{" garbage", `{"query":null}`} {
		resp, got := v1Request(t, peers[0].srv, "POST", "/v1/optimize", body+trailing)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("trailing %q: status %d: %s", trailing, resp.StatusCode, got)
		}
	}
	if s := peers[0].fp.Stats(); s.Forwarded != 0 {
		t.Fatalf("a rejected body was forwarded: %+v", s)
	}
	h := newHandler(peers[1].pl, Options{})
	status, _, _, resp := h.serveForwarded("/v1/optimize", []byte(body+" garbage"))
	if status != http.StatusBadRequest || !bytes.Contains(resp, []byte(codeBadRequest)) {
		t.Fatalf("forwarded frame with trailing data: status %d: %s", status, resp)
	}
}

// TestForwardedMisfitReplicaSearches: a CRC-valid replica whose plan does
// not fit its signature's queries (a 12-position plan under the signature
// of a 10-service query, which the signature cannot reveal) must not
// answer them. The forwarded request is served 200 from a fresh search.
func TestForwardedMisfitReplicaSearches(t *testing.T) {
	t.Parallel()
	inst := genInstance(t, gen.Default(10, 42))
	owner := planner.New(planner.Config{})
	long, err := owner.Optimize(context.Background(), genInstance(t, gen.Default(12, 42)).Query)
	if err != nil {
		t.Fatal(err)
	}
	doc, ok := owner.ExportEntry(long.Signature)
	if !ok {
		t.Fatal("export refused")
	}
	replica := planner.New(planner.Config{})
	sig, _ := replica.SignatureFor(inst.Query)
	// Re-sign the entry: its signature follows the 18-byte SOP1 header,
	// and the CRC-32C of everything before it trails the document.
	copy(doc[18:], sig[:])
	binary.LittleEndian.PutUint32(doc[len(doc)-4:], crc32.Checksum(doc[:len(doc)-4], crc32.MakeTable(crc32.Castagnoli)))
	if n, _, err := replica.ImportEntry(doc); err != nil || n != 1 {
		t.Fatalf("import = (%d, %v), want the misfit resident", n, err)
	}

	status, _, _, resp := newHandler(replica, Options{}).serveForwarded("/v1/optimize", []byte(mustJSON(t, inst)))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, resp)
	}
	var env struct {
		Data struct {
			Plan   model.Plan `json:"plan"`
			Cached bool       `json:"cached"`
		} `json:"data"`
	}
	if err := json.Unmarshal(resp, &env); err != nil {
		t.Fatal(err)
	}
	if env.Data.Cached || env.Data.Plan.Validate(inst.Query) != nil {
		t.Fatalf("answered plan %v cached=%v, want a valid plan from a fresh search", env.Data.Plan, env.Data.Cached)
	}
}

// TestV1ForwardedShedSingleWrap: a shed on the owning node reaches the
// client through the forwarding node as ONE envelope — the owner's status,
// Retry-After, and error body relayed verbatim, never re-wrapped.
func TestV1ForwardedShedSingleWrap(t *testing.T) {
	ctl := admit.New(admit.Options{MaxConcurrent: 1, MaxQueue: 2, MaxWait: 10 * time.Second})
	peers := startServeFleet(t, 2, func(i int) Options {
		if i == 1 {
			return Options{Admission: ctl}
		}
		return Options{}
	})
	inst := instanceOwnedBy(t, peers, 1)

	// Saturate the owner: hold its only slot and queue one cold waiter so
	// the forwarded cold request sheds immediately.
	ticket, err := ctl.Acquire(context.Background(), admit.Warm, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ticket.Release()
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	defer cancelWaiter()
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		if tk, err := ctl.Acquire(waiterCtx, admit.Cold, ""); err == nil {
			tk.Release()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ctl.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cold waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := v1Request(t, peers[0].srv, "POST", "/v1/optimize", mustJSON(t, inst))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("relayed Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	var env v1Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("relayed body is not one envelope: %v\n%s", err, body)
	}
	if string(env.Data) != "null" || env.Error == nil {
		t.Fatalf("relayed envelope shape: %s", body)
	}
	if env.Error.Code != string(codeOverloaded) {
		t.Fatalf("relayed code %q, want %q", env.Error.Code, codeOverloaded)
	}
	if env.Error.RetryAfterSeconds < 1 {
		t.Fatalf("relayed retryAfterSeconds %d, want >= 1", env.Error.RetryAfterSeconds)
	}
	if !typedReason(env.Error.Reason) {
		t.Fatalf("relayed shed reason %q is not a typed admit reason", env.Error.Reason)
	}
	// Single wrap, by bytes: exactly one data key, one error key, one
	// trailing newline — the owner's envelope, untouched.
	if n := strings.Count(string(body), `"data":`); n != 1 {
		t.Fatalf("%d data keys in relayed body (double wrap?): %s", n, body)
	}
	if n := strings.Count(string(body), `"error":`); n != 1 {
		t.Fatalf("%d error keys in relayed body (double wrap?): %s", n, body)
	}
	if !bytes.HasSuffix(body, []byte("}\n")) {
		t.Fatalf("relayed body not newline-terminated: %q", body)
	}
	if s := peers[1].fp.Stats(); s.ForwardServed != 1 {
		t.Fatalf("owner served %d forwards, want 1", s.ForwardServed)
	}
	cancelWaiter()
	<-waiterDone
}

// TestV1ForwardFallbackServesLocally: when the owner is unreachable the
// forwarding node answers locally — a correct (colder) answer instead of
// an error — and counts the failed forward.
func TestV1ForwardFallbackServesLocally(t *testing.T) {
	peers := startServeFleet(t, 2, nil)
	inst := instanceOwnedBy(t, peers, 1)
	peers[1].fp.Close()
	peers[1].srv.Close()

	resp, body := v1Request(t, peers[0].srv, "POST", "/v1/optimize", mustJSON(t, inst))
	if resp.StatusCode != 200 {
		t.Fatalf("fallback status %d: %s", resp.StatusCode, body)
	}
	var env v1Envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error != nil {
		t.Fatalf("fallback envelope: %v %s", err, body)
	}
	s := peers[0].fp.Stats()
	if s.ForwardFailed != 1 || s.Forwarded != 0 {
		t.Fatalf("fallback stats %+v, want 1 failed forward and 0 successes", s)
	}
}
