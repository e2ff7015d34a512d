package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"serviceordering/internal/adapt"
	"serviceordering/internal/calibrate"
	"serviceordering/internal/exec"
	"serviceordering/internal/planner"
)

// The memo of decoded request documents at its edges: the route kind is
// part of every hit, the body limit applies before the memo, the memo
// holds parses rather than answers, and a memo match never stands in for
// validation.

// TestMemoKeepsRoutesApart: a body accepted and memoized on its own route
// is judged afresh on the other — an execute body (it carries tuples) is
// a bad /v1/optimize request, and an optimize body carrying plan and cost
// a bad /v1/execute one, on every submission.
func TestMemoKeepsRoutesApart(t *testing.T) {
	t.Parallel()
	inst := fixtureInstance(t)
	mock := exec.NewMockBackend(7)
	mock.SetQuery(inst.Query)
	srv, _ := newExecServer(t, mock, exec.Options{}, Options{MaxBody: 1 << 20})
	query := mustJSON(t, inst.Query)
	memoHits := func() int64 {
		t.Helper()
		return decodeData[StatsResponse](t, mustGet(t, srv.URL+"/v1/stats")).QueryMemoHits
	}
	for _, tc := range []struct{ body, home, other string }{
		{`{"query":` + query + `,"tuples":10}`, "/v1/execute", "/v1/optimize"},
		{`{"query":` + query + `,"plan":[0,1,2],"cost":2.5}`, "/v1/optimize", "/v1/execute"},
	} {
		// The first sighting leaves only a ghost; the memo admits the body
		// on the next one.
		if resp, got := v1Request(t, srv, "POST", tc.home, tc.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on %s, first sighting: status %d: %s", tc.body, tc.home, resp.StatusCode, got)
		}
		before := memoHits()
		for i := 0; i < 2; i++ {
			if resp, got := v1Request(t, srv, "POST", tc.home, tc.body); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s on %s, submission %d: status %d: %s", tc.body, tc.home, i, resp.StatusCode, got)
			}
		}
		if hits := memoHits() - before; hits != 1 {
			t.Fatalf("%s: the resubmission on %s made %d memo hits, want 1", tc.home, tc.home, hits)
		}
		for i := 0; i < 2; i++ {
			if resp, got := v1Request(t, srv, "POST", tc.other, tc.body); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s body on %s, submission %d: status %d, want 400: %s", tc.home, tc.other, i, resp.StatusCode, got)
			}
		}
		if hits := memoHits() - before; hits != 1 {
			t.Fatalf("%s body on %s hit the memo (%d hits)", tc.home, tc.other, hits-1)
		}
	}
}

// TestMemoRespectsMaxBody: a body past MaxBody gets 400 on every
// submission, on both routes, even with its exact bytes resident in the
// memo — the limit is applied while reading, before any lookup.
func TestMemoRespectsMaxBody(t *testing.T) {
	t.Parallel()
	inst := fixtureInstance(t)
	mock := exec.NewMockBackend(7)
	mock.SetQuery(inst.Query)
	optimizeBody := []byte(mustJSON(t, inst))
	executeBody := []byte(`{"query":` + mustJSON(t, inst.Query) + `,"tuples":10}`)
	maxBody := int64(min(len(optimizeBody), len(executeBody)) - 1)
	h := newHandler(planner.New(planner.Config{}), Options{MaxBody: maxBody, Executor: exec.New(mock, exec.Options{})})
	for _, tc := range []struct {
		route string
		kind  docKind
		body  []byte
		serve http.HandlerFunc
	}{
		{"/v1/optimize", instanceDoc, optimizeBody, h.v1Optimize},
		{"/v1/execute", executeDoc, executeBody, h.v1Execute},
	} {
		// Memoize the body as an earlier, larger limit would have: its
		// second sighting stores its bytes.
		for i := 0; i < 2; i++ {
			if _, err := h.memo.decodeSolvable(tc.body, tc.kind); err != nil {
				t.Fatal(err)
			}
		}
		hits := h.memo.hits.Load()
		for i := 0; i < 2; i++ {
			w := httptest.NewRecorder()
			tc.serve(w, httptest.NewRequest(http.MethodPost, tc.route, bytes.NewReader(tc.body)))
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s: %d-byte body past MaxBody %d, submission %d: status %d, want 400", tc.route, len(tc.body), maxBody, i, w.Code)
			}
		}
		if h.memo.hits.Load() != hits {
			t.Fatalf("%s: an over-limit body was looked up in the memo", tc.route)
		}
	}
}

// TestMemoHitAnswersCurrentGeneration: the memo holds the parse, not the
// answer. After an adaptive generation bump, a byte-identical resubmission
// is a memo hit and is still answered under the new generation: a replan
// whose cost reflects the drifted statistics.
func TestMemoHitAnswersCurrentGeneration(t *testing.T) {
	t.Parallel()
	srv, reg := newAdaptiveServer(t, adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
	body := mustJSON(t, fixtureInstance(t))
	optimize := func() (OptimizeResponse, int64) {
		t.Helper()
		res := decodeData[OptimizeResponse](t, postBody(t, srv.URL+"/v1/optimize", body))
		return res, decodeData[StatsResponse](t, mustGet(t, srv.URL+"/v1/stats")).QueryMemoHits
	}
	first, _ := optimize()
	optimize() // the second sighting admits the body to the memo
	if warm, hits := optimize(); !warm.Cached || hits != 1 {
		t.Fatalf("resubmission cached=%v with %d memo hits, want a cached memo hit", warm.Cached, hits)
	}

	for _, plan := range calibrate.CoveringPlans(3) {
		postJSON(t, srv.URL+"/v1/observe", fixtureReport(t, plan, 3))
	}
	if reg.Generation() == 0 {
		t.Fatal("drifted reports never published a generation")
	}

	replanned, hits := optimize()
	if hits != 2 {
		t.Fatalf("post-drift resubmission: %d memo hits, want 2", hits)
	}
	if replanned.Cached || replanned.Signature == first.Signature {
		t.Fatalf("memo hit answered from the previous generation: cached=%v signature %s", replanned.Cached, replanned.Signature)
	}
	if diff := replanned.Cost - 7.5; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("replanned cost %v, want ~7.5 (3x the fixture optimum)", replanned.Cost)
	}
}

// TestMemoMatchDoesNotProveValidity: Threads -1 and 1 serialize to the
// same canonicalization-memo bytes (both count as one thread), so once the
// Threads 1 query is served, only validation ahead of the planner's memo
// probe keeps the Threads -1 query out. It is rejected on /v1/optimize and
// fails alone inside a batch, where the planner is the one validating.
func TestMemoMatchDoesNotProveValidity(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t)
	valid := fixtureInstance(t)
	valid.Query.Services[0].Threads = 1
	if resp, got := v1Request(t, srv, "POST", "/v1/optimize", mustJSON(t, valid)); resp.StatusCode != http.StatusOK {
		t.Fatalf("Threads 1: status %d: %s", resp.StatusCode, got)
	}
	invalid := fixtureInstance(t)
	invalid.Query.Services[0].Threads = -1
	body := mustJSON(t, invalid)
	for i := 0; i < 2; i++ {
		if resp, got := v1Request(t, srv, "POST", "/v1/optimize", body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("Threads -1, submission %d: status %d, want 400: %s", i, resp.StatusCode, got)
		}
	}
	batch := decodeData[batchData](t, postBody(t, srv.URL+"/v1/optimize/batch", `{"instances":[`+body+`]}`))
	if r := batch.Results[0]; r.Error == nil || r.Cached {
		t.Fatalf("Threads -1 inside a batch answered (cached=%v, plan %v) instead of failing", r.Cached, r.Plan)
	}
}

// firstSightBodies returns count distinct valid bodies, alternating the
// two route kinds, all carrying the fixture query under their own
// comment.
func firstSightBodies(t *testing.T, count int) ([][]byte, []docKind) {
	t.Helper()
	query := mustJSON(t, fixtureInstance(t).Query)
	bodies := make([][]byte, count)
	kinds := make([]docKind, count)
	for i := range bodies {
		if i%2 == 0 {
			bodies[i] = []byte(fmt.Sprintf(`{"comment":"sighting %d","query":%s}`, i, query))
			kinds[i] = instanceDoc
		} else {
			bodies[i] = []byte(fmt.Sprintf(`{"comment":"sighting %d","query":%s,"tuples":%d}`, i, query, i))
			kinds[i] = executeDoc
		}
	}
	return bodies, kinds
}

// TestFirstSightRetainsNoDocument: bodies seen once leave only ghosts —
// after more distinct valid bodies than the memo's capacity, each decoded
// once, every resident entry is the one shared ghost, holding no bytes and
// no query. A body's second sighting admits its full document, and its
// third is a hit on that document.
func TestFirstSightRetainsNoDocument(t *testing.T) {
	t.Parallel()
	bodies, kinds := firstSightBodies(t, DefaultQueryMemoCapacity+512)
	m := newDocMemo()
	for i, body := range bodies {
		if d, err := m.decodeSolvable(body, kinds[i]); err != nil || d == ghost {
			t.Fatalf("body %d: document %p (ghost %p), error %v", i, d, ghost, err)
		}
	}
	if ghost.body != nil || ghost.q != nil || ghost.comment != nil || ghost.query != nil {
		t.Fatalf("the ghost holds a document: %+v", ghost)
	}
	resident := 0
	m.store.Range(func(_ uint64, d *document, _ uint64) bool {
		if d != ghost {
			t.Fatalf("first sightings left a document holding %d body bytes", len(d.body))
		}
		resident++
		return true
	})
	if resident == 0 || resident > DefaultQueryMemoCapacity {
		t.Fatalf("%d resident ghosts, want 1..%d", resident, DefaultQueryMemoCapacity)
	}
	if hits := m.hits.Load(); hits != 0 {
		t.Fatalf("first sightings made %d memo hits", hits)
	}

	last := len(bodies) - 1 // the latest insert is resident
	body, kind := bodies[last], kinds[last]
	second, err := m.decodeSolvable(body, kind)
	if err != nil || m.hits.Load() != 0 {
		t.Fatalf("second sighting: error %v, %d hits, want an admission", err, m.hits.Load())
	}
	admitted := 0
	m.store.Range(func(_ uint64, d *document, _ uint64) bool {
		if d != ghost {
			if d != second || !bytes.Equal(d.body, body) || &d.body[0] == &body[0] {
				t.Fatalf("admitted %p holding %q, want the returned %p holding a copy of %q", d, d.body, second, body)
			}
			admitted++
		}
		return true
	})
	if admitted != 1 {
		t.Fatalf("the second sighting admitted %d documents, want 1", admitted)
	}
	third, err := m.decodeSolvable(body, kind)
	if err != nil || m.hits.Load() != 1 || third != second {
		t.Fatalf("third sighting: error %v, %d hits, document %p; want a hit on %p", err, m.hits.Load(), third, second)
	}
}

// TestDocMemoAdmissionConcurrent races first, second and later sightings
// of a shared set of bodies, both route kinds, on one memo: every
// document returned equals the encoding/json decode, none is the ghost,
// and after the race each body is a hit by its second sequential
// submission. The nightly workflow runs it twenty times under -race.
func TestDocMemoAdmissionConcurrent(t *testing.T) {
	t.Parallel()
	bodies, kinds := firstSightBodies(t, 32)
	want := make([]*document, len(bodies))
	for i, body := range bodies {
		d, err := decodeDocumentJSON(body, kinds[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	m := newDocMemo()
	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				for k := range bodies {
					i := (k*(2*w+1) + r) % len(bodies) // each worker its own order
					got, err := m.decode(bodies[i], kinds[i])
					switch {
					case err != nil:
						t.Errorf("worker %d, body %d: %v", w, i, err)
						return
					case got == ghost:
						t.Errorf("worker %d, body %d: the memo returned its ghost", w, i)
						return
					}
					if diff := documentDiff(got, want[i]); diff != "" {
						t.Errorf("worker %d, body %d: %s", w, i, diff)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, body := range bodies {
		if _, err := m.decode(body, kinds[i]); err != nil {
			t.Fatal(err)
		}
		before := m.hits.Load()
		if _, err := m.decode(body, kinds[i]); err != nil || m.hits.Load() != before+1 {
			t.Fatalf("body %d after the race: error %v, not a hit", i, err)
		}
	}
}

// postBody posts body's exact bytes to url.
func postBody(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// FuzzV1Decode holds the request decode — the memo of decoded documents
// in front of the one-pass decoder — to the encoding/json decode the
// one-pass decoder falls back to. Each input goes to one fresh memo three
// times on each route kind, interleaved, so every round of the memo's
// life is fuzzed: the first sighting (a ghost), the second (admission)
// and the third (a hit):
//   - accept or reject, and the error text, match encoding/json's decode
//     of that kind, so a body accepted on one route is never accepted on
//     the other unless encoding/json accepts it there;
//   - an accepted document's query (reflect.DeepEqual, and every float bit
//     for bit, so -0 is not 0), validity, echoed comment and query bytes
//     and tuple count match that decode's, on every round;
//   - the third submission of a body the memo may hold is a memo hit, and
//     no earlier one is;
//   - trailing data after an accepted body is rejected, memo or not.
func FuzzV1Decode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		m := newDocMemo()
		kinds := []docKind{instanceDoc, executeDoc}
		var wantHits int64
		for round := 0; round < 3; round++ {
			for _, kind := range kinds {
				want, wantErr := decodeDocumentJSON(body, kind)
				got, err := m.decode(body, kind)
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("kind %d round %d: memo says %v, encoding/json says %v", kind, round, err, wantErr)
				}
				if err != nil {
					continue
				}
				checkSameDocument(t, got, want)
				if got == ghost {
					t.Fatalf("kind %d round %d: the memo returned its ghost", kind, round)
				}
				if round == 2 && want.q != nil && want.invalid == nil && len(body) <= maxMemoQueryBytes {
					wantHits++
				}
			}
		}
		if hits := m.hits.Load(); hits != wantHits {
			t.Fatalf("%d memo hits, want %d", hits, wantHits)
		}
		for _, kind := range kinds {
			if _, err := decodeDocumentJSON(body, kind); err != nil {
				continue
			}
			trailed := append(bytes.Clone(body), " {}"...)
			if _, err := m.decode(trailed, kind); err == nil {
				t.Fatalf("kind %d: trailing data accepted", kind)
			}
		}
	})
}

func checkSameDocument(t *testing.T, got, want *document) {
	t.Helper()
	if diff := documentDiff(got, want); diff != "" {
		t.Fatal(diff)
	}
}

// documentDiff describes the first difference between two decoded
// documents, or returns "" when they are the same.
func documentDiff(got, want *document) string {
	switch {
	case got.kind != want.kind:
		return fmt.Sprintf("kind %d, want %d", got.kind, want.kind)
	case !reflect.DeepEqual(got.q, want.q):
		return fmt.Sprintf("query %+v, want %+v", got.q, want.q)
	case !slices.Equal(floatBits(got.q), floatBits(want.q)):
		return fmt.Sprintf("float bits %x, want %x", floatBits(got.q), floatBits(want.q))
	case (got.invalid == nil) != (want.invalid == nil):
		return fmt.Sprintf("validity %v, want %v", got.invalid, want.invalid)
	case !bytes.Equal(got.comment, want.comment) || !bytes.Equal(got.query, want.query):
		return fmt.Sprintf("echo %q/%q, want %q/%q", got.comment, got.query, want.comment, want.query)
	case got.tuples != want.tuples:
		return fmt.Sprintf("tuples %d, want %d", got.tuples, want.tuples)
	}
	return ""
}
