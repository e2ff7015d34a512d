package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"serviceordering/internal/exper"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// familyQuery generates one query of a search-bench family as perfbench's
// optimize workloads draw it: gen.Default with the family's structural
// feature.
func familyQuery(tb testing.TB, family string, n int, seed int64) *model.Query {
	tb.Helper()
	p := gen.Default(n, seed)
	switch family {
	case "plain":
	case "sink-source":
		p.WithSource, p.WithSink = true, true
	case "precedence":
		p.PrecedenceEdges = 3
	case "proliferative":
		p.ProliferativeFraction = 0.3
	case "threaded":
		p.MultiThreadFraction = 0.4
	default:
		tb.Fatalf("unknown family %q", family)
	}
	q, err := p.Generate()
	if err != nil {
		tb.Fatalf("%s n=%d seed %d: %v", family, n, seed, err)
	}
	return q
}

// mustMarshal is json.Marshal for test bodies.
func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// floatBits lists every float of q in field order by its bit pattern, so
// a decode that turns -0 into 0 differs where reflect.DeepEqual's ==
// would not see it.
func floatBits(q *model.Query) []uint64 {
	if q == nil {
		return nil
	}
	var out []uint64
	for _, s := range q.Services {
		out = append(out, math.Float64bits(s.Cost), math.Float64bits(s.Selectivity))
	}
	for _, row := range slices.Concat(q.Transfer, [][]float64{q.SourceTransfer, q.SinkTransfer}) {
		for _, v := range row {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// TestOnePassAcceptsCommonBodies proves the one-pass path is the one
// taken, not the encoding/json fallback: it accepts, on its own, every
// body the serving clients send — json.Marshal'ed instances of all five
// perfbench families at n = 2-20, /v1/execute bodies, and an indented
// model.EncodeInstance document carrying a plan and a cost — and decodes
// each exactly as encoding/json does.
func TestOnePassAcceptsCommonBodies(t *testing.T) {
	t.Parallel()
	type body struct {
		name string
		kind docKind
		b    []byte
	}
	var bodies []body
	for _, family := range exper.SearchBenchFamilies {
		for n := 2; n <= 20; n++ {
			for seed := int64(1); seed <= 2; seed++ {
				q := familyQuery(t, family, n, seed*1000+int64(n))
				bodies = append(bodies, body{fmt.Sprintf("%s n=%d seed %d", family, n, seed), instanceDoc, mustMarshal(t, &model.Instance{Query: q})})
			}
		}
	}
	for n := 6; n <= 8; n++ {
		q := familyQuery(t, "plain", n, int64(n))
		bodies = append(bodies,
			body{fmt.Sprintf("execute n=%d", n), executeDoc, mustMarshal(t, struct {
				Query  *model.Query `json:"query"`
				Tuples int          `json:"tuples"`
			}{q, 2048})},
			body{fmt.Sprintf("execute with comment n=%d", n), executeDoc, mustMarshal(t, ExecuteRequest{Comment: "run", Query: q, Tuples: 1 << 20})})
	}
	q := familyQuery(t, "sink-source", 9, 3)
	var indented bytes.Buffer
	if err := model.EncodeInstance(&indented, &model.Instance{Comment: "dqgen -n 9", Query: q, Plan: model.Plan{8, 7, 6, 5, 4, 3, 2, 1, 0}, Cost: 12.5}); err != nil {
		t.Fatal(err)
	}
	bodies = append(bodies, body{"indented instance with plan and cost", instanceDoc, indented.Bytes()})

	for _, tc := range bodies {
		got := decodeOnePass(tc.b, tc.kind)
		if got == nil {
			t.Fatalf("%s: the one-pass decoder refused %s", tc.name, tc.b)
		}
		want, err := decodeDocumentJSON(tc.b, tc.kind)
		if err != nil {
			t.Fatalf("%s: encoding/json: %v", tc.name, err)
		}
		if got.q == nil || got.invalid != nil {
			t.Fatalf("%s: query %v, validity %v", tc.name, got.q, got.invalid)
		}
		checkSameDocument(t, got, want)
	}
}

// firstSightAllocBudget and firstSightByteBudget bound one first-sight
// decode of the gen.Default(12, 42) /v1/optimize body, the one-pass
// decode the memo runs on a miss. It measured 18 allocations and 2312
// bytes when set (2464 bytes under -race; encoding/json's two passes: 114
// and 23032); each budget is 1.3x the measurement, the repository's
// alloc-pin convention.
const (
	firstSightAllocBudget = 23
	firstSightByteBudget  = 3005
)

// TestFirstSightDecodeAllocs pins the one-pass decode's allocations: the
// document, the query, one exactly sized service slice, the names, and the
// transfer matrix in two (its rows share one presized backing array).
func TestFirstSightDecodeAllocs(t *testing.T) {
	q, err := gen.Default(12, 42).Generate()
	if err != nil {
		t.Fatal(err)
	}
	body := mustMarshal(t, &model.Instance{Query: q})
	decode := func() {
		if d, err := decodeDocument(body, instanceDoc); err != nil || d.invalid != nil {
			t.Fatalf("decode: %v / %v", err, d.invalid)
		}
	}
	if decodeOnePass(body, instanceDoc) == nil {
		t.Fatal("the one-pass decoder refused the body")
	}
	allocs := testing.AllocsPerRun(200, decode)

	const runs = 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("first-sight decode: %.1f allocs, %.0f bytes", allocs, bytesPer)
	if allocs > firstSightAllocBudget || bytesPer > firstSightByteBudget {
		t.Errorf("first-sight decode allocates %.1f times and %.0f bytes, budgets %d and %d",
			allocs, bytesPer, firstSightAllocBudget, firstSightByteBudget)
	}
}

// BenchmarkDecodeFirstSight decodes first-sight /v1/optimize bodies drawn
// as perfbench's cold-search workload draws them — a family among the
// five, n in 10-17 (proliferative up to 12) — one body per op.
func BenchmarkDecodeFirstSight(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 64)
	for i := range bodies {
		family := exper.SearchBenchFamilies[rng.Intn(len(exper.SearchBenchFamilies))]
		top := 17
		if family == "proliferative" {
			top = 12
		}
		n := 10 + rng.Intn(top-10+1)
		bodies[i] = mustMarshal(b, &model.Instance{Query: familyQuery(b, family, n, rng.Int63())})
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := decodeDocument(bodies[i%len(bodies)], instanceDoc); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// TestDocumentNeverAliasesBody: a decoded document outlives the pooled
// buffer its body was read into, memo entry or not — a first sighting, the
// second one that admits the body, a body past the memo's bound, one whose
// query is invalid, a batch instance — so scribbling over the caller's
// bytes after the decode must not reach its echoes.
func TestDocumentNeverAliasesBody(t *testing.T) {
	t.Parallel()
	small := fixtureInstance(t)
	small.Comment = "small"
	large := genInstance(t, gen.Default(48, 5))
	large.Comment = "large"
	invalid := fixtureInstance(t)
	invalid.Query.Transfer[0][0] = 7
	for _, inst := range []*model.Instance{small, large, invalid} {
		if body := mustMarshal(t, inst); inst == large && len(body) <= maxMemoQueryBytes {
			t.Fatalf("the large body is %d bytes, within the memo's bound", len(body))
		}
		for _, batch := range []bool{false, true} {
			m := newDocMemo()
			for sighting := 1; sighting <= 2; sighting++ {
				body := mustMarshal(t, inst)
				in := body
				if batch {
					instances, ok := splitBatch([]byte(`{"instances":[` + string(body) + `]}`))
					if !ok || len(instances) != 1 {
						t.Fatalf("%s: the batch split refused or miscounted (%d instances)", inst.Comment, len(instances))
					}
					in = instances[0]
				}
				d, err := m.decode(in, instanceDoc)
				if err != nil {
					t.Fatal(err)
				}
				comment, query := bytes.Clone(d.comment), bytes.Clone(d.query)
				for i := range in {
					in[i] = 'x'
				}
				if !bytes.Equal(d.comment, comment) || !bytes.Equal(d.query, query) {
					t.Fatalf("%q (batch %v, sighting %d): the document's echoes changed with the caller's buffer", comment, batch, sighting)
				}
			}
		}
	}
}

// TestBatchErrorsMatchStreamingDecode: the batch envelope is now read
// whole before it is decoded, yet every refusal reads exactly as when
// encoding/json streamed the body through the size-limited reader —
// including bodies past the limit, whether the bytes before it were
// well-formed, malformed, or one document followed by padding.
func TestBatchErrorsMatchStreamingDecode(t *testing.T) {
	t.Parallel()
	fixture := mustJSON(t, fixtureInstance(t))
	const maxBody = 256
	pad := strings.Repeat(" ", maxBody)
	h := newHandler(planner.New(planner.Config{}), Options{MaxBody: maxBody})
	for name, body := range map[string]string{
		"past the limit":                  `{"instances":[` + fixture + `,` + fixture + `]}`,
		"malformed before the limit":      `{"instances":[x` + pad + `]}`,
		"padding past the limit":          `{"instances":[]}` + pad,
		"malformed instance":              `{"instances":[{"query":{"services":"nope"}}]}`,
		"truncated":                       `{"instances":[{"query":{"services":`,
		"trailing data":                   `{"instances":[]} trailing`,
		"unknown field":                   `{"instances":[],"extra":1}`,
		"instance needing encoding/json":  `{"instances":[{"comment":"é","extra":1}]}`,
		"mistyped instance list":          `{"instances":{}}`,
		"instance not an object":          `{"instances":[[1]]}`,
		"instances past the nesting skip": `{"instances":[` + strings.Repeat("[", 20) + strings.Repeat("]", 20) + `]}`,
	} {
		w := httptest.NewRecorder()
		h.v1OptimizeBatch(w, httptest.NewRequest(http.MethodPost, "/v1/optimize/batch", strings.NewReader(body)))
		var got v1Envelope
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want BatchRequest
		wantErr := decodeJSON(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)), maxBody, &want)
		if wantErr == nil {
			for i, raw := range want.Instances {
				if _, err := decodeDocumentJSON(raw, instanceDoc); err != nil {
					wantErr = fmt.Errorf("decoding request: instance %d: %w", i, err)
					break
				}
			}
		}
		if wantErr == nil {
			t.Fatalf("%s: the reference decode accepts %q", name, body)
		}
		if w.Code != http.StatusBadRequest || got.Error == nil || got.Error.Message != wantErr.Error() {
			t.Fatalf("%s: status %d, error %+v; want 400 with %q", name, w.Code, got.Error, wantErr)
		}
	}
	var tooLarge *http.MaxBytesError
	if _, err := decodeBatch([]byte(`{"instances":[`), &http.MaxBytesError{Limit: maxBody}); !errors.As(err, &tooLarge) ||
		err.Error() != "decoding request: http: request body too large" {
		t.Fatalf("over-limit batch: %v", err)
	}
}

// FuzzBatchDecode holds the batch envelope's one-pass split to the
// encoding/json decode it falls back to: the same accept or reject, the
// same error text, and the same instance bytes.
func FuzzBatchDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeBatch(body, nil)
		var want BatchRequest
		wantErr := decodeStrict(json.NewDecoder(bytes.NewReader(body)), &want)
		if wantErr != nil {
			wantErr = fmt.Errorf("decoding request: %w", wantErr)
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("batch decode says %v, encoding/json says %v", err, wantErr)
		}
		if err == nil && !slices.EqualFunc(got, want.Instances, func(a, b json.RawMessage) bool { return bytes.Equal(a, b) }) {
			t.Fatalf("instances %q, want %q", got, want.Instances)
		}
	})
}
