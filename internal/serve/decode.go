package serve

// Request decoding. Every route that carries an instance — /v1/optimize
// (local, fleet-routed and peer-forwarded), each /v1/optimize/batch
// instance, and /v1/execute — decodes it through one memo of decoded
// request documents, keyed on the whole body:
//
//   - the key is a per-process seeded maphash of the body combined with the
//     document's kind, so crafted collisions cannot flood one bucket;
//   - a hit needs the same kind and the same bytes (bytes.Equal), so a body
//     accepted on one route is never accepted on the other through the
//     memo;
//   - an entry is written only after the full strict decode succeeded and
//     its query validated. Byte-identical bodies decode identically, so a
//     hit is exactly what a fresh decode would return, without either of
//     encoding/json's passes over the body.
//
// An entry holds the body once; its echoed comment and query are
// sub-slices of that copy.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sync/atomic"

	"serviceordering/internal/ccache"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// DefaultQueryMemoCapacity bounds the memo of decoded request documents.
// It matches twice the planner's default plan-cache capacity, mirroring
// the canonicalization memo it sits in front of.
const DefaultQueryMemoCapacity = 2 * planner.DefaultCacheCapacity

const (
	// maxMemoQueryBytes bounds the body a memo entry may hold, matching
	// the planner's canonicalization memo bound so the two memos'
	// worst-case resident bytes stay comparable (capacity x 16KiB; larger
	// bodies simply re-parse — they are search-dominated anyway). The byte
	// bound is the only admission criterion: with the heuristic tier,
	// queries past core.MaxServices are servable, and compactly encoded
	// ones (sparse transfer matrices) fit well under 16KiB.
	maxMemoQueryBytes = 16 << 10

	// docMemoShards: power of two, same sharding story as the planner
	// caches.
	docMemoShards = 64
)

// docKind names the request document a body is decoded as. It is part of
// the memo key and of the hit check.
type docKind uint64

const (
	// instanceDoc is the /v1/optimize document, model.Instance's shape.
	instanceDoc docKind = iota
	// executeDoc is the /v1/execute document: ExecuteRequest's shape.
	executeDoc
)

// document is one decoded request document. Documents handed out by the
// memo are shared across requests and read-only; the planner only ever
// reads the query.
type document struct {
	kind docKind

	// body is a memo entry's copy of the request body: the verified key,
	// and the bytes comment and query point into. Nil outside the memo.
	body []byte

	// comment and query are the document's raw bytes for verbatim echo
	// (nil when absent or null).
	comment, query []byte

	q       *model.Query // parsed query; nil when the document has none
	invalid error        // q.Validate()'s verdict; nil in every memo entry
	tuples  int64        // executeDoc only
}

// optimizeRequest is the instance document's wire shape: model.Instance
// field for field, captured raw — comment and query for verbatim echo,
// plan and cost (the interchange format carries them) to type-check and
// drop, since the response always holds the freshly computed plan.
type optimizeRequest struct {
	Comment json.RawMessage `json:"comment"`
	Query   json.RawMessage `json:"query"`
	Plan    json.RawMessage `json:"plan"`
	Cost    json.RawMessage `json:"cost"`
}

// executeRequest is ExecuteRequest's wire shape, comment and query
// captured raw.
type executeRequest struct {
	Comment json.RawMessage `json:"comment"`
	Query   json.RawMessage `json:"query"`
	Tuples  int64           `json:"tuples"`
}

// errNoQuery rejects a single-document request without a query.
var errNoQuery = errors.New("instance has no query")

// errTrailingData rejects a request body that continues past its one JSON
// document.
var errTrailingData = errors.New("unexpected data after the request document")

// docMemo is the memo of decoded request documents (see the file comment).
type docMemo struct {
	seed  maphash.Seed
	store *ccache.Clock[uint64, *document]
	hits  atomic.Int64
}

func newDocMemo() *docMemo {
	return &docMemo{
		seed: maphash.MakeSeed(),
		store: ccache.NewClock[uint64, *document](DefaultQueryMemoCapacity, docMemoShards,
			func(k uint64) int { return int(k & (docMemoShards - 1)) }),
	}
}

// decode returns body's document of the given kind: the memo entry holding
// these exact bytes as that kind, else a fresh strict decode — memoized
// when the body is within the per-entry bound and its query validated.
func (m *docMemo) decode(body []byte, kind docKind) (*document, error) {
	memoable := len(body) <= maxMemoQueryBytes
	var key uint64
	if memoable {
		key = maphash.Bytes(m.seed, body) ^ uint64(kind)
		if d, ok, _ := m.store.Get(key); ok && d.kind == kind && bytes.Equal(d.body, body) {
			m.hits.Add(1)
			return d, nil
		}
	}
	d, err := decodeDocument(body, kind)
	if err != nil || !memoable || d.q == nil || d.invalid != nil {
		return d, err
	}
	// The entry keeps one copy of the body, and the echoes move into it
	// from the decoder's copies.
	d.body = bytes.Clone(body)
	d.comment, d.query = within(d.body, d.comment), within(d.body, d.query)
	m.store.Put(key, d)
	return d, nil
}

// decodeSolvable is decode for the single-document routes, which also need
// the document to carry a valid query.
func (m *docMemo) decodeSolvable(body []byte, kind docKind) (*document, error) {
	d, err := m.decode(body, kind)
	switch {
	case err != nil:
		return nil, err
	case d.q == nil:
		return nil, errNoQuery
	case d.invalid != nil:
		return nil, d.invalid
	}
	return d, nil
}

// decodeDocument is the strict decode behind the memo. Unknown fields,
// trailing data, a mistyped field and (execute) a tuple count out of range
// are request errors. A query that parses but does not validate is not:
// its verdict is kept in invalid, so a batch can leave it to the planner
// and let the instance fail alone.
func decodeDocument(body []byte, kind docKind) (*document, error) {
	d := &document{kind: kind}
	var plan, cost json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(body))
	if kind == executeDoc {
		var w executeRequest
		if err := decodeStrict(dec, &w); err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
		if w.Tuples < 0 || w.Tuples > maxExecuteTuples {
			return nil, fmt.Errorf("tuples must be in [0, %d]", maxExecuteTuples)
		}
		d.comment, d.query, d.tuples = w.Comment, w.Query, w.Tuples
	} else {
		var w optimizeRequest
		if err := decodeStrict(dec, &w); err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
		d.comment, d.query, plan, cost = w.Comment, w.Query, w.Plan, w.Cost
	}

	// The raw fields are still held to their declared types
	// (model.Instance's), so a mistyped field is rejected as if the whole
	// document were decoded.
	if jsonNull(d.comment) {
		d.comment = nil
	} else if len(d.comment) > 0 && d.comment[0] != '"' {
		return nil, errors.New("decoding request: comment must be a string")
	}
	if len(plan) > 0 && !jsonNull(plan) {
		var p model.Plan
		if err := json.Unmarshal(plan, &p); err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
	}
	if len(cost) > 0 && !jsonNull(cost) {
		var c float64
		if err := json.Unmarshal(cost, &c); err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
	}
	if len(d.query) == 0 || jsonNull(d.query) {
		d.query = nil
		return d, nil
	}
	qdec := json.NewDecoder(bytes.NewReader(d.query))
	qdec.DisallowUnknownFields()
	var q model.Query
	if err := qdec.Decode(&q); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	d.q, d.invalid = &q, q.Validate()
	return d, nil
}

// within returns the span of body holding exactly v's bytes. v is a raw
// value decoded out of body, so it occurs there verbatim; the fallback to
// v itself only guards the invariant.
func within(body, v []byte) []byte {
	if v == nil {
		return nil
	}
	i := bytes.Index(body, v)
	if i < 0 {
		return v
	}
	return body[i : i+len(v) : i+len(v)]
}

func jsonNull(raw []byte) bool {
	return len(raw) == 4 && string(raw) == "null"
}

// decodeStrict decodes exactly one JSON document into v: unknown fields
// are errors, and so is anything but whitespace after the document.
func decodeStrict(dec *json.Decoder, v any) error {
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// decodeJSON strictly decodes the request body into v: the routes that
// carry no instance document (the batch envelope, observe, call).
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBody int64, v any) error {
	if err := decodeStrict(json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)), v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// readBody appends the request body to dst (the caller's pooled scratch),
// refusing a body past maxBody bytes.
func readBody(w http.ResponseWriter, r *http.Request, maxBody int64, dst []byte) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, maxBody)
	for {
		n, err := rd.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)] // let append pick the growth
		}
	}
}

// readSolvable reads the request body into the pooled buffer at bufp and
// decodes it as one solvable document of the given kind. The body comes
// back for relaying and for the caller to return to the pool; the
// document never aliases it.
func (h *handler) readSolvable(w http.ResponseWriter, r *http.Request, bufp *[]byte, kind docKind) ([]byte, *document, error) {
	body, err := readBody(w, r, h.opts.MaxBody, (*bufp)[:0])
	if err != nil {
		return body, nil, fmt.Errorf("reading request: %w", err)
	}
	d, err := h.memo.decodeSolvable(body, kind)
	return body, d, err
}
