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
//   - a body is admitted on its second sighting (cache on second hit):
//     the first strict decode that succeeds and validates stores only a
//     key-only ghost, one shared sentinel holding no bytes and no query,
//     and the next decode of that key stores the full document in its
//     place. Most first-sight bodies are never seen again, so they leave
//     nothing but a key behind. A ghost never answers a request;
//   - a full entry is written only after the full strict decode succeeded
//     and its query validated. Byte-identical bodies decode identically,
//     so a hit is exactly what a fresh decode would return, without
//     decoding.
//
// A body the memo does not hold is decoded from the document's own copy of
// it, in one pass and without reflection (decodeOnePass): one scanner walks
// the body once, builds the query directly and slices the comment and
// query echoes out of that copy. A memo entry keeps the copy as its key,
// and no document ever aliases the caller's pooled buffer.
//
// The one-pass decoder never returns an error. It accepts only the
// documents' common form, byte for byte, and refuses everything else:
// escapes, non-ASCII or case-folded keys, duplicate keys, null, a
// non-integer int, a precedence pair that is not exactly two ints, an
// out-of-range number, trailing data. A refused body goes to the two-pass
// encoding/json decode (decodeDocumentJSON), which decides it and words
// every error, so the error texts are encoding/json's by construction.
// The batch envelope is split the same way (splitBatch), with
// encoding/json for the bodies it refuses.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"unicode/utf8"

	"serviceordering/internal/ccache"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// DefaultQueryMemoCapacity bounds the memo of decoded request documents,
// ghosts and full documents together. It matches twice the planner's
// default plan-cache capacity, mirroring the canonicalization memo it sits
// in front of.
const DefaultQueryMemoCapacity = 2 * planner.DefaultCacheCapacity

const (
	// maxMemoQueryBytes bounds the body a memo entry may hold, and with it
	// the memo's worst-case resident bytes (capacity x 16KiB; larger
	// bodies simply re-parse — they are search-dominated anyway). It
	// equals the planner's bound on the serializations its
	// canonicalization memo keys, though that memo keeps only a digest
	// of each. The byte bound is the only admission criterion: with the
	// heuristic tier, queries past core.MaxServices are servable, and
	// compactly encoded ones (sparse transfer matrices) fit well under
	// 16KiB.
	maxMemoQueryBytes = 16 << 10

	// docMemoShards: power of two, same sharding story as the planner
	// caches.
	docMemoShards = 64

	// maxSkipDepth bounds the nesting splitBatch skips over inside one
	// instance, deeper than any instance document nests; a deeper body
	// goes to encoding/json.
	maxSkipDepth = 16
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

// ghost is the memo's key-only entry: it marks a key whose body was
// decoded once, and holds nothing.
var ghost = &document{}

// decode returns body's document of the given kind: the memo entry holding
// these exact bytes as that kind, else a fresh strict decode. A fresh
// decode within the per-entry bound whose query validated leaves a ghost
// under a key that holds nothing, and is memoized under a key already
// resident (its ghost, or a colliding body's entry).
func (m *docMemo) decode(body []byte, kind docKind) (*document, error) {
	memoable := len(body) <= maxMemoQueryBytes
	var key uint64
	var resident bool
	if memoable {
		key = maphash.Bytes(m.seed, body) ^ uint64(kind)
		d, ok, _ := m.store.Get(key)
		if ok && d != ghost && d.kind == kind && bytes.Equal(d.body, body) {
			m.hits.Add(1)
			return d, nil
		}
		resident = ok
	}
	// The echoes point into the document's own copy of the body, which a
	// memo entry keeps as its key.
	own := bytes.Clone(body)
	d, err := decodeDocument(own, kind)
	if err != nil || !memoable || d.q == nil || d.invalid != nil {
		return d, err
	}
	if !resident {
		m.store.Put(key, ghost)
		return d, nil
	}
	d.body = own
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

// decodeDocument is the strict decode behind the memo: the one-pass
// decoder, and encoding/json for the bodies it refuses. The echoes of the
// document it returns are sub-slices of body.
func decodeDocument(body []byte, kind docKind) (*document, error) {
	if d := decodeOnePass(body, kind); d != nil {
		return d, nil
	}
	return decodeDocumentJSON(body, kind)
}

// decodeDocumentJSON is the two-pass encoding/json decode that decides
// every body the one-pass decoder refuses. Unknown fields, trailing data,
// a mistyped field and (execute) a tuple count out of range are request
// errors. A query that parses but does not validate is not: its verdict
// is kept in invalid, so a batch can leave it to the planner and let the
// instance fail alone.
func decodeDocumentJSON(body []byte, kind docKind) (*document, error) {
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
	d.comment = within(body, d.comment)
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
	d.query = within(body, d.query)
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

// decodeOnePass decodes body as a document of the given kind in one pass,
// or returns nil for a body it does not recognise (see the file comment).
// The echoes are sub-slices of body.
func decodeOnePass(body []byte, kind docKind) *document {
	s := scanner{b: body}
	d := &document{kind: kind}
	var seen uint8
	s.want('{')
	for first := true; s.more('}', first); first = false {
		switch key := string(s.key()); {
		case key == "comment":
			s.once(&seen, 1)
			at := s.start()
			s.str()
			d.comment = body[at:s.i:s.i]
		case key == "query":
			s.once(&seen, 2)
			at := s.start()
			d.q = s.query()
			d.query = body[at:s.i:s.i]
		case key == "plan" && kind == instanceDoc:
			s.once(&seen, 4)
			s.want('[')
			for first := true; s.more(']', first); first = false {
				s.integer(strconv.IntSize)
			}
		case key == "cost" && kind == instanceDoc:
			s.once(&seen, 8)
			s.float()
		case key == "tuples" && kind == executeDoc:
			s.once(&seen, 16)
			if d.tuples = s.integer(64); d.tuples < 0 || d.tuples > maxExecuteTuples {
				s.fail()
			}
		default:
			s.fail()
		}
	}
	if s.bad || s.start() != len(body) {
		return nil
	}
	if d.q != nil {
		d.invalid = d.q.Validate()
	}
	return d
}

// scanner is the one-pass decoders' cursor over one body. Each method
// reads one value or token, skipping the whitespace before it. On any
// byte it does not recognise it fails: it marks the scan bad and moves the
// cursor to the end of the body, so every later read fails too, every
// loop ends, and the caller refuses the body.
type scanner struct {
	b   []byte
	i   int
	bad bool // the scan failed
}

func (s *scanner) fail() { s.i, s.bad = len(s.b), true }

// start skips whitespace and returns the cursor: where the next value
// starts, or len(b) at the end.
func (s *scanner) start() int {
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return s.i
		}
	}
	return s.i
}

// peek returns the byte the next value starts with, 0 past the end.
func (s *scanner) peek() byte {
	if i := s.start(); i < len(s.b) {
		return s.b[i]
	}
	return 0
}

func (s *scanner) want(c byte) {
	if s.peek() != c {
		s.fail()
		return
	}
	s.i++
}

// more reports whether another member follows in the array or object
// that end closes, consuming the ',' before it, or end itself. first is
// true before the first member.
func (s *scanner) more(end byte, first bool) bool {
	switch c := s.peek(); {
	case c == end:
		s.i++
		return false
	case first && s.i < len(s.b):
		return true
	case !first && c == ',':
		s.i++
		return true
	}
	s.fail()
	return false
}

// key reads an object key and the ':' after it.
func (s *scanner) key() []byte {
	k := s.str()
	s.want(':')
	return k
}

// once fails the scan when the key flagged by bit was already seen in the
// object: encoding/json lets a duplicate overwrite, or merge into, the
// first.
func (s *scanner) once(seen *uint8, bit uint8) {
	if *seen&bit != 0 {
		s.fail()
	}
	*seen |= bit
}

// str reads a string of ASCII without escapes or control characters, the
// bytes encoding/json would decode it to, and returns its contents.
func (s *scanner) str() []byte {
	if s.peek() != '"' {
		s.fail()
		return nil
	}
	for i := s.i + 1; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			v := s.b[s.i+1 : i]
			s.i = i + 1
			return v
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			s.fail()
			return nil
		}
	}
	s.fail()
	return nil
}

// number reads a number in the JSON grammar, which strconv alone would
// widen (a leading '+', hex, '_', Inf), and reports whether it is an
// integer: no fraction and no exponent.
func (s *scanner) number() (text []byte, integer bool) {
	b, i := s.b, s.start()
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		s.fail()
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			s.fail()
			return nil, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			s.fail()
			return nil, false
		}
		i, integer = j, false
	}
	text, s.i = b[s.i:i], i
	return text, integer
}

// digits returns the index past the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float reads a number as encoding/json decodes a float64: with
// strconv.ParseFloat, refusing what it refuses (out of range).
func (s *scanner) float() float64 {
	text, _ := s.number()
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		s.fail()
	}
	return f
}

// integer reads an integer as encoding/json decodes a signed int of the
// given bit size: refusing a fraction, an exponent and overflow.
func (s *scanner) integer(bitSize int) int64 {
	text, integer := s.number()
	n, err := strconv.ParseInt(string(text), 10, bitSize)
	if !integer || err != nil {
		s.fail()
	}
	return n
}

// room caps a presizing hint at the elements the rest of the body can
// hold (each takes at least two bytes), so a crafted body cannot make the
// decoder reserve more than it reads.
func (s *scanner) room(hint int) int {
	return max(0, min(hint, (len(s.b)-s.i)/2))
}

// query reads the query object: model.Query's fields, each at most once.
func (s *scanner) query() *model.Query {
	q := new(model.Query)
	var seen uint8
	s.want('{')
	for first := true; s.more('}', first); first = false {
		// The services usually come first, and size every later field.
		n := len(q.Services)
		switch string(s.key()) {
		case "services":
			s.once(&seen, 1)
			q.Services = s.services()
		case "transfer":
			s.once(&seen, 2)
			q.Transfer = s.matrix(n)
		case "sourceTransfer":
			s.once(&seen, 4)
			q.SourceTransfer = s.floats(make([]float64, 0, s.room(n)))
		case "sinkTransfer":
			s.once(&seen, 8)
			q.SinkTransfer = s.floats(make([]float64, 0, s.room(n)))
		case "precedence":
			s.once(&seen, 16)
			q.Precedence = s.pairs()
		default:
			s.fail()
		}
	}
	return q
}

// services reads the service list into one exactly sized slice.
func (s *scanner) services() []model.Service {
	var scratch [32]model.Service
	list := scratch[:0]
	s.want('[')
	for first := true; s.more(']', first); first = false {
		var svc model.Service
		var seen uint8
		s.want('{')
		for first := true; s.more('}', first); first = false {
			switch string(s.key()) {
			case "name":
				s.once(&seen, 1)
				svc.Name = string(s.str())
			case "cost":
				s.once(&seen, 2)
				svc.Cost = s.float()
			case "selectivity":
				s.once(&seen, 4)
				svc.Selectivity = s.float()
			case "threads":
				s.once(&seen, 8)
				svc.Threads = int(s.integer(strconv.IntSize))
			default:
				s.fail()
			}
		}
		list = append(list, svc)
	}
	return append(make([]model.Service, 0, len(list)), list...)
}

// floats reads an array of numbers, appending them to dst.
func (s *scanner) floats(dst []float64) []float64 {
	s.want('[')
	for first := true; s.more(']', first); first = false {
		dst = append(dst, s.float())
	}
	return dst
}

// matrix reads the transfer matrix of n services (0 when the services
// come later). The rows share one backing array, presized from the first
// row's width: a valid matrix is square.
func (s *scanner) matrix(n int) [][]float64 {
	flat := make([]float64, 0, s.room(n*n))
	rows := make([][]float64, 0, s.room(n))
	s.want('[')
	for first := true; s.more(']', first); first = false {
		at := len(flat)
		flat = s.floats(flat)
		rows = append(rows, flat[at:len(flat):len(flat)])
		if first {
			flat = slices.Grow(flat, s.room(len(flat)*(len(flat)-1)))
		}
	}
	return rows
}

// pairs reads the precedence edges, each exactly two ints: encoding/json
// zero-fills a shorter pair and drops the rest of a longer one.
func (s *scanner) pairs() [][2]int {
	edges := [][2]int{} // non-nil when empty, as encoding/json decodes []
	s.want('[')
	for first := true; s.more(']', first); first = false {
		var e [2]int
		s.want('[')
		e[0] = int(s.integer(strconv.IntSize))
		s.want(',')
		e[1] = int(s.integer(strconv.IntSize))
		s.want(']')
		edges = append(edges, e)
	}
	return edges
}

// skip reads one value of any type, nested at most depth levels deep.
func (s *scanner) skip(depth int) {
	switch c := s.peek(); {
	case (c == '{' || c == '[') && depth == 0:
		s.fail()
	case c == '{':
		s.i++
		for first := true; s.more('}', first); first = false {
			s.key()
			s.skip(depth - 1)
		}
	case c == '[':
		s.i++
		for first := true; s.more(']', first); first = false {
			s.skip(depth - 1)
		}
	case c == '"':
		s.str()
	case c == 't':
		s.literal("true")
	case c == 'f':
		s.literal("false")
	case c == 'n':
		s.literal("null")
	default:
		s.number()
	}
}

// literal reads the keyword lit: true, false or null.
func (s *scanner) literal(lit string) {
	if !bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
		s.fail()
		return
	}
	s.i += len(lit)
}

// splitBatch splits a /v1/optimize/batch body, {"instances":[...]}, into
// its instances, sub-slices of body, in one pass. Like decodeOnePass it
// refuses rather than errs: ok is false for anything but that exact
// envelope around well-formed instances whose strings are escape-free
// ASCII.
func splitBatch(body []byte) (instances []json.RawMessage, ok bool) {
	s := scanner{b: body}
	s.want('{')
	if string(s.key()) != "instances" {
		return nil, false
	}
	s.want('[')
	for first := true; s.more(']', first); first = false {
		at := s.start()
		s.skip(maxSkipDepth)
		instances = append(instances, body[at:s.i:s.i])
	}
	s.want('}')
	return instances, !s.bad && s.start() == len(body)
}

// decodeBatch returns the instance documents of a /v1/optimize/batch
// body: split in one pass when splitBatch recognises it, else decoded by
// encoding/json, which words every error. readErr is the error that ended
// reading the body, nil when it was read whole: encoding/json then decodes
// the bytes read followed by that error, exactly as when it streamed the
// body through the limited reader.
func decodeBatch(body []byte, readErr error) ([]json.RawMessage, error) {
	if readErr == nil {
		if instances, ok := splitBatch(body); ok {
			return instances, nil
		}
	}
	var rd io.Reader = bytes.NewReader(body)
	if readErr != nil {
		rd = io.MultiReader(rd, errReader{readErr})
	}
	var batch BatchRequest
	if err := decodeStrict(json.NewDecoder(rd), &batch); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return batch.Instances, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

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
// carry no instance document (observe, call).
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
