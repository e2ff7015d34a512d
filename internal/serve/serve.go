// Package serve implements the dqserve HTTP layer over the planner
// service: the versioned /v1 route table, request decoding, and the
// response fast path. It lives outside cmd/dqserve so the dqload scenario
// gates and the handler tests can host the exact production handler
// in-process.
//
// The serving hot path is a warm plan-cache hit, and this package keeps it
// allocation-lean end to end: the request's query is captured as raw bytes
// (json.RawMessage) and echoed verbatim into the response instead of being
// re-marshaled; the plan is appended integer by integer (it is the one
// response field that differs per caller — cached plans live in canonical
// index space and are permuted into the caller's numbering); and the
// cost/optimal/signature/tier tail is spliced from the cache entry's
// pre-serialized fragment (planner.Result.ResponseFragment). Responses are
// assembled in pooled append-based buffers, wrapped in the /v1 envelope on
// the same buffer, and written with a single Write.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"serviceordering/internal/adapt"
	"serviceordering/internal/admit"
	"serviceordering/internal/ccache"
	"serviceordering/internal/exec"
	"serviceordering/internal/fleet"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// Options configures a handler.
type Options struct {
	// MaxBody bounds request body size in bytes (0 = 8 MiB).
	MaxBody int64

	// Pprof exposes /debug/pprof endpoints (heap contents and stack
	// traces — production deployments enable it behind their own
	// network policy).
	Pprof bool

	// Admission, when non-nil, gates POST /v1/optimize,
	// /v1/optimize/batch and /v1/execute through the cost-aware admission
	// controller: requests are classified (warm/cold) by probing the
	// planner's resident state, cold work is shed first under overload,
	// and refused requests get 429 with a Retry-After estimate and a
	// typed reason. /v1/observe, /v1/stats and /v1/healthz are never
	// gated — the control plane must stay reachable precisely when the
	// node is melting. Nil disables admission entirely (the
	// pre-overload-survival behavior).
	Admission *admit.Controller

	// StaleServe enables the degraded mode for admission sheds: a cold
	// request that would be refused, but whose structure has a
	// previous-generation plan resident, is answered from that stale plan
	// (response carries "stale":true) and a background replan is
	// enqueued. Requires Admission; ignored without it.
	StaleServe bool

	// Executor, when non-nil, enables POST /v1/execute: optimize (or reuse
	// the cached plan), run the plan through the fault-tolerant streaming
	// executor, and — when the planner is adaptive — feed the execution
	// report into the statistics registry, closing the optimize ->
	// execute -> observe -> replan loop in a single round trip. Nil
	// disables the route (404).
	Executor *exec.Executor

	// SnapshotRestoreFailed records that the warm-boot snapshot restore
	// failed at startup. The server still works (cold caches); /v1/healthz
	// reports degraded so operators notice the cold start.
	SnapshotRestoreFailed bool

	// Fleet, when non-nil, shards the plan-signature space across a peer
	// ring: /v1/optimize requests whose canonical signature another peer
	// owns are forwarded there (unless a fresh replica is resident
	// locally), fresh local searches replicate to the signature's replica
	// set, and published adaptive generations gossip to every peer.
	Fleet *fleet.Peer

	// Backend, when non-nil, exposes POST /v1/call/{service}: the
	// enveloped service-invocation endpoint, so one dqserve process can
	// host both planning and a (mock or real) service backend on the
	// versioned surface.
	Backend exec.Backend
}

// DefaultQueryMemoCapacity bounds the query memo: a byte-exact cache from
// raw query JSON to its parsed, validated model.Query, so byte-identical
// resubmissions — the warm-hit workload — skip reflection-driven JSON
// decoding of the services and transfer matrix, by far the dearest step
// left on the hit path. It matches twice the planner's default plan-cache
// capacity, mirroring the canonicalization memo it sits in front of.
const DefaultQueryMemoCapacity = 2 * planner.DefaultCacheCapacity

// OptimizeResponse is the data payload of POST /v1/optimize: the solved
// instance plus planner provenance. The fast path emits this shape by hand
// (appendSolved); the struct remains the schema of record and the decoding
// target for clients and tests.
type OptimizeResponse struct {
	model.Instance

	// Cost shadows Instance.Cost to drop its omitempty: a legitimately
	// zero-cost optimum must still serialize a "cost" key.
	Cost float64 `json:"cost"`

	// Optimal reports whether the plan carries an optimality proof.
	Optimal bool `json:"optimal"`

	// Cached / Shared report how the request was served (plan cache hit,
	// singleflight piggyback, or a fresh search when both are false).
	Cached bool `json:"cached"`
	Shared bool `json:"shared"`

	// Stale marks a degraded-mode response: the plan and cost are a
	// previous statistics generation's cached answer, served because the
	// cold re-optimize would have been shed under overload. A background
	// replan is catching the entry up. Absent (false) on every
	// fresh-generation response.
	Stale bool `json:"stale,omitempty"`

	// Signature is the query's canonical identity (hex).
	Signature string `json:"signature"`

	// Tier names the planning tier that produced the plan: "exact" for
	// the proof-carrying branch-and-bound core, or "heuristic/<member>"
	// naming the winning portfolio member for instances routed to the
	// heuristic tier (large n, or past the configured threshold).
	Tier string `json:"tier"`

	// NodesExpanded and ElapsedMicros describe the search that produced
	// the plan; both are zero on a cache hit.
	NodesExpanded int64 `json:"nodesExpanded"`
	ElapsedMicros int64 `json:"elapsedMicros"`
}

// BatchRequest is the body of POST /v1/optimize/batch.
type BatchRequest struct {
	Instances []json.RawMessage `json:"instances"`
}

// StatsResponse is the GET /v1/stats data payload.
type StatsResponse struct {
	planner.Stats

	// HitRate is the plan-cache hit fraction in [0, 1].
	HitRate float64 `json:"hitRate"`

	// QueryMemoHits counts requests whose query bytes were matched in the
	// server's query memo, skipping the JSON parse entirely.
	QueryMemoHits int64 `json:"queryMemoHits"`

	// Adaptive carries the drift-loop counters (generation, drift events,
	// observations, live drift, tracked parameters) when the planner runs
	// with an adaptive registry; omitted entirely when the loop is
	// disabled. The embedded planner Stats always carry generation and
	// replans (zero without a registry).
	Adaptive *adapt.Stats `json:"adaptive,omitempty"`

	// Overload carries the admission-control and stale-serve counters
	// when the server runs with an admission controller; omitted when
	// admission is disabled.
	Overload *OverloadStats `json:"overload,omitempty"`

	// Exec carries the streaming executor's counters and per-service
	// circuit-breaker states when POST /v1/execute is enabled; omitted when
	// the server runs without an executor.
	Exec *exec.Stats `json:"exec,omitempty"`

	// Fleet carries the peer runtime's counters (routing, replication,
	// gossip) when the server is a fleet member; omitted on single-node
	// servers.
	Fleet *fleet.Stats `json:"fleet,omitempty"`

	// Uptime is seconds since the server started.
	Uptime float64 `json:"uptimeSeconds"`
}

// OverloadStats is the /v1/stats overload block: every shed is accounted by
// its typed reason, and the stale-serve degraded mode reports how many
// responses went out stale and how the background replan queue is doing.
type OverloadStats struct {
	Admission admit.Stats `json:"admission"`

	// StaleServed counts degraded-mode responses (served with
	// "stale":true instead of being shed).
	StaleServed int64 `json:"staleServed"`

	// BackgroundReplans counts replans completed by the stale-serve
	// worker; ReplanQueueDepth is the backlog right now; ReplanDropped
	// counts replans not enqueued because the bounded queue was full
	// (the entry stays stale-servable, a later shed re-enqueues it).
	BackgroundReplans int64 `json:"backgroundReplans"`
	ReplanQueueDepth  int   `json:"replanQueueDepth"`
	ReplanDropped     int64 `json:"replanDropped"`
}

// ObserveResponse is the data payload of POST /v1/observe: the registry's
// outcome for the ingested execution report, serialized as-is —
// generation (after this report), live drift (0 when it published), and
// whether this observation published a new generation, lazily
// invalidating every plan cached under the previous one.
type ObserveResponse = adapt.Outcome

// optimizeRequest mirrors model.Instance field for field but captures the
// parts the response echoes (comment, query) as raw bytes, so the fast
// path can splice them back verbatim instead of re-marshaling. plan and
// cost are accepted (the interchange format carries them) but ignored —
// the response always holds the freshly computed plan.
type optimizeRequest struct {
	Comment json.RawMessage `json:"comment"`
	Query   json.RawMessage `json:"query"`
	Plan    json.RawMessage `json:"plan"`
	Cost    json.RawMessage `json:"cost"`

	query     *model.Query // parsed Query (nil when the instance has none)
	validated bool         // query came from the memo, already validated
}

// queryMemoEntry is one memoized parse: the exact query bytes (verified
// on lookup — the memo key is a 64-bit hash) and the decoded, validated
// query. The query is shared across requests and must be treated as
// read-only; the planner only ever reads it.
type queryMemoEntry struct {
	raw []byte
	q   *model.Query
}

type handler struct {
	p       *planner.Planner
	opts    Options
	started time.Time

	// fleet is Options.Fleet (nil on single-node servers): consulted by
	// the /v1/optimize routing step, fed fresh-search signatures for
	// replication, and handed published anchors for gossip.
	fleet *fleet.Peer

	// qmemo maps FNV-64(raw query JSON) -> parsed query. Read-lock-free
	// (ccache clock store).
	qmemo     *ccache.Clock[uint64, *queryMemoEntry]
	qmemoHits atomic.Int64

	// bufs holds response-assembly scratch (*[]byte). Buffers that grew
	// beyond maxPooledBuf are dropped rather than pooled, so one giant
	// batch cannot pin its footprint forever.
	bufs sync.Pool

	// Overload survival. admission is Options.Admission (nil = ungated);
	// the replan machinery exists only when stale-serve is on: a bounded
	// channel drained by one worker, deduplicated by signature so a storm
	// of sheds on one drifted entry replans it once.
	admission   *admit.Controller
	staleServed atomic.Int64
	bgReplans   atomic.Int64
	bgDropped   atomic.Int64
	replanCh    chan replanJob
	replanMu    sync.Mutex
	replanSet   map[planner.Signature]struct{}
}

// replanJob is one queued background replan: the query to re-optimize and
// the signature deduplicating it.
type replanJob struct {
	q   *model.Query
	sig planner.Signature
}

const (
	defaultMaxBody = 8 << 20
	maxPooledBuf   = 1 << 20

	// maxMemoQueryBytes bounds the per-entry footprint of the query memo,
	// matching the planner's canonicalization memo bound so the two
	// memos' worst-case resident bytes stay comparable (capacity x 16KiB;
	// larger queries simply re-parse — they are search-dominated anyway).
	// The byte bound is the only admission criterion: with the heuristic
	// tier, queries past core.MaxServices are servable, and compactly
	// encoded ones (sparse transfer matrices) fit well under 16KiB.
	maxMemoQueryBytes = 16 << 10

	// queryMemoShards: power of two, same sharding story as the planner
	// caches.
	queryMemoShards = 64

	// replanQueueDepth bounds the background replan queue behind
	// stale-serve. Replans beyond the bound are dropped — the entry stays
	// stale-servable and a later shed re-enqueues it.
	replanQueueDepth = 64
)

// newHandler builds the state behind the route table: buffers, memo,
// and the admission, stale-serve, execution and fleet wiring opts asks for.
func newHandler(p *planner.Planner, opts Options) *handler {
	if opts.MaxBody <= 0 {
		opts.MaxBody = defaultMaxBody
	}
	h := &handler{p: p, opts: opts, started: time.Now(), admission: opts.Admission, fleet: opts.Fleet}
	h.bufs.New = func() any { b := make([]byte, 0, 4096); return &b }
	h.qmemo = ccache.NewClock[uint64, *queryMemoEntry](DefaultQueryMemoCapacity, queryMemoShards,
		func(k uint64) int { return int(k & (queryMemoShards - 1)) })
	if ex := opts.Executor; ex != nil {
		// Failover residual queries route through the shared planner: they
		// hit the plan cache like any request and are priced against the
		// adaptive overlay, so a rescue's suffix ordering already reflects
		// fitted reliability.
		ex.SetResidualPlanner(func(ctx context.Context, sub *model.Query) (model.Plan, error) {
			res, err := p.Optimize(ctx, sub)
			if err != nil {
				return nil, err
			}
			return res.Plan, nil
		})
	}
	if h.admission != nil && opts.StaleServe {
		h.replanCh = make(chan replanJob, replanQueueDepth)
		h.replanSet = make(map[planner.Signature]struct{}, replanQueueDepth)
		go h.replanWorker()
	}
	// Registered last: a running peer may forward a request the moment the
	// handler is visible to it.
	if h.fleet != nil {
		h.fleet.SetLocalHandler(h.serveForwarded)
	}
	return h
}

// NewHandler builds the dqserve route table around one shared planner.
func NewHandler(p *planner.Planner, opts Options) http.Handler {
	h := newHandler(p, opts)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", h.v1Optimize)
	mux.HandleFunc("POST /v1/optimize/batch", h.v1OptimizeBatch)
	mux.HandleFunc("POST /v1/observe", h.v1Observe)
	mux.HandleFunc("POST /v1/execute", h.v1Execute)
	mux.HandleFunc("GET /v1/stats", h.v1Stats)
	mux.HandleFunc("GET /v1/healthz", h.v1Healthz)
	mux.HandleFunc("POST /v1/call/{service}", h.v1Call)
	// Catch-all: an unknown /v1 path gets the envelope, not the mux's
	// plain-text 404.
	mux.HandleFunc("/v1/", h.v1NotFound)
	if opts.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// enqueueReplan schedules a background re-optimize for a stale-served
// signature, deduplicating in-flight replans and dropping (not blocking)
// when the bounded queue is full.
func (h *handler) enqueueReplan(q *model.Query, sig planner.Signature) {
	h.replanMu.Lock()
	if _, dup := h.replanSet[sig]; dup {
		h.replanMu.Unlock()
		return
	}
	select {
	case h.replanCh <- replanJob{q: q, sig: sig}:
		h.replanSet[sig] = struct{}{}
	default:
		h.bgDropped.Add(1)
	}
	h.replanMu.Unlock()
}

// replanWorker drains the stale-serve replan queue. One worker is
// deliberate: replans are per-drifted-signature (deduplicated), each one
// is a full search, and the node is by definition overloaded when they
// are enqueued — a replan fleet would compete with admitted traffic for
// the CPUs the admission controller is rationing.
func (h *handler) replanWorker() {
	for job := range h.replanCh {
		// Background work carries no client deadline; the planner's own
		// configured budgets still apply.
		_, err := h.p.Optimize(context.Background(), job.q)
		h.replanMu.Lock()
		delete(h.replanSet, job.sig)
		h.replanMu.Unlock()
		if err == nil {
			h.bgReplans.Add(1)
		}
	}
}

// afterObserve runs the fleet side effect of an ingested report: a
// published generation carries a new anchor snapshot, and every peer must
// replan off it — broadcast before the response is written, so a client
// that saw "published":true can rely on the fleet having been told.
func (h *handler) afterObserve(out adapt.Outcome) {
	if out.Published && h.fleet != nil {
		// Best-effort: an unreachable peer misses this gossip round but
		// catches up on the next publish (or a replicated entry's header
		// generation mismatch keeps it safely forwarding meanwhile).
		_ = h.fleet.BroadcastAnchor()
	}
}

// buildStats assembles the /v1/stats document.
func (h *handler) buildStats() StatsResponse {
	st := h.p.Stats()
	resp := StatsResponse{
		Stats:         st,
		HitRate:       st.HitRate(),
		QueryMemoHits: h.qmemoHits.Load(),
		Uptime:        time.Since(h.started).Seconds(),
	}
	if reg := h.p.Adaptive(); reg != nil {
		s := reg.Stats()
		resp.Adaptive = &s
	}
	if h.admission != nil {
		resp.Overload = &OverloadStats{
			Admission:         h.admission.Stats(),
			StaleServed:       h.staleServed.Load(),
			BackgroundReplans: h.bgReplans.Load(),
			ReplanQueueDepth:  len(h.replanCh),
			ReplanDropped:     h.bgDropped.Load(),
		}
	}
	if h.opts.Executor != nil {
		es := h.opts.Executor.Stats()
		resp.Exec = &es
	}
	if h.fleet != nil {
		fs := h.fleet.Stats()
		resp.Fleet = &fs
	}
	return resp
}

func (h *handler) getBuf() *[]byte { return h.bufs.Get().(*[]byte) }

func (h *handler) putBuf(p *[]byte, b []byte) {
	if cap(b) > maxPooledBuf {
		return
	}
	*p = b
	h.bufs.Put(p)
}

// errTrailingData rejects a request body that continues past its one JSON
// document.
var errTrailingData = errors.New("unexpected data after the request document")

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

// decodeJSON strictly decodes the request body into v.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBody int64, v any) error {
	if err := decodeStrict(json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)), v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// decodeOptimizeRequest reads and validates one instance document,
// capturing comment and query as raw bytes for verbatim echo. Malformed
// JSON, trailing data and an invalid query are all request errors (400).
func (h *handler) decodeOptimizeRequest(w http.ResponseWriter, r *http.Request, req *optimizeRequest) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, h.opts.MaxBody))
	if err := decodeStrict(dec, req); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if err := h.finishInstanceDecode(req); err != nil {
		return err
	}
	return h.finishOptimizeDecode(req)
}

// decodeOptimizeBytes is decodeOptimizeRequest over a body already read
// into memory — the fleet paths keep the bytes to relay them.
func (h *handler) decodeOptimizeBytes(body []byte, req *optimizeRequest) error {
	if err := h.decodeInstanceBytes(body, req); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return h.finishOptimizeDecode(req)
}

// decodeInstanceBytes decodes one instance from its raw bytes with the
// same strictness as the streamed path. Semantic validation of the query
// is deliberately left to the caller: a batch leaves it to the planner so
// an invalid instance fails alone, not the batch.
func (h *handler) decodeInstanceBytes(raw []byte, req *optimizeRequest) error {
	if err := decodeStrict(json.NewDecoder(bytes.NewReader(raw)), req); err != nil {
		return err
	}
	return h.finishInstanceDecode(req)
}

// finishOptimizeDecode applies the single-instance requirements on top of
// finishInstanceDecode: a query must be present and (unless the memo
// already proved it) valid.
func (h *handler) finishOptimizeDecode(req *optimizeRequest) error {
	if req.query == nil {
		return errors.New("instance has no query")
	}
	if req.validated {
		return nil // memo hit: these exact bytes validated before
	}
	return req.query.Validate()
}

// finishInstanceDecode type-checks the raw envelope fields and parses the
// query (without semantic validation on the fresh-parse path). The
// envelope decode captured comment/plan/cost as raw bytes for speed; they
// are still checked against their declared types (model.Instance's), so a
// mistyped field is rejected as if the whole document were decoded.
//
// The query parse itself consults the query memo first: byte-identical
// query JSON deterministically decodes to the same query, so a verified
// byte match (the hash is only a bucket key) reuses the previously
// parsed, previously validated query and skips both the reflection-driven
// decode and re-validation — the "hash" step of the warm hit path's
// hash -> probe -> permute -> copy pipeline.
func (h *handler) finishInstanceDecode(req *optimizeRequest) error {
	if jsonNull(req.Comment) {
		req.Comment = nil
	} else if len(req.Comment) > 0 && req.Comment[0] != '"' {
		return errors.New("decoding request: comment must be a string")
	}
	if len(req.Plan) > 0 && !jsonNull(req.Plan) {
		var p model.Plan
		if err := json.Unmarshal(req.Plan, &p); err != nil {
			return fmt.Errorf("decoding request: %w", err)
		}
	}
	if len(req.Cost) > 0 && !jsonNull(req.Cost) {
		var c float64
		if err := json.Unmarshal(req.Cost, &c); err != nil {
			return fmt.Errorf("decoding request: %w", err)
		}
	}
	if len(req.Query) == 0 || jsonNull(req.Query) {
		return nil // no query: the planner reports it per request
	}

	memoable := len(req.Query) <= maxMemoQueryBytes
	var key uint64
	if memoable {
		key = ccache.FNV64(req.Query)
		if e, ok, _ := h.qmemo.Get(key); ok && bytes.Equal(e.raw, req.Query) {
			h.qmemoHits.Add(1)
			req.query = e.q
			req.validated = true
			return nil
		}
	}

	dec := json.NewDecoder(bytes.NewReader(req.Query))
	dec.DisallowUnknownFields()
	var q model.Query
	if err := dec.Decode(&q); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	req.query = &q
	// Only queries that fully validate are memoized, so a memo hit can
	// skip validation outright; invalid ones re-parse per request (they
	// never reach a search anyway). Size is not a criterion: large-n
	// queries are served by the heuristic tier and their (expensive)
	// plans are exactly the ones worth skipping a re-parse for.
	if memoable && q.Validate() == nil {
		raw := append([]byte(nil), req.Query...)
		h.qmemo.Put(key, &queryMemoEntry{raw: raw, q: &q})
		req.validated = true
	}
	return nil
}

func jsonNull(raw json.RawMessage) bool {
	return len(raw) == 4 && string(raw) == "null"
}

// appendSolved assembles one solved-instance response object. Field set
// and shape match OptimizeResponse; comment and query are the request's
// own bytes, the plan is appended per caller, and the
// cost/optimal/signature tail comes pre-serialized from the planner.
func appendSolved(b []byte, req *optimizeRequest, res planner.Result) []byte {
	b = append(b, '{')
	// An explicit empty comment is omitted like an absent one, matching
	// encoding/json (Instance.Comment carries omitempty).
	if len(req.Comment) > 0 && string(req.Comment) != `""` {
		b = append(b, `"comment":`...)
		b = append(b, req.Comment...)
		b = append(b, ',')
	}
	b = append(b, `"query":`...)
	b = append(b, req.Query...)
	b = append(b, `,"plan":[`...)
	for i, s := range res.Plan {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(s), 10)
	}
	b = append(b, `],`...)
	if len(res.ResponseFragment) > 0 {
		b = append(b, res.ResponseFragment...)
	} else {
		// Defensive: every successful planner result carries a fragment
		// today; keep the response well-formed if that ever changes.
		b = append(b, `"cost":`...)
		b = strconv.AppendFloat(b, res.Cost, 'g', -1, 64)
		b = append(b, `,"optimal":`...)
		b = strconv.AppendBool(b, res.Optimal)
		b = append(b, `,"signature":`...)
		b = appendJSONString(b, res.Signature.String())
		b = append(b, `,"tier":`...)
		b = appendJSONString(b, res.Tier)
	}
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, res.Cached)
	b = append(b, `,"shared":`...)
	b = strconv.AppendBool(b, res.Shared)
	if res.Stale {
		// Omitted when false, matching OptimizeResponse's omitempty: the
		// field exists to flag degraded-mode responses, and absence keeps
		// fresh responses byte-identical to the pre-overload encoding.
		b = append(b, `,"stale":true`...)
	}
	b = append(b, `,"nodesExpanded":`...)
	b = strconv.AppendInt(b, res.Stats.NodesExpanded, 10)
	b = append(b, `,"elapsedMicros":`...)
	b = strconv.AppendInt(b, res.Stats.Elapsed.Microseconds(), 10)
	return append(b, '}')
}

// appendJSONString appends s as a JSON string. Plain ASCII without
// escapes — the overwhelmingly common case for comments and error
// messages — is a straight copy; anything else defers to encoding/json
// for exact escaping semantics (including HTML escaping).
func appendJSONString(b []byte, s string) []byte {
	clean := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' || c >= utf8.RuneSelf {
			clean = false
			break
		}
	}
	if clean {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	out, err := json.Marshal(s)
	if err != nil { // unreachable: strings always marshal
		return append(b, `""`...)
	}
	return append(b, out...)
}
