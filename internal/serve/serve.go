// Package serve implements the dqserve HTTP layer over the planner
// service: the versioned /v1 route table, request decoding, and the
// response fast path. It lives outside cmd/dqserve so the dqload scenario
// gates and the handler tests can host the exact production handler
// in-process.
//
// The serving hot path is a warm plan-cache hit, and this package keeps it
// allocation-lean end to end. The body is read into a pooled buffer and
// looked up whole in a memo of decoded request documents (decode.go): a
// byte-identical resubmission — the warm-hit workload — gets its parsed,
// validated query without decoding at all, and a first-sight body is
// decoded in one pass without reflection. The request's
// comment and query are echoed verbatim into the response instead of
// being re-marshaled; the plan is appended integer by integer (it is the
// one response field that differs per caller — cached plans live in
// canonical index space and are permuted into the caller's numbering); and
// the cost/optimal/signature/tier tail is spliced from the cache entry's
// pre-serialized fragment (planner.Result.ResponseFragment). Responses are
// assembled in pooled append-based buffers, wrapped in the /v1 envelope on
// the same buffer, and written with a single Write.
package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"serviceordering/internal/adapt"
	"serviceordering/internal/admit"
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
	// heuristic tier (an exact search that spent its node budget, n past
	// 64, or n past the configured threshold).
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

	// QueryMemoHits counts instance documents (a /v1/optimize or
	// /v1/execute body, or one /v1/optimize/batch instance) whose exact
	// bytes were found in the server's memo of decoded documents, skipping
	// the JSON parse entirely.
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

type handler struct {
	p       *planner.Planner
	opts    Options
	started time.Time

	// fleet is Options.Fleet (nil on single-node servers): consulted by
	// the /v1/optimize routing step, fed fresh-search signatures for
	// replication, and handed published anchors for gossip.
	fleet *fleet.Peer

	// memo holds decoded request documents by their whole body (see
	// decode.go).
	memo *docMemo

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
	h := &handler{p: p, opts: opts, started: time.Now(), memo: newDocMemo(), admission: opts.Admission, fleet: opts.Fleet}
	h.bufs.New = func() any { b := make([]byte, 0, 4096); return &b }
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
		QueryMemoHits: h.memo.hits.Load(),
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

// appendSolved assembles one solved-instance response object. Field set
// and shape match OptimizeResponse; comment and query are the request's
// own bytes, the plan is appended per caller, and the
// cost/optimal/signature/tier tail is the planner's pre-serialized
// ResponseFragment, which every successful planner result carries.
func appendSolved(b []byte, doc *document, res planner.Result) []byte {
	b = append(b, '{')
	// An explicit empty comment is omitted like an absent one, matching
	// encoding/json (Instance.Comment carries omitempty).
	if len(doc.comment) > 0 && string(doc.comment) != `""` {
		b = append(b, `"comment":`...)
		b = append(b, doc.comment...)
		b = append(b, ',')
	}
	b = append(b, `"query":`...)
	b = append(b, doc.query...)
	b = append(b, `,"plan":[`...)
	for i, s := range res.Plan {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(s), 10)
	}
	b = append(b, `],`...)
	b = append(b, res.ResponseFragment...)
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
