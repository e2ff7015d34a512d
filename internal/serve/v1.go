package serve

// The /v1 surface: every endpoint speaks one envelope —
//
//	success: {"data":<payload>,"error":null}
//	failure: {"data":null,"error":{"code":"...","message":"...","reason":"...","retryAfterSeconds":N}}
//
// — newline-terminated compact JSON. reason and retryAfterSeconds appear
// only on admission sheds.
//
// The warm hit path stays zero-extra-alloc: the envelope prefix/suffix are
// appended around appendSolved in one pooled buffer, and the response goes
// out in one Write.
//
// Fleet routing happens here and only here. A /v1/optimize request whose
// canonical signature another peer owns is forwarded (owner's status,
// Retry-After, and envelope relayed verbatim — errors stay single-wrapped
// because the owner already wrote the one true envelope) unless a fresh
// replica is resident locally.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"serviceordering/internal/adapt"
	"serviceordering/internal/admit"
	"serviceordering/internal/exec"
	"serviceordering/internal/fleet"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

func (h *handler) v1NotFound(w http.ResponseWriter, r *http.Request) {
	h.v1Error(w, codeNotFound, "no such endpoint: "+r.URL.Path, nil)
}

// writeV1Data writes {"data":<v>,"error":null} with v marshaled by
// encoding/json — the non-hot-path envelope writer (stats, healthz,
// observe, execute, call).
func (h *handler) writeV1Data(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil { // unreachable: every response type marshals
		h.v1Error(w, codeInternal, err.Error(), nil)
		return
	}
	bufp := h.getBuf()
	b := append((*bufp)[:0], `{"data":`...)
	b = append(b, data...)
	b = append(b, `,"error":null}`...)
	b = append(b, '\n')
	writeResponse(w, http.StatusOK, 0, b)
	h.putBuf(bufp, b)
}

// writeResponse sends one complete response body: the status, the
// Retry-After header (sheds only), the JSON content type, and one Write.
func writeResponse(w http.ResponseWriter, status int, retryAfter int64, body []byte) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfter, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// v1Optimize serves POST /v1/optimize: decode, (fleet-route,) admit,
// solve, envelope.
func (h *handler) v1Optimize(w http.ResponseWriter, r *http.Request) {
	bodyp := h.getBuf()
	body, doc, err := h.readSolvable(w, r, bodyp, instanceDoc)
	defer h.putBuf(bodyp, body)
	if err != nil {
		h.v1Error(w, codeBadRequest, err.Error(), nil)
		return
	}
	if h.fleet != nil {
		if sig, ok := h.p.SignatureFor(doc.q); ok {
			if decision, owner := h.fleet.Route(sig); decision == fleet.Forward {
				// A mis-owned request is relayed to its owner byte for byte.
				status, retryAfter, resp, err := h.fleet.Forward(owner, "/v1/optimize", body)
				if err == nil {
					writeResponse(w, status, retryAfter, resp)
					return
				}
				// Peer death: the owner is unreachable, so serve locally —
				// a correct (if colder) answer beats an error. The failed
				// forward is counted in the fleet stats.
			}
		}
	}

	bufp := h.getBuf()
	b, status, retryAfter, _ := h.solveV1(r.Context(), r.Header.Get("X-Tenant"), doc, (*bufp)[:0])
	writeResponse(w, status, retryAfter, b)
	h.putBuf(bufp, b)
}

// admitQuery is the one admission step of /v1/optimize and /v1/execute:
// classify q against the planner's resident state, then take a ticket of
// the matching class — warm for a fresh resident plan, cold for anything
// that needs a search. A shed caller gets the temperature back to decide
// on stale-serve. Without admission every request is admitted on a nil
// ticket, whose Release is a no-op.
func (h *handler) admitQuery(ctx context.Context, q *model.Query, tenant string) (*admit.Ticket, planner.Temperature, error) {
	if h.admission == nil {
		return nil, planner.TempCold, nil
	}
	// Classification happens after the decode (it needs the query) but
	// before any planning work: a shed request has cost one decode (a memo
	// probe on a resubmission) and two cache probes, nothing more.
	temp := h.p.Classify(q)
	class := admit.Cold
	if temp == planner.TempWarm {
		class = admit.Warm
	}
	ticket, err := h.admission.Acquire(ctx, class, tenant)
	return ticket, temp, err
}

// solveV1 runs admission and planning for one decoded request and appends
// the complete envelope — success or failure — to b. It returns the HTTP
// status, the Retry-After seconds (sheds only), and whether the answer
// was a fresh-generation cache hit (the fleet's cross-node warmth
// signal). Both the HTTP handler above and the forwarded-frame path go
// through here, so the two are the same code path by construction.
func (h *handler) solveV1(ctx context.Context, tenant string, doc *document, b []byte) (out []byte, status int, retryAfter int64, warm bool) {
	ticket, temp, err := h.admitQuery(ctx, doc.q, tenant)
	if err != nil {
		var se *admit.ShedError
		if errors.As(err, &se) && h.opts.StaleServe && temp == planner.TempStale {
			// Degraded mode: a shed-worthy cold request whose structure has
			// a previous generation's plan resident is answered stale
			// instead of refused, and the replan happens off-request.
			if res, ok := h.p.ServeStale(doc.q); ok {
				if res.Stale {
					h.staleServed.Add(1)
					h.enqueueReplan(doc.q, res.Signature)
				}
				return h.appendV1Solved(b, doc, res), http.StatusOK, 0, res.Cached && !res.Stale
			}
		}
		return appendV1Failure(b, err)
	}
	defer ticket.Release()

	res, err := h.p.Optimize(ctx, doc.q)
	if err != nil {
		return appendV1Failure(b, err)
	}
	if h.fleet != nil && !res.Cached && !res.Shared && !res.Stale {
		// A fresh search on this node is new warmth: push it to the
		// signature's replica set (self included or not, the fleet layer
		// sorts it out) so replicas can answer without the forward hop.
		h.fleet.ReplicateAsync(res.Signature)
	}
	return h.appendV1Solved(b, doc, res), http.StatusOK, 0, res.Cached && !res.Stale
}

// appendV1Failure appends err's envelope, classified through the table,
// and returns solveV1's results for it.
func appendV1Failure(b []byte, err error) (out []byte, status int, retryAfter int64, warm bool) {
	code, shed := classifyError(err)
	return appendV1Error(b, code, err.Error(), shed), codeStatus[code], retryAfterSeconds(shed), false
}

// appendV1Solved wraps appendSolved in the success envelope on the same
// buffer — the hot path stays a single pooled append chain.
func (h *handler) appendV1Solved(b []byte, doc *document, res planner.Result) []byte {
	b = append(b, `{"data":`...)
	b = appendSolved(b, doc, res)
	b = append(b, `,"error":null}`...)
	return append(b, '\n')
}

// serveForwarded is the fleet's LocalHandler: it answers a peer-forwarded
// request body exactly as the local /v1 path would, minus the routing
// step (a forwarded request is never re-forwarded — the single-hop loop
// guard). Forwarded work carries no client deadline across the hop; the
// planner's own budgets still bound it.
func (h *handler) serveForwarded(path string, body []byte) (status int, retryAfter int64, warm bool, resp []byte) {
	if path != "/v1/optimize" {
		return http.StatusNotFound, 0, false,
			appendV1Error(nil, codeNotFound, "fleet: path not forwardable: "+path, nil)
	}
	doc, err := h.memo.decodeSolvable(body, instanceDoc)
	if err != nil {
		return http.StatusBadRequest, 0, false, appendV1Error(nil, codeBadRequest, err.Error(), nil)
	}
	// The response escapes into a peer frame, so it gets its own buffer
	// rather than a pooled one.
	b, status, retryAfter, warm := h.solveV1(context.Background(), "", doc, make([]byte, 0, 512))
	return status, retryAfter, warm, b
}

// v1OptimizeBatch serves POST /v1/optimize/batch. Batches always solve
// locally: one batch can span many owners, and fanning a single request
// across the fleet would trade its one-round-trip contract for tail
// latency. Fresh searches inside the batch still replicate.
func (h *handler) v1OptimizeBatch(w http.ResponseWriter, r *http.Request) {
	bodyp := h.getBuf()
	body, readErr := readBody(w, r, h.opts.MaxBody, (*bodyp)[:0])
	defer h.putBuf(bodyp, body)
	instances, err := decodeBatch(body, readErr)
	if err != nil {
		h.v1Error(w, codeBadRequest, err.Error(), nil)
		return
	}
	docs := make([]*document, len(instances))
	qs := make([]*model.Query, len(instances))
	for i, raw := range instances {
		if len(raw) == 0 || string(raw) == "null" {
			continue // nil query rejected by the planner, fails alone
		}
		// A missing or invalid query is left to the planner too; malformed
		// JSON inside an instance fails the whole request, like any
		// malformed request document.
		d, err := h.memo.decode(raw, instanceDoc)
		if err != nil {
			h.v1Error(w, codeBadRequest, fmt.Sprintf("decoding request: instance %d: %v", i, err), nil)
			return
		}
		docs[i], qs[i] = d, d.q
	}

	if h.admission != nil {
		// A batch is cold by construction: it fans searches across the
		// planner's worker pool, so it takes one Cold-class ticket (the
		// concurrency inside the batch is the planner's own bounded pool,
		// not the admission controller's concern).
		ticket, err := h.admission.Acquire(r.Context(), admit.Cold, r.Header.Get("X-Tenant"))
		if err != nil {
			h.v1Fail(w, err)
			return
		}
		defer ticket.Release()
	}

	results := h.p.OptimizeBatch(r.Context(), qs)

	bufp := h.getBuf()
	b := append((*bufp)[:0], `{"data":{"results":[`...)
	for i, br := range results {
		if i > 0 {
			b = append(b, ',')
		}
		if br.Err != nil {
			code, _ := classifyError(br.Err)
			b = append(b, `{"error":{"code":`...)
			b = appendJSONString(b, string(code))
			b = append(b, `,"message":`...)
			b = appendJSONString(b, br.Err.Error())
			b = append(b, `}}`...)
			continue
		}
		if h.fleet != nil && !br.Result.Cached && !br.Result.Shared && !br.Result.Stale {
			h.fleet.ReplicateAsync(br.Result.Signature)
		}
		b = appendSolved(b, docs[i], br.Result)
	}
	b = append(b, `]},"error":null}`...)
	b = append(b, '\n')
	writeResponse(w, http.StatusOK, 0, b)
	h.putBuf(bufp, b)
}

// v1Observe serves POST /v1/observe: it ingests one execution report into
// the adaptive statistics registry. This is the feedback half of the
// adaptive replanning loop: execution layers (or dqload's drift
// scenario) POST what their services actually did, the registry folds them
// into its decayed sums, and a significant drift past the threshold
// publishes a new generation — the response says whether this
// report was the one that tipped it, and a published generation gossips to
// the fleet.
func (h *handler) v1Observe(w http.ResponseWriter, r *http.Request) {
	reg := h.p.Adaptive()
	if reg == nil {
		h.v1Error(w, codeNotFound, "adaptive replanning disabled (start the server with -adaptive)", nil)
		return
	}
	var rep adapt.Report
	if err := decodeJSON(w, r, h.opts.MaxBody, &rep); err != nil {
		h.v1Error(w, codeBadRequest, err.Error(), nil)
		return
	}
	out, err := reg.Observe(&rep)
	if err != nil {
		h.v1Error(w, codeBadRequest, err.Error(), nil)
		return
	}
	h.afterObserve(out)
	h.writeV1Data(w, out)
}

func (h *handler) v1Stats(w http.ResponseWriter, r *http.Request) {
	h.writeV1Data(w, h.buildStats())
}

func (h *handler) v1Healthz(w http.ResponseWriter, r *http.Request) {
	h.writeV1Data(w, h.buildHealthz())
}

// CallDocument is the /v1/call/{service} payload in both directions: a
// tuple block in, the survivors (plus the backend's own processing-time
// measure) out. It mirrors the exec backend wire document.
type CallDocument struct {
	Tuples           []exec.Tuple `json:"tuples"`
	ProcessingMicros int64        `json:"processingMicros,omitempty"`
}

// v1Call serves POST /v1/call/{service}: one enveloped backend
// invocation, dqserve's versioned twin of exec.BackendHandler.
func (h *handler) v1Call(w http.ResponseWriter, r *http.Request) {
	b := h.opts.Backend
	if b == nil {
		h.v1Error(w, codeNotFound, "service calls disabled (no backend configured)", nil)
		return
	}
	service, err := url.PathUnescape(r.PathValue("service"))
	if err != nil || service == "" {
		h.v1Error(w, codeBadRequest, "bad service name", nil)
		return
	}
	var doc CallDocument
	if err := decodeJSON(w, r, h.opts.MaxBody, &doc); err != nil {
		h.v1Error(w, codeBadRequest, err.Error(), nil)
		return
	}
	res, err := b.Call(r.Context(), service, doc.Tuples)
	if err != nil {
		h.v1Error(w, codeBackendFailed, err.Error(), nil)
		return
	}
	out := CallDocument{Tuples: res.Tuples, ProcessingMicros: res.Processing.Microseconds()}
	if out.Tuples == nil {
		out.Tuples = []exec.Tuple{} // an empty block is data, not null
	}
	h.writeV1Data(w, out)
}
