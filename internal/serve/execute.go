package serve

import (
	"net/http"

	"serviceordering/internal/exec"
	"serviceordering/internal/model"
)

// maxExecuteTuples bounds the synthetic input stream a single POST
// /v1/execute may request. The executor streams in blocks so memory stays
// bounded regardless, but a run's wall time is linear in the tuple count
// and holds an admission ticket throughout.
const maxExecuteTuples = 1 << 20

// ExecuteRequest is the body of POST /v1/execute: an instance document
// (the query, same shape as /v1/optimize) plus how many synthetic input
// tuples to stream through the optimized plan.
type ExecuteRequest struct {
	Comment string       `json:"comment,omitempty"`
	Query   *model.Query `json:"query"`
	Tuples  int64        `json:"tuples"`
}

// ExecuteResponse is the data payload of POST /v1/execute: the plan that
// ran (with the planner provenance /v1/optimize reports) and the
// execution's outcome.
// A Degraded marker means the output is a partial, subset-of-truth result
// — every emitted tuple passed every service, some input was never fully
// processed. Observe reports the adaptive registry's outcome when the
// execution report was fed back (adaptive planners only).
type ExecuteResponse struct {
	Plan      model.Plan `json:"plan"`
	Cost      float64    `json:"cost"`
	Optimal   bool       `json:"optimal"`
	Cached    bool       `json:"cached"`
	Tier      string     `json:"tier"`
	Signature string     `json:"signature"`

	TuplesIn      int64              `json:"tuplesIn"`
	TuplesOut     int64              `json:"tuplesOut"`
	Degraded      *exec.Degraded     `json:"degraded,omitempty"`
	Retries       int64              `json:"retries"`
	Stages        []exec.StageReport `json:"stages"`
	ElapsedMicros int64              `json:"elapsedMicros"`

	// Failover reports a plan-aware failover (a rescued response carries
	// the FULL answer despite a mid-run failure); FailoverStages are the
	// rescue pipeline's per-stage accounts. Hedges tallies hedged
	// attempts, present when any launched.
	Failover       *exec.FailoverReport `json:"failover,omitempty"`
	FailoverStages []exec.StageReport   `json:"failoverStages,omitempty"`
	Hedges         *exec.HedgeReport    `json:"hedges,omitempty"`

	Observed bool `json:"observed"`
}

// v1Execute serves POST /v1/execute: it runs one query end to end —
// optimize (or reuse the cached plan), stream tuples through the plan
// against the configured backend, and feed the execution report into the
// adaptive registry when there is one. A degraded execution is still a
// 200 — the response carries the typed marker; errors are reserved for
// invalid requests, sheds, and canceled callers.
func (h *handler) v1Execute(w http.ResponseWriter, r *http.Request) {
	ex := h.opts.Executor
	if ex == nil {
		h.v1Error(w, codeNotFound, "execution disabled (start the server with -exec-backend)", nil)
		return
	}
	bufp := h.getBuf()
	body, doc, err := h.readSolvable(w, r, bufp, executeDoc)
	h.putBuf(bufp, body)
	if err != nil {
		h.v1Error(w, codeBadRequest, err.Error(), nil)
		return
	}
	q := doc.q

	// Same gate as /v1/optimize: the planning half is the admission-
	// relevant cost and classifies identically; the execution half holds
	// the ticket so a melting backend also sheds load here.
	ticket, _, err := h.admitQuery(r.Context(), q, r.Header.Get("X-Tenant"))
	if err != nil {
		h.v1Fail(w, err)
		return
	}
	defer ticket.Release()

	res, err := h.p.Optimize(r.Context(), q)
	if err != nil {
		h.v1Fail(w, err)
		return
	}
	result, err := ex.Execute(r.Context(), q, res.Plan, exec.Tuples(int(doc.tuples)))
	if err != nil {
		h.v1Fail(w, err)
		return
	}

	resp := &ExecuteResponse{
		Plan:           res.Plan,
		Cost:           res.Cost,
		Optimal:        res.Optimal,
		Cached:         res.Cached,
		Tier:           res.Tier,
		Signature:      res.Signature.String(),
		TuplesIn:       result.TuplesIn,
		TuplesOut:      result.TuplesOut,
		Degraded:       result.Degraded,
		Retries:        result.Retries,
		Stages:         result.Stages,
		ElapsedMicros:  result.Elapsed.Microseconds(),
		Failover:       result.Failover,
		FailoverStages: result.FailoverStages,
	}
	if result.Hedges.Launched > 0 {
		hr := result.Hedges
		resp.Hedges = &hr
	}
	if reg := h.p.Adaptive(); reg != nil {
		if rep := result.Report(); rep != nil {
			if out, oerr := reg.Observe(rep); oerr == nil {
				resp.Observed = true
				h.afterObserve(out)
			}
		}
	}
	h.writeV1Data(w, resp)
}

// HealthzResponse is the GET /v1/healthz data payload. The status code is
// always 200 while the process serves traffic: "degraded" plus reasons is
// the load balancer's cue to deprioritize, not to kill — a node with an
// open breaker or a saturated replan queue is impaired, not dead.
type HealthzResponse struct {
	// Status is "ok" or "degraded".
	Status string `json:"status"`

	// Reasons lists why the node is degraded, empty when ok:
	// "snapshot-restore-failed", "replan-queue-saturated",
	// "hedge-rate-saturated" while the global hedge-rate cap is blocking
	// hedges, one "breaker-open:<service>" per currently open circuit
	// breaker, and one "failover-active:<service>" per service with a
	// residual rescue in flight.
	Reasons []string `json:"reasons,omitempty"`
}

// buildHealthz assembles the /v1/healthz document.
func (h *handler) buildHealthz() HealthzResponse {
	var reasons []string
	if h.opts.SnapshotRestoreFailed {
		reasons = append(reasons, "snapshot-restore-failed")
	}
	if h.replanCh != nil && len(h.replanCh) == cap(h.replanCh) {
		reasons = append(reasons, "replan-queue-saturated")
	}
	if ex := h.opts.Executor; ex != nil {
		st := ex.Stats()
		if st.Hedges.Saturated {
			reasons = append(reasons, "hedge-rate-saturated")
		}
		for _, svc := range st.OpenBreakers() {
			reasons = append(reasons, "breaker-open:"+svc)
		}
		for _, svc := range st.Failovers.Active {
			reasons = append(reasons, "failover-active:"+svc)
		}
	}
	status := "ok"
	if len(reasons) > 0 {
		status = "degraded"
	}
	return HealthzResponse{Status: status, Reasons: reasons}
}
