package main

// The traced run. It replays a workload's request list in this process,
// sending every request, priming included, to three identically built
// stacks in turn:
//
//   - untraced: serve.NewHandler behind a plain loopback server, for the
//     round-trip baseline the tracing overhead and the reconciliation are
//     measured against;
//   - traced over HTTP: the same stack with an http.Handler wrapper timing
//     ServeHTTP, so a request's round trip splits into the stdlib's HTTP
//     time (both ends) and the handler's;
//   - traced direct: right after the round trips, the benchmark calls the
//     handler's own sequence on a third stack — planner.Classify,
//     admit.Controller.Acquire, planner.Optimize, exec.Executor.Execute and
//     adapt.Registry.Observe — with a span around each call. On a query the
//     caches cannot answer it first times planner.SignatureFor and the
//     search the planner routes the query to (core.OptimizeWithOptions,
//     core.OptimizeParallel or htier.Plan). Execute runs over a backend
//     wrapper that times every mock backend call.
//
// A layer's self time is its span minus the deeper spans of the same
// request; serve's is the handler span minus the direct spans. Counts are
// deltas of each module's Stats() over the replay. A layer the window
// never reaches is timed by direct calls on the workload's queries
// (probeUnreached).

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/admit"
	"serviceordering/internal/core"
	"serviceordering/internal/exec"
	"serviceordering/internal/htier"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
	"serviceordering/internal/serve"
)

// reconcileTolerance bounds how far the layer self times, each summed
// over the replay and floored at zero, may miss the untraced round trip
// of the same requests, either way, as a share of it.
const reconcileTolerance = 0.10

// stack is one in-process copy of dqserve's serving stack, configured as
// the workload's dqserve flags configure the server process.
type stack struct {
	p       *planner.Planner
	adm     *admit.Controller
	reg     *adapt.Registry // nil unless the workload executes
	ex      *exec.Executor  // nil unless the workload executes
	backend exec.Backend
	calls   *callTimer // non-nil on the direct stack of an executing workload
}

// newStack mirrors cmd/dqserve for -admit-max-concurrent 2 and, when the
// workload executes, -adaptive -exec-backend mock; every other setting is
// the default.
func newStack(w workload, timeCalls bool) (*stack, error) {
	s := &stack{adm: admit.New(admit.Options{MaxConcurrent: 2})}
	if w.path == "/v1/execute" {
		reg, err := adapt.New(adapt.Config{
			Alpha:           adapt.DefaultAlpha,
			MinObservations: adapt.DefaultMinObservations,
			DriftDelta:      adapt.DefaultDriftDelta,
		})
		if err != nil {
			return nil, err
		}
		s.reg = reg
		mb := exec.NewMockBackend(mockSeed)
		mb.DeriveUnknown = true
		s.backend = mb
		if timeCalls {
			s.calls = &callTimer{next: mb}
			s.backend = s.calls
		}
		s.ex = exec.New(s.backend, exec.Options{JitterSeed: mockSeed})
	}
	s.p = planner.New(planner.Config{
		CacheCapacity:     planner.DefaultCacheCapacity,
		ParallelThreshold: planner.DefaultParallelThreshold,
		Adaptive:          s.reg,
	})
	return s, nil
}

// handler is the stack's HTTP handler, as dqserve builds it.
func (s *stack) handler() http.Handler {
	return serve.NewHandler(s.p, serve.Options{
		MaxBody:   8 << 20,
		Admission: s.adm,
		Executor:  s.ex,
		Backend:   s.backend,
	})
}

// callTimer is an exec.Backend that times every call of the backend it
// wraps. The executor calls it from one goroutine per plan stage, so each
// call claims its own slot with an atomic add instead of taking a lock
// the stages would contend on.
type callTimer struct {
	next exec.Backend
	n    atomic.Int64
	durs [maxCallsPerRequest]time.Duration
}

// maxCallsPerRequest bounds the calls one request records: execTuples in
// blocks of exec.DefaultBlockSize, through more stages than any generated
// query has.
const maxCallsPerRequest = 32 * (execTuples/exec.DefaultBlockSize + 1)

func (c *callTimer) Call(ctx context.Context, service string, in []exec.Tuple) (exec.CallResult, error) {
	t0 := time.Now()
	res, err := c.next.Call(ctx, service, in)
	if i := c.n.Add(1) - 1; i < maxCallsPerRequest {
		c.durs[i] = time.Since(t0)
	}
	return res, err
}

// take returns and forgets the call times recorded since the last take.
// The caller must order it after every call it covers: Execute returns
// only once its stages have finished.
func (c *callTimer) take() []time.Duration {
	n := min(c.n.Swap(0), maxCallsPerRequest)
	return append([]time.Duration(nil), c.durs[:n]...)
}

// loopback serves a handler on a loopback port of this process.
type loopback struct {
	srv    *http.Server
	base   string
	client *http.Client
	done   chan error
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
		done:   make(chan error, 1),
	}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

func (lb *loopback) close() {
	lb.client.CloseIdleConnections()
	_ = lb.srv.Close()
	<-lb.done
}

// spanHandler times ServeHTTP for requests to path and hands each span to
// the replay loop, which sends one request at a time.
type spanHandler struct {
	next  http.Handler
	path  string
	spans chan time.Duration
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != h.path {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	h.spans <- time.Since(t0)
}

// tracedPost sends one request through lb and returns its outcome with
// the handler span the wrapper recorded for it.
func tracedPost(ctx context.Context, lb *loopback, sh *spanHandler, body []byte, buf *bytes.Buffer, keep func([]byte) []byte) (outcome, time.Duration) {
	o := post(ctx, lb.client, lb.base+sh.path, body, buf, keep)
	select {
	case d := <-sh.spans:
		return o, d
	case <-time.After(5 * time.Second):
		if o.err == nil {
			o.err = fmt.Errorf("no handler span recorded")
		}
		return o, 0
	}
}

// Search kinds of a traced request.
const (
	searchNone = iota
	searchExact
	searchHeuristic
)

// spans are one request's direct-stack spans.
type spans struct {
	classify, acquire, canonical, search, optimize, execute, observe time.Duration

	kind  int   // searchNone, searchExact or searchHeuristic
	nodes int64 // nodes the exact search expanded
	calls []time.Duration
}

// direct runs the handler's sequence for e on s. With timeSearch, a
// request the caches cannot answer also times planner.SignatureFor and
// the search the planner routes it to. prev is the plan s last returned
// for e, the incumbent the planner seeds a replan with. The answer comes
// back in the form the HTTP answer checker reads.
func (s *stack) direct(ctx context.Context, e *entry, prev model.Plan, timeSearch bool) (sp spans, opt optimizeAnswer, ex executeAnswer, err error) {
	q := e.q
	t := time.Now()
	temp := s.p.Classify(q)
	sp.classify = time.Since(t)
	class := admit.Cold
	if temp == planner.TempWarm {
		class = admit.Warm
	}
	t = time.Now()
	ticket, err := s.adm.Acquire(ctx, class, "")
	sp.acquire = time.Since(t)
	if err != nil {
		return sp, opt, ex, err
	}
	defer ticket.Release()

	if timeSearch && temp != planner.TempWarm {
		t = time.Now()
		s.p.SignatureFor(q)
		sp.canonical = time.Since(t)
		if err := s.search(q, temp, prev, &sp); err != nil {
			return sp, opt, ex, err
		}
	}

	t = time.Now()
	res, err := s.p.Optimize(ctx, q)
	sp.optimize = time.Since(t)
	if err != nil {
		return sp, opt, ex, err
	}
	opt = optimizeAnswer{Plan: res.Plan, Cost: res.Cost, Optimal: res.Optimal, Tier: res.Tier, Stale: res.Stale}
	if s.ex == nil {
		return sp, opt, ex, nil
	}

	in := exec.Tuples(execTuples)
	t = time.Now()
	r, err := s.ex.Execute(ctx, q, res.Plan, in)
	sp.execute = time.Since(t)
	if s.calls != nil {
		sp.calls = s.calls.take()
	}
	if err != nil {
		return sp, opt, ex, err
	}
	ex = executeAnswer{Plan: res.Plan, TuplesOut: r.TuplesOut}
	if r.Degraded != nil {
		ex.Degraded = []byte(r.Degraded.String())
	}
	if rep := r.Report(); rep != nil {
		t = time.Now()
		_, err = s.reg.Observe(rep)
		sp.observe = time.Since(t)
	}
	return sp, opt, ex, err
}

// search times the search the planner routes q to: the heuristic tier
// from planner.DefaultHeuristicThreshold services, the parallel exact
// search from planner.DefaultParallelThreshold, the sequential one below.
// Like the planner it searches the query under the adaptive overlay and
// seeds a replan of a stale query with the previous plan.
func (s *stack) search(q *model.Query, temp planner.Temperature, prev model.Plan, sp *spans) error {
	eff := q
	if s.reg != nil {
		eff, _ = s.reg.Current().Overlay(q)
	}
	var incumbent model.Plan
	if temp == planner.TempStale && prev != nil && prev.Validate(eff) == nil {
		incumbent = prev
	}
	var res core.Result
	var err error
	t := time.Now()
	switch n := q.N(); {
	case n >= planner.DefaultHeuristicThreshold:
		_, err = htier.Plan(eff, htier.Options{Seed: incumbent})
		sp.kind = searchHeuristic
	case n >= planner.DefaultParallelThreshold:
		res, err = core.OptimizeParallel(eff, core.Options{InitialIncumbent: incumbent}, 0)
		sp.kind = searchExact
	default:
		res, err = core.OptimizeWithOptions(eff, core.Options{InitialIncumbent: incumbent})
		sp.kind = searchExact
	}
	sp.search = time.Since(t)
	sp.nodes = res.Stats.NodesExpanded
	return err
}

// moduleStats are the counters the traced run reads from each module.
type moduleStats struct {
	planner       planner.Stats
	exec          exec.Stats
	adapt         adapt.Stats
	queryMemoHits int64
}

func (s *stack) stats() moduleStats {
	m := moduleStats{planner: s.p.Stats()}
	if s.ex != nil {
		m.exec = s.ex.Stats()
	}
	if s.reg != nil {
		m.adapt = s.reg.Stats()
	}
	return m
}
