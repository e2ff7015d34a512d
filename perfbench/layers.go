package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"serviceordering/internal/htier"
	"serviceordering/internal/model"
)

// tracedRequest is one replayed request: its traced round trip, the
// handler span inside it, and the direct-stack spans.
type tracedRequest struct {
	rt, handler time.Duration
	spans
}

// self returns the request's layer self times in microseconds: each
// layer's span minus the deeper spans of the same request. serve's
// subtracts the direct-stack spans from the HTTP stack's handler span,
// and planner's subtracts the separately timed canonicalization and
// search from Optimize's span, so for one request either can come out
// negative.
func (r *tracedRequest) self() map[string]float64 {
	deeper := r.classify + r.acquire + r.optimize + r.execute + r.observe
	m := map[string]float64{
		"http":    usec(r.rt - r.handler),
		"serve":   usec(r.handler - deeper),
		"admit":   usec(r.classify + r.acquire),
		"planner": usec(r.optimize - r.canonical - r.search),
	}
	if r.execute > 0 {
		m["exec"] = usec(r.execute)
	}
	if r.observe > 0 {
		m["adapt"] = usec(r.observe)
	}
	if r.canonical > 0 {
		m["planner.canonical"] = usec(r.canonical)
	}
	switch r.kind {
	case searchExact:
		m["core"] = usec(r.search)
	case searchHeuristic:
		m["htier"] = usec(r.search)
	}
	return m
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runTraced replays w's request list in-process with spans around each
// layer and reports the per-layer metrics.
func runTraced(ctx context.Context, out io.Writer, w workload, seed int64, seconds int) (*result, error) {
	n := min(w.windowLen(seconds), w.traceRequests)
	fmt.Fprintf(out, "perfbench %s: seed %d, traced in-process replay of the first %d window requests\n", w.name, seed, n)
	l, err := buildList(w, seed, n)
	if err != nil {
		return nil, err
	}
	var t tally
	if err := t.checkRecorded(w, l, seed); err != nil {
		return nil, err
	}
	if l.draws != nil {
		fmt.Fprintf(out, "optimize queries: %s\n", l.draws)
	}
	keep := keepOptimize
	if w.path == "/v1/execute" {
		keep = keepAll
	}

	// Three identically built stacks: u untraced behind a plain loopback
	// server, a behind the span wrapper, b called directly.
	u, err := newStack(w, false)
	if err != nil {
		return nil, err
	}
	lu, err := serveLoopback(u.handler())
	if err != nil {
		return nil, err
	}
	defer lu.close()
	a, err := newStack(w, false)
	if err != nil {
		return nil, err
	}
	sh := &spanHandler{next: a.handler(), path: w.path, spans: make(chan time.Duration, 1)}
	la, err := serveLoopback(sh)
	if err != nil {
		return nil, err
	}
	defer la.close()
	b, err := newStack(w, true)
	if err != nil {
		return nil, err
	}

	// replay sends request i (entry k) to all three stacks. The untraced
	// and traced round trips alternate which goes first, so drift in the
	// machine's speed and the cache state the direct calls leave behind
	// fall on both alike.
	var buf bytes.Buffer
	prev := make(map[int]model.Plan)
	replay := func(phase string, i, k int, timeSearch bool) (tracedRequest, time.Duration) {
		e := l.entries[k]
		var tr tracedRequest
		var uo, to outcome
		if i%2 == 0 {
			uo = post(ctx, lu.client, lu.base+w.path, e.body, &buf, keep)
		}
		to, tr.handler = tracedPost(ctx, la, sh, e.body, &buf, keep)
		if i%2 == 1 {
			uo = post(ctx, lu.client, lu.base+w.path, e.body, &buf, keep)
		}
		tr.rt = to.lat
		sp, opt, ex, err := b.direct(ctx, e, prev[k], timeSearch)
		tr.spans = sp
		prev[k] = opt.Plan
		what := fmt.Sprintf("%s request %d (entry %d)", phase, i, k)
		t.add(checkOutcome(w.path, e, uo), "untraced "+what)
		t.add(checkOutcome(w.path, e, to), "traced "+what)
		t.add(checkDirect(w, e, opt, ex, err), "direct "+what)
		return tr, uo.lat
	}
	for i, k := range l.prime {
		replay("priming", i, k, false)
	}
	if b.calls != nil {
		b.calls.take()
	}

	http0, err := scrapeStats(la.client, la.base)
	if err != nil {
		return nil, err
	}
	st0 := b.stats()
	reqs := make([]tracedRequest, len(l.window))
	var untraced time.Duration
	for i, k := range l.window {
		var lat time.Duration
		reqs[i], lat = replay("window", i, k, true)
		untraced += lat
	}
	st1 := b.stats()
	http1, err := scrapeStats(la.client, la.base)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	lt := collectTimes(reqs)
	probed, probes, err := probeUnreached(ctx, l, lt)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(lt, len(reqs), st0, st1, http1.QueryMemoHits-http0.QueryMemoHits)
	if err := printLayers(out, reqs, untraced); err != nil {
		t.add(err, "reconciliation")
	}
	if len(probed) > 0 {
		fmt.Fprintf(out, "off-path: this workload's window never reaches %s; their time metrics come from direct calls on %d of its queries, outside any request\n",
			strings.Join(probed, ", "), probes)
	}
	printMetrics(out, "per-layer", m)
	return t.result(out, m), nil
}

// checkDirect checks a direct-stack answer with the HTTP answer checker.
func checkDirect(w workload, e *entry, opt optimizeAnswer, ex executeAnswer, err error) error {
	switch {
	case err != nil:
		return err
	case w.path == "/v1/execute":
		return checkExecute(e, ex)
	default:
		return checkOptimize(e, opt)
	}
}

// layerTimes are a replay's time samples per layer, in microseconds.
type layerTimes struct {
	http, serve, classify, acquire, planner []float64
	canonical, core, htier, exec, calls     []float64
	observe                                 []float64
	nodes, exact                            int64 // nodes expanded by, and count of, the exact searches
}

func collectTimes(reqs []tracedRequest) *layerTimes {
	lt := &layerTimes{}
	for i := range reqs {
		r := &reqs[i]
		self := r.self()
		lt.http = append(lt.http, self["http"])
		lt.serve = append(lt.serve, self["serve"])
		lt.classify = append(lt.classify, usec(r.classify))
		lt.acquire = append(lt.acquire, usec(r.acquire))
		lt.planner = append(lt.planner, self["planner"])
		if r.canonical > 0 {
			lt.canonical = append(lt.canonical, usec(r.canonical))
		}
		switch r.kind {
		case searchExact:
			lt.core = append(lt.core, usec(r.search))
			lt.nodes += r.nodes
			lt.exact++
		case searchHeuristic:
			lt.htier = append(lt.htier, usec(r.search))
		}
		if r.execute > 0 {
			lt.exec = append(lt.exec, usec(r.execute))
		}
		if r.observe > 0 {
			lt.observe = append(lt.observe, usec(r.observe))
		}
		for _, c := range r.calls {
			lt.calls = append(lt.calls, usec(c))
		}
	}
	return lt
}

// probeQueries bounds the queries the off-path probe runs.
const probeQueries = 256

// probeUnreached fills in the time samples of every layer the replay's
// window never reached, so that no per-layer time is a constant zero: the
// search layers on warm-hits, exec and adapt on the optimize workloads,
// htier on the workloads whose queries sit below its threshold. Outside
// any request, it runs the handler's sequence on up to probeQueries of
// the window's distinct queries, each first-sight on a fresh stack built
// as for execute-adaptive, and times htier.Plan directly on a query the
// planner routes elsewhere. Counts are left alone: they stay the
// window's. It returns the layers it filled in and the number of queries.
func probeUnreached(ctx context.Context, l *requestList, lt *layerTimes) ([]string, int, error) {
	w, _ := workloadByName("execute-adaptive")
	s, err := newStack(w, true)
	if err != nil {
		return nil, 0, err
	}
	var reqs []tracedRequest
	var heuristic []float64
	seen := make(map[int]bool)
	for _, k := range l.window {
		if seen[k] || len(seen) == probeQueries {
			continue
		}
		seen[k] = true
		sp, _, _, err := s.direct(ctx, l.entries[k], nil, true)
		if err != nil {
			return nil, 0, err
		}
		reqs = append(reqs, tracedRequest{spans: sp})
		if sp.kind != searchHeuristic {
			t := time.Now()
			if _, err := htier.Plan(l.entries[k].q, htier.Options{}); err != nil {
				return nil, 0, err
			}
			heuristic = append(heuristic, usec(time.Since(t)))
		}
	}
	p := collectTimes(reqs)
	p.htier = append(p.htier, heuristic...)
	var probed []string
	for _, f := range []struct {
		layer     string
		dst, from *[]float64
	}{
		{"planner.canonical", &lt.canonical, &p.canonical},
		{"core", &lt.core, &p.core},
		{"htier", &lt.htier, &p.htier},
		{"exec", &lt.exec, &p.exec},
		{"exec.backend_call", &lt.calls, &p.calls},
		{"adapt", &lt.observe, &p.observe},
	} {
		if len(*f.dst) == 0 {
			*f.dst = *f.from
			probed = append(probed, f.layer)
		}
	}
	return probed, len(seen), nil
}

// layerMetrics computes the per-layer metrics of a traced replay of
// len(reqs) requests from its layer times and the module counters before
// (s0) and after (s1) it. memoHits is the HTTP stack's query-memo hit
// count over the replay.
func layerMetrics(lt *layerTimes, reqs int, s0, s1 moduleStats, memoHits int64) map[string]metric {
	req := float64(reqs)
	p, q := s0.planner, s1.planner
	lookups := (q.Hits - p.Hits) + (q.Misses - p.Misses)
	searches := q.Searches - p.Searches
	var heuristic int64
	for tier, c := range q.TierCounts {
		if strings.HasPrefix(tier, "heuristic/") {
			heuristic += c - p.TierCounts[tier]
		}
	}
	return map[string]metric{
		"http.overhead_us_p50":       {p50(lt.http), "us"},
		"serve.self_us_p50":          {p50(lt.serve), "us"},
		"serve.query_memo_hit_ratio": {float64(memoHits) / req, "ratio"},
		"admit.classify_us_p50":      {p50(lt.classify), "us"},
		"admit.acquire_us_p50":       {p50(lt.acquire), "us"},
		"planner.self_us_p50":        {p50(lt.planner), "us"},
		"planner.canonical_us_p50":   {p50(lt.canonical), "us"},
		"planner.memo_hit_ratio":     {float64(q.MemoHits-p.MemoHits) / req, "ratio"},
		"planner.replans_per_req":    {float64(q.Replans-p.Replans) / req, "1/req"},
		"ccache.hit_ratio":           {ratio(q.Hits-p.Hits, lookups), "ratio"},
		"ccache.evictions_per_kreq":  {1000 * float64(q.Evictions-p.Evictions) / req, "1/kreq"},
		"core.search_us_p50":         {p50(lt.core), "us"},
		"core.search_us_p90":         {pct(lt.core, 0.90), "us"},
		"core.nodes_per_search":      {ratio(lt.nodes, lt.exact), "count"},
		"htier.plan_us_p50":          {p50(lt.htier), "us"},
		"htier.share":                {ratio(heuristic, searches), "ratio"},
		"exec.execute_us_p50":        {p50(lt.exec), "us"},
		"exec.backend_calls_per_req": {float64(s1.exec.Calls-s0.exec.Calls) / req, "1/req"},
		"exec.backend_call_us_p50":   {p50(lt.calls), "us"},
		"exec.retries_per_req":       {float64(s1.exec.Retries-s0.exec.Retries) / req, "1/req"},
		"adapt.observe_us_p50":       {p50(lt.observe), "us"},
		"adapt.publishes_per_kreq":   {1000 * float64(s1.adapt.DriftEvents-s0.adapt.DriftEvents) / req, "1/kreq"},
	}
}

func p50(v []float64) float64 { return pct(v, 0.50) }

// pct is the q-quantile of v, floored at zero: a self time is a
// difference of spans, and a negative one means none.
func pct(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return max(quantile(s, q), 0)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerOrder is the reconciliation table's row order, outermost first.
var layerOrder = []string{"http", "serve", "admit", "planner", "planner.canonical", "core", "htier", "exec", "adapt"}

// printLayers prints each layer's mean self time with its sample count
// and reconciles the layers with the untraced round trip of the same
// requests.
//
// serve's and planner's self times are residuals (the handler span minus
// the direct spans, Optimize minus canonicalization and search), so
// unfloored the layers would sum to the traced round trip by
// construction. Each layer's self time is therefore summed over the
// replay and floored at zero, and the total is compared with an
// independent measurement: the untraced twin stack's round trips,
// interleaved with the traced ones. The check is two-sided. It fails when
// tracing inflates the round trip by more than reconcileTolerance, and
// when a residual comes out negative by that much — direct spans that
// took longer in sum than the handler span they model. Single requests
// are not floored: the subtracted spans come from separate calls, so one
// request's residual may be negative by noise alone.
func printLayers(out io.Writer, reqs []tracedRequest, untraced time.Duration) error {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	var rt float64
	for i := range reqs {
		rt += usec(reqs[i].rt)
		for layer, v := range reqs[i].self() {
			sums[layer] += v
			counts[layer]++
		}
	}
	fmt.Fprintf(out, "%-18s %10s %12s %12s\n", "layer", "samples", "mean self us", "share of rt")
	var total float64
	for _, layer := range layerOrder {
		if counts[layer] == 0 {
			continue
		}
		sum := max(sums[layer], 0)
		total += sum
		fmt.Fprintf(out, "%-18s %10d %12.2f %11.1f%%\n", layer, counts[layer], sum/float64(counts[layer]), 100*sum/rt)
	}
	n := float64(len(reqs))
	ut := usec(untraced)
	fmt.Fprintf(out, "tracing overhead: mean round trip %.2f us traced, %.2f us untraced on the twin stack (%+.2f%%), %d requests each\n",
		rt/n, ut/n, 100*(rt/ut-1), len(reqs))
	gap := total/ut - 1
	fmt.Fprintf(out, "reconciliation: layer self times sum to %.2f us per request against the untraced round trip's %.2f us (%+.2f%%, tolerance ±%.0f%%)\n",
		total/n, ut/n, 100*gap, 100*reconcileTolerance)
	if math.Abs(gap) > reconcileTolerance {
		return fmt.Errorf("layer self times miss the untraced round trip by %+.2f%%", 100*gap)
	}
	return nil
}
