package main

// The serving benchmark baseline: a reproducible suite of load-test cells
// (closed-loop clients over a zipf-skewed query corpus, warm and cold,
// single and batch) measured against a live dqserve handler and emitted as
// BENCH_serve.json, the serving-path counterpart of BENCH_search.json. The
// committed file at the repository root is the current baseline; CI runs
// the quick suite on every push and fails on cells regressing beyond the
// thresholds, exactly like the search-bench gate.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/admit"
	"serviceordering/internal/exec"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
	"serviceordering/internal/serve"
	"serviceordering/internal/stats"
)

// serveBenchSchema names the report format; bump on breaking changes.
const serveBenchSchema = "serviceordering/serve-bench/v1"

// serveEntry is one load-test cell measurement.
type serveEntry struct {
	Scenario    string  `json:"scenario"`
	Mode        string  `json:"mode"` // warm | cold | drift | overload | restart | fleet
	Batch       int     `json:"batch,omitempty"`
	Conc        int     `json:"conc"`
	Requests    int64   `json:"requests"`
	ReqPerSec   float64 `json:"reqPerSec"`
	P50Micros   float64 `json:"p50Micros"`
	P99Micros   float64 `json:"p99Micros"`
	AllocsPerOp float64 `json:"allocsPerOp,omitempty"` // whole process, self-hosted runs only
	HitRate     float64 `json:"hitRate"`
	Verified    int64   `json:"verified"` // responses cross-checked against independent optima

	// Open-loop cells split total latency (scheduled arrival -> response,
	// the quantiles above) into its two halves: client-side queueing delay
	// (arrival -> dispatch, nonzero once the server can't keep up with the
	// offered rate) and service time (dispatch -> response).
	QueueWaitP50Micros float64 `json:"queueWaitP50Micros,omitempty"`
	QueueWaitP99Micros float64 `json:"queueWaitP99Micros,omitempty"`
	ServiceP50Micros   float64 `json:"serviceP50Micros,omitempty"`
	ServiceP99Micros   float64 `json:"serviceP99Micros,omitempty"`

	// Overload cells: the fraction of offered requests shed (429), and how
	// many responses were served from a stale generation (degraded mode).
	ShedRate    float64 `json:"shedRate,omitempty"`
	StaleServed int64   `json:"staleServed,omitempty"`
}

func (e serveEntry) key() string { return e.Scenario }

// serveReport is the BENCH_serve.json document.
type serveReport struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generatedAt"`
	GoVersion   string `json:"goVersion"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Quick       bool   `json:"quick"`

	Entries []serveEntry `json:"entries"`

	// Previous carries the entries of the report this run was compared
	// against (-compare), so a committed baseline records both sides of
	// its before/after story.
	Previous     []serveEntry `json:"previous,omitempty"`
	PreviousNote string       `json:"previousNote,omitempty"`
}

// cellSpec is one suite cell configuration.
type cellSpec struct {
	Name   string
	Mode   string // warm | cold
	Batch  int    // 0 = single /v1/optimize requests
	Conc   int    // closed-loop worker count
	Corpus int    // distinct queries (warm) or unique-query pool (cold)
	N      int    // base service count; corpus entries use N, N-1, N-2
	Zipf   float64
}

// defaultSuite is the tracked baseline: the warm-hit cells the serving
// path is optimized for, plus a cold cell so first-sight costs stay
// visible.
func defaultSuite(quick bool) ([]cellSpec, time.Duration) {
	dur := 2500 * time.Millisecond
	coldPool := 12000
	if quick {
		dur = 500 * time.Millisecond
		coldPool = 3000
	}
	return []cellSpec{
		{Name: "warm-single", Mode: "warm", Conc: 8, Corpus: 64, N: 12, Zipf: 1.2},
		{Name: "warm-batch32", Mode: "warm", Batch: 32, Conc: 4, Corpus: 64, N: 12, Zipf: 1.2},
		{Name: "cold-single", Mode: "cold", Conc: 8, Corpus: coldPool, N: 9},
	}, dur
}

// loadOpts are the knobs shared by suite and ad-hoc runs.
type loadOpts struct {
	seed       int64
	target     string // external server URL; empty = self-host
	duration   time.Duration
	open       bool           // open-loop arrivals instead of closed-loop workers
	rate       float64        // open-loop arrivals per second
	adaptive   *adapt.Config  // non-nil: self-host with the adaptive replanning loop
	admission  *admit.Options // non-nil: self-host behind an admission controller
	staleServe bool           // with admission: serve stale plans instead of shedding
	snapshot   []byte         // non-nil: restore this plan-cache snapshot into the self-hosted planner before serving
	executor   *exec.Executor // non-nil: self-host with POST /v1/execute over this executor
	sequential bool           // self-host with parallel search disabled (deterministic service times)
	verbose    io.Writer
}

// loadTarget is the server under test plus the client used to hammer it.
type loadTarget struct {
	url     string
	client  *http.Client
	planner *planner.Planner // non-nil when self-hosted
	close   func()
}

// startTarget self-hosts the production handler on a loopback listener, or
// wraps an external URL. Self-hosting uses the exact serve.NewHandler +
// planner stack dqserve runs, so the cells measure the real serving path
// minus only the NIC.
func startTarget(opts loadOpts) (*loadTarget, error) {
	transport := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512}
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	if opts.target != "" {
		return &loadTarget{url: opts.target, client: client, close: transport.CloseIdleConnections}, nil
	}
	var registry *adapt.Registry
	if opts.adaptive != nil {
		var err error
		if registry, err = adapt.New(*opts.adaptive); err != nil {
			return nil, err
		}
	}
	cfg := planner.Config{Adaptive: registry}
	if opts.sequential {
		cfg.ParallelThreshold = -1
	}
	p := planner.New(cfg)
	if opts.snapshot != nil {
		if _, err := p.LoadSnapshot(bytes.NewReader(opts.snapshot)); err != nil {
			return nil, fmt.Errorf("restoring snapshot into self-hosted planner: %w", err)
		}
	}
	var admission *admit.Controller
	if opts.admission != nil {
		admission = admit.New(*opts.admission)
	}
	srv := &http.Server{Handler: serve.NewHandler(p, serve.Options{
		MaxBody:    64 << 20,
		Admission:  admission,
		StaleServe: opts.staleServe,
		Executor:   opts.executor,
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = srv.Serve(ln) }()
	return &loadTarget{
		url:     "http://" + ln.Addr().String(),
		client:  client,
		planner: p,
		close: func() {
			_ = srv.Close()
			transport.CloseIdleConnections()
		},
	}, nil
}

// corpus is the workload: pre-serialized request bodies plus the
// independently computed optimum for each entry (the correctness oracle
// responses are cross-checked against).
type corpus struct {
	queries  []*model.Query
	bodies   [][]byte
	expected []float64 // optimal cost per entry; NaN-free, computed by a fresh planner
}

// buildCorpus generates size queries (service counts n, n-1, n-2 cycling
// for shape diversity) and, when verify is set, establishes each entry's
// optimal cost with an independent planner.
func buildCorpus(size, n int, seed int64, verify bool) (*corpus, error) {
	c := &corpus{
		queries:  make([]*model.Query, size),
		bodies:   make([][]byte, size),
		expected: make([]float64, size),
	}
	oracle := planner.New(planner.Config{})
	ctx := context.Background()
	for i := 0; i < size; i++ {
		ni := n - i%3
		if ni < 3 {
			ni = 3
		}
		q, err := gen.Default(ni, seed+int64(i)*7919).Generate()
		if err != nil {
			return nil, fmt.Errorf("generating corpus entry %d: %w", i, err)
		}
		c.queries[i] = q
		body, err := json.Marshal(&model.Instance{Query: q})
		if err != nil {
			return nil, err
		}
		c.bodies[i] = body
		if verify {
			res, err := oracle.Optimize(ctx, q)
			if err != nil {
				return nil, fmt.Errorf("oracle solve of corpus entry %d: %w", i, err)
			}
			if !res.Optimal {
				return nil, fmt.Errorf("oracle could not prove corpus entry %d optimal", i)
			}
			c.expected[i] = res.Cost
		}
	}
	return c, nil
}

// verifyEvery samples one response in this many for full decode +
// cross-check; the rest are drained without decoding so client-side work
// stays light and identical across compared runs.
const verifyEvery = 8

// solvedProbe is the minimal response decoding target for verification.
type solvedProbe struct {
	Plan    model.Plan `json:"plan"`
	Cost    float64    `json:"cost"`
	Optimal bool       `json:"optimal"`
}

// batchProbe is the verification target of a /v1/optimize/batch answer:
// per instance, a solved probe or a {code,message} error.
type batchProbe struct {
	Results []struct {
		solvedProbe
		Error *v1Error `json:"error"`
	} `json:"results"`
}

// verifySolved cross-checks one response against the corpus oracle: the
// reported cost must equal the independently proven optimum exactly, the
// plan must be feasible for the query, and re-evaluating the plan from
// scratch must reproduce that cost (plans may differ among cost ties).
func verifySolved(c *corpus, idx int, probe solvedProbe) error {
	q := c.queries[idx]
	if !probe.Optimal {
		return fmt.Errorf("corpus %d: response not optimal", idx)
	}
	if probe.Cost != c.expected[idx] {
		return fmt.Errorf("corpus %d: cost %v, oracle %v", idx, probe.Cost, c.expected[idx])
	}
	if err := probe.Plan.Validate(q); err != nil {
		return fmt.Errorf("corpus %d: infeasible plan: %w", idx, err)
	}
	if got := q.Cost(probe.Plan); got != c.expected[idx] {
		return fmt.Errorf("corpus %d: plan re-evaluates to %v, oracle %v", idx, got, c.expected[idx])
	}
	return nil
}

// runCell measures one cell against a fresh target.
func runCell(spec cellSpec, opts loadOpts) (serveEntry, error) {
	target, err := startTarget(opts)
	if err != nil {
		return serveEntry{}, err
	}
	defer target.close()

	warm := spec.Mode == "warm"
	corp, err := buildCorpus(spec.Corpus, spec.N, opts.seed, warm)
	if err != nil {
		return serveEntry{}, err
	}

	if warm {
		// Populate the plan cache and cross-check every corpus optimum
		// once before the clock starts.
		for i := range corp.bodies {
			probe, err := postV1Optimize(target.client, target.url, corp.bodies[i])
			if err != nil {
				return serveEntry{}, fmt.Errorf("warming corpus entry %d: %w", i, err)
			}
			if err := verifySolved(corp, i, probe); err != nil {
				return serveEntry{}, fmt.Errorf("warmup cross-check failed: %w", err)
			}
		}
	}

	statsBefore, haveStats := scrapeHitCounters(target)
	var memBefore runtime.MemStats
	if target.planner != nil {
		runtime.ReadMemStats(&memBefore)
	}

	var res measureResult
	if opts.open {
		res, err = measureOpenLoop(spec, opts, target, corp)
	} else {
		res, err = measureClosedLoop(spec, opts, target, corp)
	}
	if err != nil {
		return serveEntry{}, err
	}
	if res.requests == 0 {
		return serveEntry{}, fmt.Errorf("cell %s completed zero requests", spec.Name)
	}

	entry := serveEntry{
		Scenario:  spec.Name,
		Mode:      spec.Mode,
		Batch:     spec.Batch,
		Conc:      spec.Conc,
		Requests:  res.requests,
		ReqPerSec: float64(res.requests) / res.elapsed.Seconds(),
		Verified:  res.verified,
	}
	sort.Slice(res.latencies, func(a, b int) bool { return res.latencies[a] < res.latencies[b] })
	entry.P50Micros = quantileMicros(res.latencies, 0.50)
	entry.P99Micros = quantileMicros(res.latencies, 0.99)
	if len(res.queueWaits) > 0 {
		sort.Slice(res.queueWaits, func(a, b int) bool { return res.queueWaits[a] < res.queueWaits[b] })
		sort.Slice(res.serviceTimes, func(a, b int) bool { return res.serviceTimes[a] < res.serviceTimes[b] })
		entry.QueueWaitP50Micros = quantileMicros(res.queueWaits, 0.50)
		entry.QueueWaitP99Micros = quantileMicros(res.queueWaits, 0.99)
		entry.ServiceP50Micros = quantileMicros(res.serviceTimes, 0.50)
		entry.ServiceP99Micros = quantileMicros(res.serviceTimes, 0.99)
	}
	if target.planner != nil {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		entry.AllocsPerOp = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(res.requests)
	}
	if haveStats {
		if after, ok := scrapeHitCounters(target); ok {
			hits := after.hits - statsBefore.hits
			misses := after.misses - statsBefore.misses
			if hits+misses > 0 {
				entry.HitRate = float64(hits) / float64(hits+misses)
			}
		}
	}
	return entry, nil
}

type measureResult struct {
	requests  int64
	verified  int64
	elapsed   time.Duration
	latencies []time.Duration

	// Open-loop only: the two halves of each total latency, index-aligned
	// before sorting (queueWaits[i] + serviceTimes[i] == latencies[i]).
	queueWaits   []time.Duration
	serviceTimes []time.Duration
}

// measureClosedLoop runs spec.Conc workers, each issuing its next request
// the moment the previous one completes, until the window closes (or, for
// cold cells, the unique-query pool drains — replaying a cold query would
// silently measure warm hits).
func measureClosedLoop(spec cellSpec, opts loadOpts, target *loadTarget, corp *corpus) (measureResult, error) {
	var (
		wg       sync.WaitGroup
		nextCold atomic.Int64
		requests atomic.Int64
		verified atomic.Int64
		firstErr atomic.Pointer[error]
	)
	lat := make([][]time.Duration, spec.Conc)
	deadline := time.Now().Add(opts.duration)
	start := time.Now()
	for w := 0; w < spec.Conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.seed*1031 + int64(w)))
			pick := newPicker(rng, spec, &nextCold, len(corp.bodies))
			local := make([]time.Duration, 0, 4096)
			for n := 0; time.Now().Before(deadline); n++ {
				idxs, body, ok := nextRequest(pick, spec, corp, rng)
				if !ok {
					break // cold pool drained
				}
				verify := n%verifyEvery == 0
				t0 := time.Now()
				err := issue(target, spec, corp, idxs, body, verify)
				d := time.Since(t0)
				if err != nil {
					e := err
					firstErr.CompareAndSwap(nil, &e)
					return
				}
				local = append(local, d)
				requests.Add(1)
				if verify {
					verified.Add(1)
				}
			}
			lat[w] = local
		}(w)
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return measureResult{}, *ep
	}
	res := measureResult{requests: requests.Load(), verified: verified.Load(), elapsed: time.Since(start)}
	for _, l := range lat {
		res.latencies = append(res.latencies, l...)
	}
	return res, nil
}

// measureOpenLoop fires requests on a fixed arrival schedule (opts.rate
// per second) regardless of completions, so measured latency includes
// queueing delay — the load shape a server actually sees. Outstanding
// requests are capped at openLoopMaxOutstanding; when the cap is hit the
// dispatcher blocks, degrading gracefully to partly-closed behavior
// rather than growing without bound (the achieved rate in the summary
// exposes the shortfall).
const openLoopMaxOutstanding = 1024

func measureOpenLoop(spec cellSpec, opts loadOpts, target *loadTarget, corp *corpus) (measureResult, error) {
	if opts.rate <= 0 {
		return measureResult{}, fmt.Errorf("open-loop mode needs -rate > 0")
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []time.Duration
		queues   []time.Duration
		services []time.Duration
		nextCold atomic.Int64
		requests atomic.Int64
		verified atomic.Int64
		firstErr atomic.Pointer[error]
	)
	sem := make(chan struct{}, openLoopMaxOutstanding)
	rng := rand.New(rand.NewSource(opts.seed * 2029))
	pick := newPicker(rng, spec, &nextCold, len(corp.bodies))
	interval := time.Duration(float64(time.Second) / opts.rate)
	start := time.Now()
	deadline := start.Add(opts.duration)
	for n := 0; ; n++ {
		arrival := start.Add(time.Duration(n) * interval)
		if arrival.After(deadline) {
			break
		}
		if d := time.Until(arrival); d > 0 {
			time.Sleep(d)
		}
		if firstErr.Load() != nil {
			break
		}
		idxs, body, ok := nextRequest(pick, spec, corp, rng)
		if !ok {
			break
		}
		verify := n%verifyEvery == 0
		sem <- struct{}{}
		wg.Add(1)
		go func(idxs []int, body []byte, verify bool, arrival time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			// The split: everything between the scheduled arrival and this
			// dispatch (scheduler lag + the outstanding-cap backpressure) is
			// queue wait; the request itself is service time. Total latency
			// (what the quantiles report) is their sum.
			dispatch := time.Now()
			err := issue(target, spec, corp, idxs, body, verify)
			now := time.Now()
			if err != nil {
				e := err
				firstErr.CompareAndSwap(nil, &e)
				return
			}
			requests.Add(1)
			if verify {
				verified.Add(1)
			}
			mu.Lock()
			lats = append(lats, now.Sub(arrival)) // includes queueing
			queues = append(queues, dispatch.Sub(arrival))
			services = append(services, now.Sub(dispatch))
			mu.Unlock()
		}(idxs, body, verify, arrival)
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return measureResult{}, *ep
	}
	return measureResult{
		requests: requests.Load(), verified: verified.Load(), elapsed: time.Since(start),
		latencies: lats, queueWaits: queues, serviceTimes: services,
	}, nil
}

// picker selects the next corpus index: zipf-skewed (or uniform) for warm
// cells, a strictly increasing unique index for cold cells.
type picker func() (int, bool)

func newPicker(rng *rand.Rand, spec cellSpec, nextCold *atomic.Int64, corpusLen int) picker {
	if spec.Mode == "cold" {
		return func() (int, bool) {
			i := nextCold.Add(1) - 1
			if i >= int64(corpusLen) {
				return 0, false
			}
			return int(i), true
		}
	}
	if spec.Zipf > 1 {
		z := rand.NewZipf(rng, spec.Zipf, 1, uint64(corpusLen-1))
		return func() (int, bool) { return int(z.Uint64()), true }
	}
	return func() (int, bool) { return rng.Intn(corpusLen), true }
}

// nextRequest builds the next request body: a single pre-serialized
// instance, or a batch document spliced from spec.Batch picks.
func nextRequest(pick picker, spec cellSpec, corp *corpus, rng *rand.Rand) ([]int, []byte, bool) {
	if spec.Batch <= 0 {
		idx, ok := pick()
		if !ok {
			return nil, nil, false
		}
		return []int{idx}, corp.bodies[idx], true
	}
	idxs := make([]int, 0, spec.Batch)
	body := append(make([]byte, 0, 4096), `{"instances":[`...)
	for k := 0; k < spec.Batch; k++ {
		idx, ok := pick()
		if !ok {
			break
		}
		if k > 0 {
			body = append(body, ',')
		}
		body = append(body, corp.bodies[idx]...)
		idxs = append(idxs, idx)
	}
	if len(idxs) == 0 {
		return nil, nil, false
	}
	body = append(body, `]}`...)
	return idxs, body, true
}

// issue performs one request and drains (or, when verify is set, decodes
// and cross-checks) the response.
func issue(target *loadTarget, spec cellSpec, corp *corpus, idxs []int, body []byte, verify bool) error {
	// Cold responses are consistency-checked (feasible plan reproducing
	// the reported cost) but not oracle-checked: solving every unique
	// query twice would halve cold throughput.
	oracle := spec.Mode == "warm"
	if spec.Batch <= 0 {
		if !verify {
			return drainV1Optimize(target.client, target.url, body)
		}
		probe, err := postV1Optimize(target.client, target.url, body)
		if err != nil {
			return err
		}
		return checkProbe(corp, idxs[0], probe, oracle)
	}
	if !verify {
		return drainV1(target.client, target.url, "/v1/optimize/batch", body)
	}
	probe, err := postV1Batch(target.client, target.url, body)
	if err != nil {
		return err
	}
	if len(probe.Results) != len(idxs) {
		return fmt.Errorf("batch returned %d results for %d instances", len(probe.Results), len(idxs))
	}
	for k, r := range probe.Results {
		if r.Error != nil {
			return fmt.Errorf("batch instance %d failed: %s: %s", k, r.Error.Code, r.Error.Message)
		}
		if err := checkProbe(corp, idxs[k], r.solvedProbe, oracle); err != nil {
			return err
		}
	}
	return nil
}

func checkProbe(corp *corpus, idx int, probe solvedProbe, oracle bool) error {
	if oracle {
		return verifySolved(corp, idx, probe)
	}
	q := corp.queries[idx]
	if err := probe.Plan.Validate(q); err != nil {
		return fmt.Errorf("corpus %d: infeasible plan: %w", idx, err)
	}
	if got := q.Cost(probe.Plan); got != probe.Cost {
		return fmt.Errorf("corpus %d: plan re-evaluates to %v, response says %v", idx, got, probe.Cost)
	}
	return nil
}

// hitCounters is the /v1/stats subset used for cell hit rates.
type hitCounters struct{ hits, misses int64 }

func scrapeHitCounters(target *loadTarget) (hitCounters, bool) {
	if target.planner != nil {
		s := target.planner.Stats()
		return hitCounters{hits: s.Hits, misses: s.Misses}, true
	}
	st, err := getV1Stats(target.client, target.url)
	if err != nil {
		return hitCounters{}, false
	}
	return hitCounters{hits: st.Hits, misses: st.Misses}, true
}

func quantileMicros(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i].Nanoseconds()) / 1e3
}

// runServeBench measures the whole suite.
func runServeBench(quick bool, opts loadOpts) (*serveReport, error) {
	specs, dur := defaultSuite(quick)
	if opts.duration > 0 {
		dur = opts.duration
	}
	rep := &serveReport{
		Schema:      serveBenchSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Quick:       quick,
	}
	for _, spec := range specs {
		cellOpts := opts
		cellOpts.duration = dur
		entry, err := runCell(spec, cellOpts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		rep.Entries = append(rep.Entries, entry)
		if opts.verbose != nil {
			fmt.Fprintf(opts.verbose, "serve-bench %-13s %9.0f req/s  p50 %8.1fµs  p99 %8.1fµs  %6.1f allocs/op  hit %5.1f%%  (%d reqs, %d verified)\n",
				entry.Scenario, entry.ReqPerSec, entry.P50Micros, entry.P99Micros, entry.AllocsPerOp, 100*entry.HitRate, entry.Requests, entry.Verified)
		}
	}

	// The drift cell: the adaptive replanning loop end to end, under the
	// same regression gate. Self-hosted only — the scenario must control
	// the ground truth its execution reports describe.
	if opts.target == "" {
		res, err := runDriftScenario(defaultDriftSpec(quick), opts)
		if err != nil {
			return nil, fmt.Errorf("drift-replan: %w", err)
		}
		rep.Entries = append(rep.Entries, res.entry)
		if opts.verbose != nil {
			fmt.Fprintf(opts.verbose, "serve-bench %-13s %9.0f req/s  p50 %8.1fµs  p99 %8.1fµs  (converged in %d obs, %d generations, %d replans, %d verified)\n",
				res.entry.Scenario, res.entry.ReqPerSec, res.entry.P50Micros, res.entry.P99Micros,
				res.obsToConverge, res.generations, res.replans, res.entry.Verified)
		}

		// The overload cell: admission control, typed shedding, and
		// stale-serve under 4x the calibrated saturation rate — again
		// self-hosted only, for the same reason.
		ores, err := runOverloadScenario(defaultOverloadSpec(quick), opts)
		if err != nil {
			return nil, fmt.Errorf("overload-shed: %w", err)
		}
		rep.Entries = append(rep.Entries, ores.entry)
		if opts.verbose != nil {
			fmt.Fprintf(opts.verbose, "serve-bench %-13s %9.0f req/s  p50 %8.1fµs  p99 %8.1fµs  (offered %.0f req/s, %d admitted, %d shed [%.1f%%], %d stale-served, %d bg replans, %d verified)\n",
				ores.entry.Scenario, ores.entry.ReqPerSec, ores.entry.P50Micros, ores.entry.P99Micros,
				ores.offeredRate, ores.admitted, ores.sheds, 100*ores.entry.ShedRate, ores.staleServed, ores.bgReplans, ores.entry.Verified)
		}

		// The execute cell: the full optimize -> execute -> observe ->
		// replan loop through POST /v1/execute, recovering from a backend
		// drift on execution feedback alone.
		eres, err := runExecuteScenario(defaultExecSpec(quick), opts)
		if err != nil {
			return nil, fmt.Errorf("execute-loop: %w", err)
		}
		rep.Entries = append(rep.Entries, eres.entry)
		if opts.verbose != nil {
			fmt.Fprintf(opts.verbose, "serve-bench %-13s %9.0f req/s  p50 %8.1fµs  p99 %8.1fµs  (reconverged in %d executions, %d generations, %d replans, %d verified)\n",
				eres.entry.Scenario, eres.entry.ReqPerSec, eres.entry.P50Micros, eres.entry.P99Micros,
				eres.execsToConv, eres.generations, eres.replans, eres.entry.Verified)
		}

		// The chaos cell: the same /v1/execute path under a deterministic
		// fault plan — retries, breaker transitions, typed degrades,
		// bounded latency, no goroutine leaks.
		cres, err := runChaosScenario(defaultChaosSpec(quick), opts)
		if err != nil {
			return nil, fmt.Errorf("exec-chaos: %w", err)
		}
		rep.Entries = append(rep.Entries, cres.entry)
		if opts.verbose != nil {
			fmt.Fprintf(opts.verbose, "serve-bench %-13s %9.0f req/s  p50 %8.1fµs  p99 %8.1fµs  (%d complete, %d degraded, %d retries, %d breaker opens, %d verified)\n",
				cres.entry.Scenario, cres.entry.ReqPerSec, cres.entry.P50Micros, cres.entry.P99Micros,
				cres.complete, cres.degraded, cres.retries, cres.breakerOpens, cres.entry.Verified)
		}

		// The failover cell: hedged calls, plan-aware failover, and
		// reliability-priced replanning — the same /v1/execute path with a
		// replicated backend, a blacked-out mid-plan service, and an
		// adaptive registry pricing the flakiness into served plans.
		fres, err := runFailoverScenario(defaultFailoverSpec(quick), opts)
		if err != nil {
			return nil, fmt.Errorf("exec-failover: %w", err)
		}
		rep.Entries = append(rep.Entries, fres.entry)
		if opts.verbose != nil {
			fmt.Fprintf(opts.verbose, "serve-bench %-13s %9.0f req/s  p50 %8.1fµs  p99 %8.1fµs  (%d/%d failovers rescued, %d hedges won, victim demoted %d -> %d, %d verified)\n",
				fres.entry.Scenario, fres.entry.ReqPerSec, fres.entry.P50Micros, fres.entry.P99Micros,
				fres.rescued, fres.attempted, fres.hedgesWon, fres.victimPosBefore, fres.victimPosAfter, fres.entry.Verified)
		}

		// The fleet cells: three consistent-hash-sharded peers. Aggregate
		// throughput is gated at 2x the warm-single cell just measured,
		// cross-node cache hits have a floor, and the drift cell reruns
		// the adaptive loop with the observer and replanner on different
		// nodes — self-hosted only, like every scenario that must control
		// its ground truth.
		warmRef := 0.0
		for _, e := range rep.Entries {
			if e.Scenario == "warm-single" {
				warmRef = e.ReqPerSec
			}
		}
		flres, err := runFleetScenario(defaultFleetSpec(quick), opts, warmRef)
		if err != nil {
			return nil, fmt.Errorf("fleet-3peer: %w", err)
		}
		rep.Entries = append(rep.Entries, flres.entry, flres.driftEntry)
		if opts.verbose != nil {
			fmt.Fprintf(opts.verbose, "serve-bench %-13s %9.0f req/s  p50 %8.1fµs  p99 %8.1fµs  (aggregate over %d peers [%.1fx single-node], cross-node hit %.1f%%, %d verified)\n",
				flres.entry.Scenario, flres.entry.ReqPerSec, flres.entry.P50Micros, flres.entry.P99Micros,
				len(flres.perPeerRps), flres.aggregate/flres.warmRef, 100*flres.hitRate, flres.entry.Verified)
			fmt.Fprintf(opts.verbose, "serve-bench %-13s %9.0f req/s  p50 %8.1fµs  p99 %8.1fµs  (converged in %d obs at %.4f%% regret, %d anchors gossiped, %d remote re-solves, %d verified)\n",
				flres.driftEntry.Scenario, flres.driftEntry.ReqPerSec, flres.driftEntry.P50Micros, flres.driftEntry.P99Micros,
				flres.obsToConverge, 100*flres.finalRegret, flres.gossipSent, flres.remoteSolves, flres.driftEntry.Verified)
		}

		// The restart cell: snapshot round-trip and warm-boot hit rate.
		// Full suite only — the quick CI gate already exercises the
		// snapshot mechanism through the dqserve end-to-end tests.
		if !quick {
			rres, err := runRestartScenario(defaultRestartSpec(quick), opts)
			if err != nil {
				return nil, fmt.Errorf("restart-warmboot: %w", err)
			}
			rep.Entries = append(rep.Entries, rres.entry)
			if opts.verbose != nil {
				fmt.Fprintf(opts.verbose, "serve-bench %-13s %9.0f req/s  p50 %8.1fµs  p99 %8.1fµs  (snapshot %d bytes, first-window hit rate %.1f%%, %d verified)\n",
					rres.entry.Scenario, rres.entry.ReqPerSec, rres.entry.P50Micros, rres.entry.P99Micros,
					rres.snapshotBytes, 100*rres.firstWindowHitRate, rres.entry.Verified)
			}
		}
	}
	return rep, nil
}

// loadServeReport reads a previous BENCH_serve.json.
func loadServeReport(path string) (*serveReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep serveReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if rep.Schema != serveBenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, serveBenchSchema)
	}
	return &rep, nil
}

// writeServeReport writes the report with stable formatting.
func writeServeReport(rep *serveReport, path string) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// serveThresholds define when a compared cell counts as a regression.
// Throughput and p99 are hardware- and load-relative on shared CI
// runners, so their multipliers are generous; allocs/op is much more
// stable (it only moves when code paths change) and gets a tight bound.
type serveThresholds struct {
	rps    float64 // fail when new req/s < old/rps (0 disables)
	p99    float64 // fail when new p99 > old*p99 (0 disables)
	allocs float64 // fail when new allocs/op > old*allocs (0 disables)
}

// compareServeReports prints a benchstat-style old-vs-new table for the
// cells present in both reports and returns one line per cell regressing
// beyond thr.
func compareServeReports(old, cur *serveReport, thr serveThresholds, w io.Writer) ([]string, error) {
	oldByKey := make(map[string]serveEntry, len(old.Entries))
	for _, e := range old.Entries {
		oldByKey[e.key()] = e
	}
	tbl := stats.NewTable("serve bench vs baseline",
		"case", "old req/s", "new req/s", "Δrps", "old p99µs", "new p99µs", "Δp99", "old allocs", "new allocs")
	matched := 0
	var regressions []string
	for _, e := range cur.Entries {
		o, ok := oldByKey[e.key()]
		if !ok {
			continue
		}
		matched++
		tbl.MustAddRow(e.key(),
			fmt.Sprintf("%.0f", o.ReqPerSec), fmt.Sprintf("%.0f", e.ReqPerSec), deltaF(o.ReqPerSec, e.ReqPerSec),
			fmt.Sprintf("%.0f", o.P99Micros), fmt.Sprintf("%.0f", e.P99Micros), deltaF(o.P99Micros, e.P99Micros),
			fmt.Sprintf("%.1f", o.AllocsPerOp), fmt.Sprintf("%.1f", e.AllocsPerOp))
		if thr.rps > 0 && o.ReqPerSec > 0 && e.ReqPerSec < o.ReqPerSec/thr.rps {
			regressions = append(regressions, fmt.Sprintf("%s: throughput %.0f -> %.0f req/s (%s, threshold -%.0f%%)",
				e.key(), o.ReqPerSec, e.ReqPerSec, deltaF(o.ReqPerSec, e.ReqPerSec), 100*(1-1/thr.rps)))
		}
		if thr.p99 > 0 && o.P99Micros > 0 && e.P99Micros > o.P99Micros*thr.p99 {
			regressions = append(regressions, fmt.Sprintf("%s: p99 %.0f -> %.0f µs (%s, threshold +%.0f%%)",
				e.key(), o.P99Micros, e.P99Micros, deltaF(o.P99Micros, e.P99Micros), 100*(thr.p99-1)))
		}
		if thr.allocs > 0 && o.AllocsPerOp > 0 && e.AllocsPerOp > o.AllocsPerOp*thr.allocs {
			regressions = append(regressions, fmt.Sprintf("%s: allocs %.1f -> %.1f /op (%s, threshold +%.0f%%)",
				e.key(), o.AllocsPerOp, e.AllocsPerOp, deltaF(o.AllocsPerOp, e.AllocsPerOp), 100*(thr.allocs-1)))
		}
	}
	if matched == 0 {
		fmt.Fprintln(w, "serve bench: no overlapping cells with baseline")
		return nil, nil
	}
	return regressions, tbl.Render(w)
}

// deltaF renders a signed percentage change (positive req/s = faster;
// positive p99/allocs = worse).
func deltaF(old, cur float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-old)/old)
}
