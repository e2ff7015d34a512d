package main

// The harness every scenario shares: the server under test (self-hosted
// in-process, or an external URL), the oracle-checked query corpus, and
// the closed-loop warm window the restart and fleet scenarios measure.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
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
)

// serveEntry is the traffic summary a scenario prints.
type serveEntry struct {
	Requests  int64
	ReqPerSec float64
	P50Micros float64
	P99Micros float64
	HitRate   float64
	Verified  int64   // responses cross-checked against independent optima
	ShedRate  float64 // overload only: the fraction of offered requests shed (429)
}

// loadOpts are the knobs a scenario hosts its server with.
type loadOpts struct {
	seed       int64
	target     string         // external fleet URLs (fleet only); empty = self-host
	adaptive   *adapt.Config  // non-nil: self-host with the adaptive replanning loop
	admission  *admit.Options // non-nil: self-host behind an admission controller
	staleServe bool           // with admission: serve stale plans instead of shedding
	snapshot   []byte         // non-nil: restore this plan-cache snapshot into the self-hosted planner before serving
	executor   *exec.Executor // non-nil: self-host with POST /v1/execute over this executor
}

// loadTarget is a self-hosted server under test plus the client used to
// drive it.
type loadTarget struct {
	url     string
	client  *http.Client
	planner *planner.Planner
	close   func()
}

// startTarget self-hosts the production handler on a loopback listener.
// It uses the exact serve.NewHandler + planner stack dqserve runs, so the
// scenarios drive the real serving path minus only the NIC.
func startTarget(opts loadOpts) (*loadTarget, error) {
	transport := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512}
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	var registry *adapt.Registry
	if opts.adaptive != nil {
		var err error
		if registry, err = adapt.New(*opts.adaptive); err != nil {
			return nil, err
		}
	}
	p := planner.New(planner.Config{Adaptive: registry})
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
// stays light.
const verifyEvery = 8

// solvedProbe is the minimal response decoding target for verification.
type solvedProbe struct {
	Plan    model.Plan `json:"plan"`
	Cost    float64    `json:"cost"`
	Optimal bool       `json:"optimal"`
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

type measureResult struct {
	requests  int64
	verified  int64
	elapsed   time.Duration
	latencies []time.Duration
}

// warmZipf is the skew of the warm windows' picks over corpus ranks.
const warmZipf = 1.2

// warmWindow runs conc closed-loop workers against baseURL's
// /v1/optimize for window, each issuing its next request the moment the
// previous one completes, zipf-picked over the corpus; one response in
// verifyEvery is decoded and held to the corpus oracle.
func warmWindow(client *http.Client, baseURL string, corp *corpus, conc int, window time.Duration, seed int64) (measureResult, error) {
	var (
		wg       sync.WaitGroup
		requests atomic.Int64
		verified atomic.Int64
		firstErr atomic.Pointer[error]
	)
	lat := make([][]time.Duration, conc)
	deadline := time.Now().Add(window)
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1031 + int64(w)))
			zipf := rand.NewZipf(rng, warmZipf, 1, uint64(len(corp.bodies)-1))
			local := make([]time.Duration, 0, 4096)
			for n := 0; time.Now().Before(deadline); n++ {
				idx := int(zipf.Uint64())
				verify := n%verifyEvery == 0
				t0 := time.Now()
				var err error
				if verify {
					var probe solvedProbe
					if probe, err = postV1Optimize(client, baseURL, corp.bodies[idx]); err == nil {
						err = verifySolved(corp, idx, probe)
					}
				} else {
					err = drainV1Optimize(client, baseURL, corp.bodies[idx])
				}
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

func quantileMicros(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i].Nanoseconds()) / 1e3
}
