package adapt_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"serviceordering/internal/adapt"
	"serviceordering/internal/exec"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// The replay mirrors dqserve -adaptive -exec-backend mock under a
// /v1/execute workload: 64 n=6-8 queries whose services share names (gen
// names them ws0, ws1, ...), each request planned, executed over 2048
// tuples on the deterministic mock backend and reported to the registry.
const (
	replayCorpus = 64
	replayPrime  = 512
	replayTuples = 2048
)

type replay struct {
	qs  []*model.Query
	rng *rand.Rand
	mb  *exec.MockBackend
	ex  *exec.Executor
	reg *adapt.Registry
	p   *planner.Planner
}

// newReplay builds the corpus and the stack for one seed and primes it:
// every query once, then random draws, as a server's warm-up.
func newReplay(t *testing.T, seed int64) *replay {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rp := &replay{rng: rng, mb: exec.NewMockBackend(1), reg: adapt.MustNew(adapt.Config{})}
	for len(rp.qs) < replayCorpus {
		q, err := gen.Default(6+rng.Intn(3), rng.Int63()).Generate()
		if err != nil {
			t.Fatalf("gen: %v", err)
		}
		rp.qs = append(rp.qs, q)
	}
	rp.mb.DeriveUnknown = true
	rp.ex = exec.New(rp.mb, exec.Options{JitterSeed: 1})
	rp.p = planner.New(planner.Config{Adaptive: rp.reg})
	for i := 0; i < replayPrime; i++ {
		q := i
		if i >= replayCorpus {
			q = rng.Intn(replayCorpus)
		}
		rp.serve(t, q)
	}
	return rp
}

// serve runs one request for query i and reports whether the registry
// published a generation on its report.
func (rp *replay) serve(t *testing.T, i int) bool {
	t.Helper()
	ctx := context.Background()
	q := rp.qs[i]
	res, err := rp.p.Optimize(ctx, q)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	r, err := rp.ex.Execute(ctx, q, res.Plan, exec.Tuples(replayTuples))
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	out, err := rp.reg.Observe(r.Report())
	if err != nil {
		t.Fatalf("observe: %v", err)
	}
	return out.Published
}

// TestStationaryBackendRarelyPublishes: on a backend that never drifts,
// the registry publishes at most one generation per 1000 requests after
// priming. Fitting each report's own selectivity at full weight published
// 191-1268 generations per 24000 requests here; seed 2's window holds two
// publishes, both on ws7, which only the n=8 queries reach.
func TestStationaryBackendRarelyPublishes(t *testing.T) {
	t.Parallel()
	const window = 3000
	for _, seed := range []int64{2, 14, 25} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			rp := newReplay(t, seed)
			before := rp.reg.Stats().DriftEvents
			for i := 0; i < window; i++ {
				rp.serve(t, rp.rng.Intn(replayCorpus))
			}
			if got := rp.reg.Stats().DriftEvents - before; got > window/1000 {
				t.Errorf("%d publishes in %d stationary requests, want at most %d", got, window, window/1000)
			}
		})
	}
}

// TestDriftDetectedWithinBudget: after priming, one service's mock
// selectivity or cost moves; the registry must publish within 32
// requests, and the publish must anchor the moved parameter nearer its
// new truth than the old anchor was.
func TestDriftDetectedWithinBudget(t *testing.T) {
	const budget = 32
	cases := []struct {
		svc       string
		sel, cost float64
	}{
		{"ws4", 0.8, 1},
		{"ws1", 1.15, 1},
		{"ws3", 1.3, 1},
		{"ws0", 1, 1.12},
		{"ws5", 1, 1.5},
	}
	t.Parallel()
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s-sel%v-cost%v", c.svc, c.sel, c.cost), func(t *testing.T) {
			t.Parallel()
			rp := newReplay(t, 25)
			// The mock derives each unregistered service from its name; a probe
			// call recovers the parameters to rescale.
			probe := exec.Tuples(1 << 16)
			res, err := rp.mb.Call(context.Background(), c.svc, probe)
			if err != nil {
				t.Fatalf("probe %s: %v", c.svc, err)
			}
			truth := adapt.ServiceParams{
				Cost:        c.cost * res.Processing.Seconds() / float64(len(probe)),
				Selectivity: c.sel * float64(len(res.Tuples)) / float64(len(probe)),
			}
			rp.mb.SetService(c.svc, exec.MockService{Cost: truth.Cost, Selectivity: truth.Selectivity})
			old := rp.reg.Current().Services[c.svc]
			n := 0
			for n < budget && !rp.serve(t, rp.rng.Intn(replayCorpus)) {
				n++
			}
			if n == budget {
				t.Fatalf("no publish within %d requests", budget)
			}
			got := rp.reg.Current().Services[c.svc]
			moved, want, was := got.Selectivity, truth.Selectivity, old.Selectivity
			if c.cost != 1 {
				moved, want, was = got.Cost, truth.Cost, old.Cost
			}
			if math.Abs(moved-want) >= math.Abs(was-want) {
				t.Errorf("published after %d requests, but the anchor went %v -> %v, not toward %v", n+1, was, moved, want)
			}
		})
	}
}
