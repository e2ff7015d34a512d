package planner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"serviceordering/internal/adapt"
	"serviceordering/internal/baseline"
	"serviceordering/internal/core"
	"serviceordering/internal/gen"
	"serviceordering/internal/htier"
	"serviceordering/internal/model"
)

// Tier routing: every query the exact core can represent takes the exact
// search first, under the branch-and-bound member's node budget; a search
// that spends it, sizes at or above a configured threshold, and everything
// past core.MaxServices take the heuristic portfolio. Both tiers flow
// through the cache, the singleflight group, and the tier counters.

func TestTierRouting(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	p := New(Config{})

	small, err := p.Optimize(ctx, testQuery(t, gen.Default(8, 101)))
	if err != nil {
		t.Fatal(err)
	}
	if small.Tier != TierExact {
		t.Fatalf("n=8 tier = %q, want %q", small.Tier, TierExact)
	}
	if !small.Optimal {
		t.Fatalf("exact tier returned non-optimal result")
	}

	mid, err := p.Optimize(ctx, testQuery(t, gen.Default(15, 102)))
	if err != nil {
		t.Fatal(err)
	}
	if mid.Tier != TierExact || !mid.Optimal {
		t.Fatalf("n=15: tier %q optimal %v, want a proven exact answer", mid.Tier, mid.Optimal)
	}

	edge, err := p.Optimize(ctx, testQuery(t, gen.Default(DefaultHeuristicThreshold, 102)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(edge.Tier, "heuristic/") {
		t.Fatalf("n=%d tier = %q, want heuristic/*", DefaultHeuristicThreshold, edge.Tier)
	}

	big, err := p.Optimize(ctx, testQuery(t, gen.Default(128, 103)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(big.Tier, "heuristic/") {
		t.Fatalf("n=128 tier = %q, want heuristic/*", big.Tier)
	}
	if big.Optimal {
		t.Fatalf("n=128 result claims optimality without an exact proof")
	}
	if err := big.Plan.Validate(testQuery(t, gen.Default(128, 103))); err != nil {
		t.Fatalf("n=128 plan invalid: %v", err)
	}

	stats := p.Stats()
	if stats.TierCounts[TierExact] != 2 {
		t.Fatalf("TierCounts[exact] = %d, want 2 (%v)", stats.TierCounts[TierExact], stats.TierCounts)
	}
	var heuristicRuns int64
	for tier, count := range stats.TierCounts {
		if strings.HasPrefix(tier, "heuristic/") {
			heuristicRuns += count
		}
	}
	if heuristicRuns != 2 {
		t.Fatalf("heuristic tier runs = %d, want 2 (%v)", heuristicRuns, stats.TierCounts)
	}
}

func TestTierThresholdOverrides(t *testing.T) {
	t.Parallel()
	ctx := context.Background()

	// A raised threshold keeps mid sizes on the exact tier.
	raised := New(Config{HeuristicThreshold: 40})
	res, err := raised.Optimize(ctx, testQuery(t, gen.Default(15, 104)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierExact {
		t.Fatalf("n=15 with threshold 40: tier %q, want exact", res.Tier)
	}
	// ...but past MaxServices the heuristic tier still applies.
	res, err = raised.Optimize(ctx, testQuery(t, gen.Default(core.MaxServices+1, 105)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Tier, "heuristic/") {
		t.Fatalf("n=%d with threshold 40: tier %q, want heuristic/*", core.MaxServices+1, res.Tier)
	}

	// A lowered threshold routes small sizes to the portfolio.
	lowered := New(Config{HeuristicThreshold: 5})
	res, err = lowered.Optimize(ctx, testQuery(t, gen.Default(6, 106)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Tier, "heuristic/") {
		t.Fatalf("n=6 with threshold 5: tier %q, want heuristic/*", res.Tier)
	}
}

func TestQueryTooLargeSentinel(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	p := New(Config{HeuristicThreshold: -1})

	// Disabled tier: sizes in the exact band still work...
	res, err := p.Optimize(ctx, testQuery(t, gen.Default(10, 107)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierExact {
		t.Fatalf("tier %q, want exact", res.Tier)
	}

	// ...and past the limit the typed sentinel comes back.
	_, err = p.Optimize(ctx, testQuery(t, gen.Default(core.MaxServices+1, 108)))
	if !errors.Is(err, ErrQueryTooLarge) {
		t.Fatalf("error = %v, want ErrQueryTooLarge", err)
	}

	// With the tier enabled (default), the sentinel never fires.
	open := New(Config{})
	if _, err := open.Optimize(ctx, testQuery(t, gen.Default(core.MaxServices+1, 108))); err != nil {
		t.Fatalf("default config rejected n=%d: %v", core.MaxServices+1, err)
	}
}

func TestHeuristicResultsCached(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	searches := 0
	p := New(Config{OnSearch: func(Signature) { searches++ }})
	q := testQuery(t, gen.Default(96, 109))

	first, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatalf("first request reported cached")
	}
	second, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("identical heuristic request was not served from cache")
	}
	if second.Tier != first.Tier {
		t.Fatalf("cached tier %q != original %q", second.Tier, first.Tier)
	}
	if second.Cost != first.Cost {
		t.Fatalf("cached cost %v != original %v", second.Cost, first.Cost)
	}
	if string(second.ResponseFragment) != string(first.ResponseFragment) {
		t.Fatalf("cached fragment differs")
	}
	if searches != 1 {
		t.Fatalf("searches = %d, want 1", searches)
	}
	if !strings.Contains(string(first.ResponseFragment), `"tier":"heuristic/`) {
		t.Fatalf("fragment missing tier: %s", first.ResponseFragment)
	}
}

func TestHeuristicTierHonorsPortfolioOptions(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	// Forcing every member but greedy off pins the winning member label.
	p := New(Config{
		HeuristicThreshold: 5,
		Heuristic: htier.Options{
			BeamWidth:        -1,
			LocalSearchEvals: -1,
			BBNodeBudget:     -1,
		},
	})
	res, err := p.Optimize(ctx, testQuery(t, gen.Default(12, 110)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != "heuristic/"+htier.MemberGreedyEpsilon && res.Tier != "heuristic/"+htier.MemberGreedyTransfer {
		t.Fatalf("tier %q, want a greedy member", res.Tier)
	}
	if res.Optimal {
		t.Fatalf("greedy-only portfolio claimed optimality")
	}
}

// TestRoutingBudgetBoundsTheTail sends the tail instance the unbudgeted
// exact search cannot prove in millions of nodes (proliferative n=14, seed
// 7919·28+14) through the default planner: the exact attempt stops at the
// branch-and-bound member's budget and the portfolio answers, no worse
// than either greedy construction. The answer is cached like any
// heuristic answer.
func TestRoutingBudgetBoundsTheTail(t *testing.T) {
	t.Parallel()
	params := gen.Default(14, 7919*28+14)
	params.ProliferativeFraction = 0.3
	q := testQuery(t, params)
	p := New(Config{})
	ctx := context.Background()

	res, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Tier, tierHeuristicPrefix) || res.Optimal {
		t.Fatalf("tier %q optimal %v, want an unproven heuristic/* answer", res.Tier, res.Optimal)
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	if got := q.Cost(res.Plan); got != res.Cost {
		t.Fatalf("reported cost %v, plan costs %v", res.Cost, got)
	}
	for name, greedy := range map[string]func(*model.Query) (baseline.Result, error){
		"greedy-epsilon":  baseline.GreedyMinEpsilon,
		"greedy-transfer": baseline.GreedyNearestNeighbor,
	} {
		g, err := greedy(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost > g.Cost {
			t.Errorf("cost %v worse than %s's %v", res.Cost, name, g.Cost)
		}
	}
	if nodes := res.Stats.NodesExpanded; nodes <= 0 || nodes > htier.DefaultBBNodeBudget {
		t.Fatalf("exact attempt expanded %d nodes, want within (0, %d]", nodes, htier.DefaultBBNodeBudget)
	}

	again, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Tier != res.Tier || again.Cost != res.Cost {
		t.Fatalf("resubmission: cached %v tier %q cost %v, want the cached %q answer at %v",
			again.Cached, again.Tier, again.Cost, res.Tier, res.Cost)
	}
}

// fallbackQuery is a sequential-size instance whose exact search needs more
// than 64 nodes, and whose portfolio fallback under a 64-node budget keeps
// the exact attempt's incumbent, cold and after a drift replan.
func fallbackQuery(t *testing.T) *model.Query {
	t.Helper()
	params := gen.Default(12, 11)
	params.Heterogeneity, params.SelMin = 1.05, 0.7
	q := testQuery(t, params)
	for i := range q.Services {
		q.Services[i].Name = "fallback-" + string(rune('a'+i))
	}
	return q
}

// TestBudgetFallbackCountsOneSearch: a request whose exact attempt spends
// the routing budget and falls back to the portfolio is one search — one
// Searches, one OnSearch, one tier label, at most one Replans — and its
// node counts include the exact attempt's. A fallback that keeps the
// exact attempt's incumbent reads heuristic/bb: heuristic/seed names a
// stale generation's plan.
func TestBudgetFallbackCountsOneSearch(t *testing.T) {
	t.Parallel()
	const budget = 64
	ctx := context.Background()
	q := fallbackQuery(t)
	reg := adapt.MustNew(adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
	var onSearch atomic.Int64
	p := New(Config{
		Adaptive:  reg,
		Heuristic: htier.Options{BBNodeBudget: budget},
		OnSearch:  func(Signature) { onSearch.Add(1) },
	})

	check := func(name string, want ledger, replanned bool) {
		t.Helper()
		before, beforeSearches := p.Stats(), onSearch.Load()
		res, err := p.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		after := p.Stats()
		if got := ledgerOf(after).minus(ledgerOf(before)); got != want {
			t.Errorf("%s: deltas %+v, want %+v", name, got, want)
		}
		if res.Replanned != replanned {
			t.Errorf("%s: Replanned %v, want %v", name, res.Replanned, replanned)
		}
		if res.Tier != tierHeuristicPrefix+htier.MemberBB || res.Optimal {
			t.Errorf("%s: tier %q optimal %v, want an unproven heuristic/bb answer", name, res.Tier, res.Optimal)
		}
		if got := onSearch.Load() - beforeSearches; got != 1 {
			t.Errorf("%s: OnSearch ran %d times, want 1", name, got)
		}
		if got := after.TierCounts[res.Tier] - before.TierCounts[res.Tier]; got != 1 || len(after.TierCounts) != 1 {
			t.Errorf("%s: tier counts %v (this tier +%d), want one label, +1", name, after.TierCounts, got)
		}
		if res.Stats.NodesExpanded != budget {
			t.Errorf("%s: response nodes %d, want the exact attempt's %d", name, res.Stats.NodesExpanded, budget)
		}
		if got := after.SearchNodes - before.SearchNodes; got != budget {
			t.Errorf("%s: SearchNodes +%d, want +%d", name, got, budget)
		}
	}
	check("cold", ledger{Misses: 1, Searches: 1}, false)
	ledgerDrift(t, reg, q)
	check("replan", ledger{Misses: 1, Touches: 1, Searches: 1, Replans: 1}, true)
}

// TestOnlyTheRoutingBudgetFallsBack: the configured NodeLimit keeps
// today's outcome when it is the tighter budget — an uncached exact
// answer with optimal false — and the routing budget falls back when it
// is. With the heuristic tier disabled there is no routing budget.
func TestOnlyTheRoutingBudgetFallsBack(t *testing.T) {
	t.Parallel()
	q := fallbackQuery(t)
	for _, tc := range []struct {
		name      string
		cfg       Config
		wantTier  string
		wantProof bool
	}{
		{"node-limit tighter", Config{Search: core.Options{NodeLimit: 32}, Heuristic: htier.Options{BBNodeBudget: 64}}, TierExact, false},
		{"node-limit equal", Config{Search: core.Options{NodeLimit: 64}, Heuristic: htier.Options{BBNodeBudget: 64}}, TierExact, false},
		{"routing budget tighter", Config{Search: core.Options{NodeLimit: 1 << 20}, Heuristic: htier.Options{BBNodeBudget: 64}}, tierHeuristicPrefix + htier.MemberBB, false},
		{"exact-only", Config{HeuristicThreshold: -1, Heuristic: htier.Options{BBNodeBudget: 64}}, TierExact, true},
		{"member disabled", Config{Heuristic: htier.Options{BBNodeBudget: -1}}, TierExact, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(tc.cfg)
			res, err := p.Optimize(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Tier != tc.wantTier || res.Optimal != tc.wantProof {
				t.Fatalf("tier %q optimal %v, want %q optimal %v", res.Tier, res.Optimal, tc.wantTier, tc.wantProof)
			}
			again, err := p.Optimize(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if cacheable := res.Optimal || res.Tier != TierExact; again.Cached != cacheable {
				t.Fatalf("resubmission cached %v, want %v", again.Cached, cacheable)
			}
		})
	}
}

// TestBudgetFallbackConcurrent fires concurrent requests whose parallel
// exact searches (n >= DefaultParallelThreshold) spend a small shared node
// budget, some of them for the same query so singleflight and the cache
// take part. Every answer must be a valid plan at its reported cost within
// the budget, and the counters must agree with the answers.
func TestBudgetFallbackConcurrent(t *testing.T) {
	t.Parallel()
	const budget = 256
	qs := make([]*model.Query, 6)
	for i := range qs {
		params := gen.Default(DefaultParallelThreshold+i%4, 9300+int64(i))
		params.ProliferativeFraction = 0.3
		qs[i] = testQuery(t, params)
	}
	var onSearch atomic.Int64
	p := New(Config{
		Heuristic: htier.Options{BBNodeBudget: budget},
		OnSearch:  func(Signature) { onSearch.Add(1) },
	})
	const workers, perWorker = 4, 9
	results := make([][]Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				q := qs[(w+k)%len(qs)]
				res, err := p.Optimize(context.Background(), q)
				if err != nil {
					t.Errorf("worker %d request %d: %v", w, k, err)
					return
				}
				if err := res.Plan.Validate(q); err != nil {
					t.Errorf("worker %d request %d: invalid plan: %v", w, k, err)
				}
				if got := q.Cost(res.Plan); got != res.Cost {
					t.Errorf("worker %d request %d: reported cost %v, plan costs %v", w, k, res.Cost, got)
				}
				if res.Stats.NodesExpanded > budget {
					t.Errorf("worker %d request %d: %d nodes past the %d budget", w, k, res.Stats.NodesExpanded, budget)
				}
				results[w] = append(results[w], res)
			}
		}()
	}
	wg.Wait()

	var nodes, searched, fallbacks int64
	for _, rs := range results {
		for _, res := range rs {
			nodes += res.Stats.NodesExpanded
			if !res.Cached && !res.Shared {
				searched++
			}
			if strings.HasPrefix(res.Tier, tierHeuristicPrefix) && !res.Cached && !res.Shared {
				fallbacks++
			}
		}
	}
	st := p.Stats()
	var tiers int64
	for _, count := range st.TierCounts {
		tiers += count
	}
	if st.Searches != searched || onSearch.Load() != searched || tiers != searched {
		t.Errorf("Searches %d, OnSearch %d, tier counts %d (%v), want %d searched answers",
			st.Searches, onSearch.Load(), tiers, st.TierCounts, searched)
	}
	if st.SearchNodes != nodes {
		t.Errorf("SearchNodes %d, answers report %d", st.SearchNodes, nodes)
	}
	if st.Hits+st.SharedWaits+searched != workers*perWorker {
		t.Errorf("hits %d + shared %d + searched %d != %d requests", st.Hits, st.SharedWaits, searched, workers*perWorker)
	}
	if fallbacks == 0 {
		t.Errorf("no request fell back to the portfolio (tiers %v)", st.TierCounts)
	}
}
