package planner

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/baseline"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

// Tier routing: every query the exact core can represent takes the exact
// search first, under the node budget; a search that spends it, and
// everything past core.MaxServices, take the heuristic portfolio. Both
// tiers flow through the cache, the singleflight group, and the tier
// counters.

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

// TestRoutingBudgetBoundsTheTail sends the tail instance through the
// default planner: the exact attempt stops at DefaultNodeLimit and the
// portfolio answers, no worse than either greedy construction. The answer
// is cached like any heuristic answer.
func TestRoutingBudgetBoundsTheTail(t *testing.T) {
	t.Parallel()
	q := tailQuery(t)
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
	if nodes := res.Stats.NodesExpanded; nodes <= 0 || nodes > DefaultNodeLimit {
		t.Fatalf("exact attempt expanded %d nodes, want within (0, %d]", nodes, DefaultNodeLimit)
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

// tailQuery is the tail instance (proliferative n=14, seed 7919·28+14):
// its exact search runs for seconds, millions of nodes, without a budget.
func tailQuery(t *testing.T) *model.Query {
	t.Helper()
	params := gen.Default(14, 7919*28+14)
	params.ProliferativeFraction = 0.3
	return testQuery(t, params)
}

// truncatedQuery needs about 5000 nodes to prove, past the search's first
// clock poll at node 1024, so a 1 ns time limit stops every search of it
// unproven.
func truncatedQuery(t *testing.T) *model.Query {
	t.Helper()
	params := gen.Default(12, 20156)
	params.SelMin = 0.85
	return testQuery(t, params)
}

// fallbackQuery is an instance whose exact search needs 459 nodes, and
// whose portfolio fallback under a 64-node budget keeps the exact
// attempt's incumbent, cold and after a drift replan.
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
// the node budget and falls back to the portfolio is one search — one
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
		NodeLimit: budget,
		Adaptive:  reg,
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
		if res.Tier != tierIncumbent || res.Optimal {
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

// TestOnlyTheRoutingBudgetFallsBack: whatever Config.NodeLimit is, a
// search that spends it falls back to the portfolio, and the fallback is
// cached, so ten sends of one query run one search. No node limit proves.
// A time limit answers the unproven exact incumbent, uncached, so every
// send searches again.
func TestOnlyTheRoutingBudgetFallsBack(t *testing.T) {
	t.Parallel()
	const sends = 10
	for _, tc := range []struct {
		name      string
		q         *model.Query
		cfg       Config
		fallback  bool // heuristic/*, not exact
		wantProof bool
	}{
		{"node-limit 32", fallbackQuery(t), Config{NodeLimit: 32}, true, false},
		{"node-limit 64", fallbackQuery(t), Config{NodeLimit: 64}, true, false},
		{"tail node-limit 100000", tailQuery(t), Config{NodeLimit: 100000}, true, false},
		{"tail node-limit 1048576", tailQuery(t), Config{NodeLimit: 1 << 20}, true, false},
		{"no node limit", fallbackQuery(t), Config{NodeLimit: -1}, false, true},
		{"time limit 1ns", truncatedQuery(t), Config{TimeLimit: time.Nanosecond}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(tc.cfg)
			res, err := p.Optimize(context.Background(), tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(res.Tier, tierHeuristicPrefix) != tc.fallback || res.Optimal != tc.wantProof {
				t.Fatalf("tier %q optimal %v, want fallback %v optimal %v", res.Tier, res.Optimal, tc.fallback, tc.wantProof)
			}
			if tc.cfg.NodeLimit > 0 && res.Stats.NodesExpanded != tc.cfg.NodeLimit {
				t.Fatalf("exact attempt expanded %d nodes, want the whole %d budget", res.Stats.NodesExpanded, tc.cfg.NodeLimit)
			}
			for i := 1; i < sends; i++ {
				again, err := p.Optimize(context.Background(), tc.q)
				if err != nil {
					t.Fatal(err)
				}
				if again.Tier != res.Tier || again.Cost != res.Cost {
					t.Fatalf("send %d: tier %q cost %v, want %q at %v", i, again.Tier, again.Cost, res.Tier, res.Cost)
				}
			}
			wantSearches, wantHits := int64(1), int64(sends-1)
			if !tc.fallback && !tc.wantProof {
				wantSearches, wantHits = sends, 0
			}
			if st := p.Stats(); st.Searches != wantSearches || st.Hits != wantHits {
				t.Fatalf("%d sends: %d searches, %d hits, want %d and %d", sends, st.Searches, st.Hits, wantSearches, wantHits)
			}
		})
	}
}

// TestBudgetFallbackConcurrent fires concurrent requests whose exact
// searches (n = 13–16) spend a small node budget, some of them for the
// same query so singleflight and the cache take part. Every answer must be a valid plan at its reported cost within
// the budget, and the counters must agree with the answers.
func TestBudgetFallbackConcurrent(t *testing.T) {
	t.Parallel()
	const budget = 256
	qs := make([]*model.Query, 6)
	for i := range qs {
		params := gen.Default(13+i%4, 9300+int64(i))
		params.ProliferativeFraction = 0.3
		qs[i] = testQuery(t, params)
	}
	var onSearch atomic.Int64
	p := New(Config{NodeLimit: budget, OnSearch: func(Signature) { onSearch.Add(1) }})
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

// TestHeuristicRouteGoldens pins the planner's answers on the heuristic
// route. Its exact search is sequential, and a node budget stops a
// sequential search at the same node every run, so they reproduce bit
// for bit: the tail instance (under the default budget) and fallbackQuery
// (under a 64-node budget) fall back from a spent exact attempt, and n=65
// and n=128 go straight to the portfolio.
func TestHeuristicRouteGoldens(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name     string
		q        *model.Query
		budget   int64 // Config.NodeLimit; 0 keeps the default
		tier     string
		costBits uint64
		plan     model.Plan
	}{
		{"tail", tailQuery(t), 0, "heuristic/local-search", 0x3ff075b870a17eac,
			model.Plan{2, 8, 1, 7, 4, 0, 11, 5, 3, 10, 13, 12, 6, 9}},
		{"fallback", fallbackQuery(t), 64, "heuristic/bb", 0x3fe1da17ee68cb9d,
			model.Plan{2, 7, 11, 5, 4, 1, 6, 10, 9, 0, 3, 8}},
		{"n=65", testQuery(t, gen.Default(65, 65)), 0, "heuristic/greedy-epsilon", 0x3fb7d251c1b87e6e,
			model.Plan{16, 60, 4, 0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 61, 62, 63, 64}},
		{"n=128", testQuery(t, gen.Default(128, 128)), 0, "heuristic/greedy-epsilon", 0x3fb6289e8a40d7fa,
			model.Plan{1, 14, 58, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116, 117, 118, 119, 120, 121, 122, 123, 124, 125, 126, 127}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := New(Config{NodeLimit: tc.budget}).Optimize(context.Background(), tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Tier != tc.tier || math.Float64bits(res.Cost) != tc.costBits || !slices.Equal(res.Plan, tc.plan) || res.Optimal {
				t.Fatalf("tier %q cost bits %#x optimal %v plan %v, want %q %#x false %v",
					res.Tier, math.Float64bits(res.Cost), res.Optimal, res.Plan, tc.tier, tc.costBits, tc.plan)
			}
		})
	}
}
