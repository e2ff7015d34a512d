package core

import (
	"fmt"
	"math"
	"testing"

	"serviceordering/internal/baseline"
	"serviceordering/internal/domtable"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

// This file pins the subset-dominance layer the way PR 2 pinned its
// bounds: dominance-on and dominance-off must prove BIT-IDENTICAL optima
// and the identical plan on every instance family, and a poisoned table
// whose entries carry worse (higher) bounds than any real arrival must
// never change the proven optimum.

// TestDominanceDifferential is the tentpole's correctness gate: across the
// full differential corpus (plain, sink/source, precedence-constrained,
// proliferative, threaded, uniform, clustered), cold and seeded with the
// greedy minimum-epsilon plan through InitialIncumbent, the dominance-on
// search returns the same cost AND plan as dominance-off compared with ==.
func TestDominanceDifferential(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("differential corpus is not -short")
	}
	for _, tc := range differentialCorpus() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{5, 7, 9, 10} {
				for rep := 0; rep < tc.counts/2+1; rep++ {
					seed := int64(7_000_000 + 1000*n + rep)
					p := gen.Default(n, seed)
					tc.tweak(&p)
					q, err := p.Generate()
					if err != nil {
						t.Fatalf("n=%d seed=%d: generate: %v", n, seed, err)
					}
					greedy, err := baseline.GreedyMinEpsilon(q)
					if err != nil {
						t.Fatalf("n=%d seed=%d: greedy: %v", n, seed, err)
					}
					for _, seeded := range []bool{false, true} {
						label := fmt.Sprintf("n=%d seed=%d seeded=%v", n, seed, seeded)
						var base Options
						if seeded {
							base.InitialIncumbent = greedy.Plan
						}
						offOpts := base
						offOpts.DisableDominance = true

						off, err := OptimizeWithOptions(q, offOpts)
						if err != nil {
							t.Fatalf("%s: dominance-off: %v", label, err)
						}
						on, err := OptimizeWithOptions(q, base)
						if err != nil {
							t.Fatalf("%s: dominance-on: %v", label, err)
						}
						if !on.Optimal || !off.Optimal {
							t.Fatalf("%s: optimality not proven (on=%v off=%v)", label, on.Optimal, off.Optimal)
						}
						// Bit-for-bit: == on cost, element equality on plan.
						// The rule is plan-preserving because a
						// dominance-pruned prefix is always visited after
						// the recorded prefix's subtree completed (see
						// dominance.go).
						if on.Cost != off.Cost {
							t.Fatalf("%s: dominance changed the optimum: %v != %v", label, on.Cost, off.Cost)
						}
						if !on.Plan.Equal(off.Plan) {
							t.Fatalf("%s: dominance changed the optimal plan: %v != %v", label, on.Plan, off.Plan)
						}
						if on.Stats.NodesExpanded > off.Stats.NodesExpanded {
							t.Fatalf("%s: dominance EXPANDED the tree: %d > %d nodes",
								label, on.Stats.NodesExpanded, off.Stats.NodesExpanded)
						}
					}
				}
			}
		})
	}
}

// TestDominanceActuallyPrunes guards against the layer silently degrading
// to a no-op: on the hard bench-style instances it must both fire and cut
// the tree by a wide margin.
func TestDominanceActuallyPrunes(t *testing.T) {
	t.Parallel()
	p := gen.Default(12, 20156)
	p.SelMin = 0.85
	q, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	off, err := OptimizeWithOptions(q, Options{DisableDominance: true})
	if err != nil {
		t.Fatal(err)
	}
	on, err := OptimizeWithOptions(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats.DominancePrunes == 0 {
		t.Fatal("no dominance prunes on a hard instance")
	}
	if on.Stats.DominanceOccupancy <= 0 {
		t.Fatalf("occupancy = %v after a hard run", on.Stats.DominanceOccupancy)
	}
	if off.Stats.DominancePrunes != 0 || off.Stats.DominanceOccupancy != 0 {
		t.Fatalf("dominance-off run reported table activity: %+v", off.Stats)
	}
	if on.Stats.NodesExpanded*3 > off.Stats.NodesExpanded {
		t.Fatalf("dominance cut %d -> %d nodes, want at least 3x", off.Stats.NodesExpanded, on.Stats.NodesExpanded)
	}
}

// TestDominancePoisonedTableIsHarmless is the satellite property test: an
// adversarial table pre-seeded with WORSE (strictly higher) bounds than
// any bound a real arrival publishes must never change the proven optimum
// or plan. Worse bounds are the sound direction — a poisoned entry may
// only prune arrivals that a real, explored arrival already dominates —
// and the search must stay exact under them; it is how stale entries
// behave when rho-driven pruning reshapes which prefixes get visited.
func TestDominancePoisonedTableIsHarmless(t *testing.T) {
	t.Parallel()
	for _, tc := range differentialCorpus() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			poisonedRuns := 0
			for rep := 0; rep < 3; rep++ {
				seed := int64(8_000_000 + rep)
				p := gen.Default(8, seed)
				tc.tweak(&p)
				p.SelMin = 0.85 // weak filters keep the tree deep enough to populate the table
				q, err := p.Generate()
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{}
				ref, err := OptimizeWithOptions(q, opts)
				if err != nil {
					t.Fatal(err)
				}

				// Harvest the real table of a completed run, then build a
				// poisoned table carrying every entry's bound scaled UP —
				// still >= the bound of the recorded (explored) arrival, so
				// pruning against it remains justified by that arrival.
				pr := newPrep(q)
				clean := newSearch(pr, opts)
				clean.dom, clean.domBand = newDomTable(q.N(), opts)
				if _, err := clean.run(); err != nil {
					t.Fatal(err)
				}
				poisoned, band := newDomTable(q.N(), opts)
				entries := 0
				clean.dom.Range(func(mask uint64, last int, prod uint64, bound float64) {
					entries++
					worse := bound * (1 + 1e-9)
					if worse == bound {
						worse = math.Nextafter(bound, math.Inf(1))
					}
					poisoned.Update(mask, last, prod, worse)
				})
				if entries == 0 {
					// A search pruned before depth 3 leaves nothing to
					// poison; the run count below catches a corpus where
					// that happens everywhere.
					continue
				}
				poisonedRuns++

				s := newSearch(newPrep(q), opts)
				s.dom, s.domBand = poisoned, band
				res, err := s.run()
				if err != nil {
					t.Fatal(err)
				}
				// The optimum must survive bit-for-bit. The plan may be a
				// different tie: pre-seeded entries can prune the clean
				// run's FIRST arrival at a state (its maxDone exceeds the
				// eventual minimum the poison was derived from), rerouting
				// exploration among equal-cost plans — plan identity is
				// only guaranteed for tables the search populates itself.
				if !res.Optimal || res.Cost != ref.Cost {
					t.Fatalf("seed %d: poisoned table changed the optimum: (%v, optimal=%v) != %v",
						seed, res.Cost, res.Optimal, ref.Cost)
				}
				if err := res.Plan.Validate(q); err != nil {
					t.Fatalf("seed %d: poisoned run returned infeasible plan %v: %v", seed, res.Plan, err)
				}
				if got := q.Cost(res.Plan); got != res.Cost {
					t.Fatalf("seed %d: poisoned run misprices its plan: %v vs %v", seed, got, res.Cost)
				}
			}
			if poisonedRuns == 0 {
				t.Fatal("every clean run left an empty table; the property was never exercised")
			}
		})
	}
}

// TestDominanceMemoryCap pins the cap plumbing: a tiny explicit cap yields
// a tiny table (visible through occupancy reaching high values and the
// search still proving the exact optimum), and an invalid cap is rejected.
func TestDominanceMemoryCap(t *testing.T) {
	t.Parallel()
	p := gen.Default(11, 20156)
	p.SelMin = 0.85
	q, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := OptimizeWithOptions(q, Options{DisableDominance: true})
	if err != nil {
		t.Fatal(err)
	}
	small, err := OptimizeWithOptions(q, Options{DominanceTableBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if small.Cost != ref.Cost || !small.Plan.Equal(ref.Plan) {
		t.Fatalf("capped table changed the outcome: %v/%v vs %v/%v", small.Cost, small.Plan, ref.Cost, ref.Plan)
	}
	if _, err := OptimizeWithOptions(q, Options{DominanceTableBytes: -1}); err == nil {
		t.Fatal("negative DominanceTableBytes accepted")
	}

	// A cap too small for any useful table disables dominance rather than
	// degrading it.
	if tab, band := newDomTable(q.N(), Options{DominanceTableBytes: 1}); tab != nil {
		t.Fatalf("1-byte cap produced a table (band %d)", band)
	}
}

// TestDominanceCrossQueryReuse proves that no dominance state crosses
// queries through domtable's pool. A recycled table still holds the
// entries another query published under its own costs, and one of them
// read as current could prune this query's true optimum, so recycled
// tables must behave exactly like fresh ones. Instances of every corpus
// family at n = 8–14 run back to back (one pool serves every n, so each
// search draws a table the previous query used, whatever its size), first
// in one order and then reversed. In the reversed pass each run follows a
// budget-truncated search of its twin with every cost and transfer
// halved: the twin visits the same states in the same order (selectivity
// products, and so the keys, are unchanged) under bounds exactly half as
// large, and hands back a table its aborted subtree left half-written, so
// any entry of it read as current would prune the run's arrivals. Every
// run must reproduce the plan, cost, node and prune counts and occupancy
// of a run on a fresh cap-sized table exactly.
func TestDominanceCrossQueryReuse(t *testing.T) {
	t.Parallel()
	type instance struct {
		label string
		q     *model.Query
		fresh Result
	}
	var corpus []instance
	for n := 8; n <= 14; n++ {
		for fi, tc := range differentialCorpus() {
			seed := int64(9_000_000 + 1000*n + fi)
			p := gen.Default(n, seed)
			tc.tweak(&p)
			q, err := p.Generate()
			if err != nil {
				t.Fatalf("%s n=%d seed=%d: generate: %v", tc.name, n, seed, err)
			}
			s := newSearch(newPrep(q), Options{})
			s.dom = domtable.New(n, DefaultDominanceTableBytes)
			s.domBand = s.dom.AdmitBand(n)
			fresh, err := s.run()
			if err != nil {
				t.Fatalf("%s n=%d seed=%d: fresh-table run: %v", tc.name, n, seed, err)
			}
			corpus = append(corpus, instance{fmt.Sprintf("%s n=%d seed=%d", tc.name, n, seed), q, fresh})
		}
	}

	check := func(in instance) {
		t.Helper()
		res, err := OptimizeWithOptions(in.q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", in.label, err)
		}
		want := in.fresh
		if res.Cost != want.Cost || !res.Plan.Equal(want.Plan) || res.Optimal != want.Optimal {
			t.Fatalf("%s: recycled table returned %v at %v (optimal=%v), fresh table %v at %v (optimal=%v)",
				in.label, res.Plan, res.Cost, res.Optimal, want.Plan, want.Cost, want.Optimal)
		}
		got, ref := res.Stats, want.Stats
		if got.NodesExpanded != ref.NodesExpanded || got.DominancePrunes != ref.DominancePrunes ||
			got.DominanceOccupancy != ref.DominanceOccupancy {
			t.Fatalf("%s: recycled table expanded %d nodes, %d prunes, occupancy %v; fresh table %d, %d, %v",
				in.label, got.NodesExpanded, got.DominancePrunes, got.DominanceOccupancy,
				ref.NodesExpanded, ref.DominancePrunes, ref.DominanceOccupancy)
		}
	}
	for _, in := range corpus {
		check(in)
	}
	for i := len(corpus) - 1; i >= 0; i-- {
		in := corpus[i]
		if _, err := OptimizeWithOptions(halved(in.q), Options{NodeLimit: 40 + int64(i)}); err != nil {
			t.Fatalf("%s: halved twin: %v", in.label, err)
		}
		check(in)
	}
}

// halved returns q with every service cost and transfer halved and its
// selectivities unchanged.
func halved(q *model.Query) *model.Query {
	h := q.Clone()
	for i := range h.Services {
		h.Services[i].Cost /= 2
	}
	for _, row := range h.Transfer {
		for j := range row {
			row[j] /= 2
		}
	}
	for i := range h.SourceTransfer {
		h.SourceTransfer[i] /= 2
	}
	for i := range h.SinkTransfer {
		h.SinkTransfer[i] /= 2
	}
	return h
}

// TestDominanceGrowthDifferential pins the growable table's exactness in
// the search: on every differentialCorpus family, cold and greedy-seeded,
// a sequential search with the table newDomTable draws (at the pool's
// floor, growing on demand) returns the same plan, cost, optimality and
// Stats as one with domtable.New's table built at the cap. Below n = 14
// the cap is the floor, so the instances are n = 14–16 with weak filters:
// deep trees whose tables grow once, twice or three times, and some evict
// at the cap. A node budget bounds the few that would search for seconds;
// a sequential search stops at the same node on both tables.
func TestDominanceGrowthDifferential(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("differential corpus is not -short")
	}
	floorBytes := domtable.Get(8, DefaultDominanceTableBytes).Bytes()
	for _, tc := range differentialCorpus() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			grew := 0
			for _, n := range []int{14, 15, 16} {
				for rep := 0; rep < 2; rep++ {
					seed := int64(7_000_000 + 1000*n + rep)
					p := gen.Default(n, seed)
					tc.tweak(&p)
					p.SelMin = 0.85
					q, err := p.Generate()
					if err != nil {
						t.Fatalf("n=%d seed=%d: generate: %v", n, seed, err)
					}
					greedy, err := baseline.GreedyMinEpsilon(q)
					if err != nil {
						t.Fatalf("n=%d seed=%d: greedy: %v", n, seed, err)
					}
					for _, seed0 := range []model.Plan{nil, greedy.Plan} {
						label := fmt.Sprintf("n=%d seed=%d seeded=%v", n, seed, seed0 != nil)
						opts := Options{InitialIncumbent: seed0, NodeLimit: 100_000}

						s := newSearch(newPrep(q), opts)
						s.dom, s.domBand = newDomTable(n, opts)
						got, err := s.run()
						if err != nil {
							t.Fatalf("%s: growable table: %v", label, err)
						}
						if s.dom.Bytes() > floorBytes {
							grew++
						}
						domtable.Put(s.dom)

						ref := newSearch(newPrep(q), opts)
						ref.dom = domtable.New(n, DefaultDominanceTableBytes)
						ref.domBand = ref.dom.AdmitBand(n)
						want, err := ref.run()
						if err != nil {
							t.Fatalf("%s: cap-sized table: %v", label, err)
						}
						got.Stats.Elapsed, want.Stats.Elapsed = 0, 0
						if got.Cost != want.Cost || !got.Plan.Equal(want.Plan) || got.Optimal != want.Optimal || got.Stats != want.Stats {
							t.Fatalf("%s: growable table returned %v at %v (optimal=%v, %+v); cap-sized %v at %v (optimal=%v, %+v)",
								label, got.Plan, got.Cost, got.Optimal, got.Stats, want.Plan, want.Cost, want.Optimal, want.Stats)
						}
					}
				}
			}
			if grew == 0 {
				t.Fatal("no run grew its table; the corpus never left the floor")
			}
		})
	}
}
