package planner

import (
	"context"
	"math"
	"reflect"
	"testing"

	"serviceordering/internal/adapt"
	"serviceordering/internal/core"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

// The adaptive replanning loop at the planner layer: generation-stamped
// plan-cache and memo entries, lazy invalidation on drift publishes,
// incumbent-seeded re-optimization, and the no-registry path staying
// byte-identical to the pre-adaptive planner.

// namedQuery generates a query and gives its services unique names so the
// adaptive registry's name matching is under test control.
func namedQuery(t *testing.T, n int, seed int64, prefix string) *model.Query {
	t.Helper()
	q := testQuery(t, gen.Default(n, seed))
	for i := range q.Services {
		q.Services[i].Name = prefix + string(rune('a'+i))
	}
	return q
}

// driftReport synthesizes one noise-free execution report of truth along
// plan (tuple flow follows the selectivities, busy times the per-tuple
// parameters).
func driftReport(q *model.Query, plan model.Plan, tuples int64) *adapt.Report {
	rep := &adapt.Report{}
	in := tuples
	for pos, s := range plan {
		if in <= 0 {
			break // starved tail: nothing flowed, nothing to observe
		}
		svc := q.Services[s]
		out := int64(math.Round(float64(in) * svc.Selectivity))
		rep.Services = append(rep.Services, adapt.ServiceObservation{
			Name:           svc.Name,
			TuplesIn:       in,
			TuplesOut:      out,
			BusyProcessing: svc.Cost * float64(in),
		})
		if pos+1 < len(plan) && out > 0 {
			rep.Transfers = append(rep.Transfers, adapt.TransferObservation{
				From:        svc.Name,
				To:          q.Services[plan[pos+1]].Name,
				Tuples:      out,
				BusySending: q.Transfer[s][plan[pos+1]] * float64(out),
			})
		}
		in = out
	}
	return rep
}

// observeCovering feeds reports of truth along every plan of a covering
// set (identity rotations suffice: plan i starts at service i) so every
// directed edge gets observed.
func observeCovering(t *testing.T, reg *adapt.Registry, truth *model.Query, rounds int) {
	t.Helper()
	n := truth.N()
	for r := 0; r < rounds; r++ {
		for s := 0; s < n; s++ {
			plan := make(model.Plan, n)
			for i := range plan {
				plan[i] = (s + i) % n
			}
			if _, err := reg.Observe(driftReport(truth, plan, 100000)); err != nil {
				t.Fatalf("observe: %v", err)
			}
		}
	}
}

// TestAdaptiveReplanOnDrift is the planner-level loop test: serve, drift,
// detect the stale generation, replan from the incumbent, re-cache, serve
// warm again.
func TestAdaptiveReplanOnDrift(t *testing.T) {
	t.Run("clock", func(t *testing.T) {
		reg := adapt.MustNew(adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
		p := New(Config{Adaptive: reg})
		q := namedQuery(t, 8, 511, "svc-")
		ctx := context.Background()

		first, err := p.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := p.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Cached || warm.Signature != first.Signature {
			t.Fatalf("pre-drift warm hit: cached=%v", warm.Cached)
		}

		// The deployed services drift: double every cost, halve one
		// selectivity.
		truth := q.Clone()
		for i := range truth.Services {
			truth.Services[i].Cost *= 2
		}
		truth.Services[0].Selectivity *= 0.5
		observeCovering(t, reg, truth, 1)
		if reg.Generation() == 0 {
			t.Fatal("drift observations did not publish a generation")
		}

		replanned, err := p.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if replanned.Cached || replanned.Shared {
			t.Fatalf("post-drift request served stale: cached=%v shared=%v", replanned.Cached, replanned.Shared)
		}
		if !replanned.Replanned {
			t.Fatal("post-drift search was not seeded from the incumbent plan")
		}
		if replanned.Signature == first.Signature {
			t.Fatal("effective signature unchanged although overlay parameters drifted")
		}

		// The replanned result is exactly the optimum of the overlaid
		// query.
		eff, changed := reg.Current().Overlay(q)
		if !changed {
			t.Fatal("published snapshot does not overlay the query")
		}
		want, err := core.Optimize(eff)
		if err != nil {
			t.Fatal(err)
		}
		if replanned.Cost != want.Cost {
			t.Fatalf("replanned cost %v, overlaid optimum %v", replanned.Cost, want.Cost)
		}
		if got := eff.Cost(replanned.Plan); got != want.Cost {
			t.Fatalf("replanned plan evaluates to %v on the overlaid query, want %v", got, want.Cost)
		}

		// The replan was re-cached under the new generation.
		again, err := p.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached || again.Signature != replanned.Signature {
			t.Fatalf("post-replan request missed the refreshed cache: cached=%v", again.Cached)
		}

		st := p.Stats()
		if st.Generation == 0 || st.Replans == 0 {
			t.Fatalf("stats did not record the loop: generation %d, replans %d", st.Generation, st.Replans)
		}
	})
}

// TestAdaptiveUntrackedQueryReplansOnce: a query whose service names the
// registry has never observed keeps its effective signature across a
// generation bump (the overlay is a no-op), so the bump invalidates its
// entry in place — one incumbent-seeded replan reproducing the identical
// plan, then warm hits again.
func TestAdaptiveUntrackedQueryReplansOnce(t *testing.T) {
	t.Parallel()
	reg := adapt.MustNew(adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
	p := New(Config{Adaptive: reg})
	tracked := namedQuery(t, 6, 900, "tracked-")
	untracked := namedQuery(t, 8, 901, "untracked-")
	ctx := context.Background()

	first, err := p.Optimize(ctx, untracked)
	if err != nil {
		t.Fatal(err)
	}
	// Drift only the tracked services.
	truth := tracked.Clone()
	for i := range truth.Services {
		truth.Services[i].Cost *= 3
	}
	observeCovering(t, reg, truth, 1)
	if reg.Generation() == 0 {
		t.Fatal("no publish")
	}

	replanned, err := p.Optimize(ctx, untracked)
	if err != nil {
		t.Fatal(err)
	}
	if replanned.Cached {
		t.Fatal("stale-generation entry served as a fresh hit")
	}
	if !replanned.Replanned {
		t.Fatal("same-signature stale entry did not seed the replan")
	}
	if replanned.Signature != first.Signature {
		t.Fatal("untracked query's effective signature changed")
	}
	if !reflect.DeepEqual(replanned.Plan, first.Plan) || replanned.Cost != first.Cost {
		t.Fatalf("untracked replan changed the outcome: %v/%v -> %v/%v", first.Plan, first.Cost, replanned.Plan, replanned.Cost)
	}
	warm, err := p.Optimize(ctx, untracked)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("untracked query not re-cached under the new generation")
	}
}

// TestAdaptiveCacheMatchesModel feeds one planner an interleaved
// request/observation trace across three drift phases and checks every
// outcome against a map model of the generation-stamped cache: a request
// hits exactly when the model holds its effective signature at the
// registry's current generation, every miss after the first is an
// incumbent-seeded replan, and every answer is the optimum of the
// registry's overlay.
func TestAdaptiveCacheMatchesModel(t *testing.T) {
	t.Parallel()
	reg := adapt.MustNew(adapt.Config{Alpha: 0.5, MinObservations: 2, DriftDelta: 0.05})
	p := New(Config{Adaptive: reg})
	q := namedQuery(t, 7, 2024, "d-")
	ctx := context.Background()
	stamps := map[Signature]uint64{} // effective signature -> generation it was cached under

	var hits, misses, replans int64
	phases := []float64{1, 1.6, 0.7} // cost multipliers per drift phase
	for _, scale := range phases {
		truth := q.Clone()
		for i := range truth.Services {
			truth.Services[i].Cost *= scale
		}
		for round := 0; round < 3; round++ {
			observeCovering(t, reg, truth, 1)
			gen := reg.Generation()
			r, err := p.Optimize(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			stamp, ok := stamps[r.Signature]
			wantCached := ok && stamp == gen
			wantReplanned := !wantCached && hits+misses > 0
			if r.Cached != wantCached || r.Replanned != wantReplanned {
				t.Fatalf("scale %v round %d: cached=%v replanned=%v, model says cached=%v replanned=%v",
					scale, round, r.Cached, r.Replanned, wantCached, wantReplanned)
			}
			stamps[r.Signature] = gen
			if r.Cached {
				hits++
			} else {
				misses++
			}
			if r.Replanned {
				replans++
			}
			eff, _ := reg.Current().Overlay(q)
			want, err := core.Optimize(eff)
			if err != nil {
				t.Fatal(err)
			}
			if r.Cost != want.Cost {
				t.Fatalf("scale %v round %d: cost %v, overlay optimum %v", scale, round, r.Cost, want.Cost)
			}
		}
	}
	st := p.Stats()
	if st.Generation != reg.Generation() || st.Replans != replans || st.Hits != hits || st.Misses != misses {
		t.Fatalf("stats gen=%d replans=%d %d/%d, model gen=%d replans=%d %d/%d",
			st.Generation, st.Replans, st.Hits, st.Misses, reg.Generation(), replans, hits, misses)
	}
	if st.Generation == 0 || st.Replans == 0 {
		t.Fatalf("trace exercised no drift: gen %d, replans %d", st.Generation, st.Replans)
	}
}

// TestAdaptiveWarmHitAllocs pins the warm-hit budget with the adaptive
// loop enabled: the generation machinery costs one atomic snapshot load
// and two stamp compares, never an allocation.
func TestAdaptiveWarmHitAllocs(t *testing.T) {
	t.Run("clock", func(t *testing.T) {
		reg := adapt.MustNew(adapt.Config{})
		p := New(Config{Adaptive: reg})
		q := namedQuery(t, 10, 424243, "alloc-")
		ctx := context.Background()
		if _, err := p.Optimize(ctx, q); err != nil {
			t.Fatal(err)
		}
		warm, err := p.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Cached {
			t.Fatal("second request not served from cache")
		}
		allocs := testing.AllocsPerRun(300, func() {
			res, err := p.Optimize(ctx, q)
			if err != nil || !res.Cached {
				t.Fatalf("warm hit failed mid-measurement: err=%v cached=%v", err, res.Cached)
			}
		})
		if allocs > warmHitAllocBudget {
			t.Errorf("adaptive warm-hit Optimize allocates %.1f/op, budget %d", allocs, warmHitAllocBudget)
		}
	})
}

// TestAdaptiveZeroStaleAfterPublish: after a generation publish, no
// request may return a plan from the stale generation — every response is
// either a replan or a hit on an entry recorded at the current generation.
func TestAdaptiveZeroStaleAfterPublish(t *testing.T) {
	t.Parallel()
	reg := adapt.MustNew(adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.02})
	p := New(Config{Adaptive: reg})
	q := namedQuery(t, 8, 313, "z-")
	ctx := context.Background()
	if _, err := p.Optimize(ctx, q); err != nil {
		t.Fatal(err)
	}

	truth := q.Clone()
	for i := range truth.Services {
		truth.Services[i].Cost *= 4
	}
	observeCovering(t, reg, truth, 2)
	gen := reg.Generation()
	if gen == 0 {
		t.Fatal("no publish")
	}
	eff, _ := reg.Current().Overlay(q)
	want, err := core.Optimize(eff)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := p.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != want.Cost {
			t.Fatalf("request %d after publish returned cost %v, post-drift optimum %v (stale generation served)", i, res.Cost, want.Cost)
		}
		if i > 0 && !res.Cached {
			t.Fatalf("request %d missed although generation %d is stable", i, gen)
		}
	}
	if got := reg.Generation(); got != gen {
		t.Fatalf("generation moved (%d -> %d) without observations", gen, got)
	}
}

// TestMemoKeyCoversNames: the adaptive overlay reprices services by name,
// so two queries with equal numbers and different names can have
// different effective queries, and the canonicalization memo must not
// answer one with the other's mapping. After a drift publish for the svc-
// services, the same numbers under the untracked zz- names are answered
// with their own optimum, whichever query arrives first, and each then
// hits its own entry.
func TestMemoKeyCoversNames(t *testing.T) {
	t.Parallel()
	for _, trackedFirst := range []bool{true, false} {
		reg := adapt.MustNew(adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
		p := New(Config{Adaptive: reg})
		tracked := namedQuery(t, 8, 511, "svc-")
		renamed := namedQuery(t, 8, 511, "zz-")
		truth := tracked.Clone()
		for i := range truth.Services {
			truth.Services[i].Cost *= 2
		}
		truth.Services[0].Selectivity *= 0.5
		observeCovering(t, reg, truth, 1)
		if reg.Generation() == 0 {
			t.Fatal("drift observations did not publish a generation")
		}

		queries := []*model.Query{tracked, renamed}
		if !trackedFirst {
			queries[0], queries[1] = renamed, tracked
		}
		var sigs [2]Signature
		for round := 0; round < 2; round++ {
			for i, q := range queries {
				res, err := p.Optimize(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				eff, _ := reg.Current().Overlay(q)
				want, err := core.Optimize(eff)
				if err != nil {
					t.Fatal(err)
				}
				name := q.Services[0].Name
				if res.Cost != want.Cost || eff.Cost(res.Plan) != want.Cost {
					t.Fatalf("trackedFirst=%v round %d, %s: cost %v, plan %v costs %v on its own query, optimum %v",
						trackedFirst, round, name, res.Cost, res.Plan, eff.Cost(res.Plan), want.Cost)
				}
				if res.Cached != (round == 1) {
					t.Fatalf("trackedFirst=%v round %d, %s: cached=%v", trackedFirst, round, name, res.Cached)
				}
				sigs[i] = res.Signature
			}
		}
		if sigs[0] == sigs[1] {
			t.Fatalf("trackedFirst=%v: the tracked and renamed queries share signature %s", trackedFirst, sigs[0])
		}
	}
}
