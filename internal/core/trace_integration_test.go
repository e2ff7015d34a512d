package core_test

import (
	"math/rand"
	"strings"
	"testing"

	"serviceordering/internal/core"
	"serviceordering/internal/trace"
)

// TestTracerMatchesStats cross-checks the trace event counts against the
// search's own counters: the two instrumentation paths must agree.
func TestTracerMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		q := randInstance(rng, 8, instanceKind{filtersOnly: trial%2 == 0})
		rec, err := trace.NewRecorder(1 << 20)
		if err != nil {
			t.Fatalf("NewRecorder: %v", err)
		}
		res, err := core.OptimizeWithOptions(q, core.Options{Tracer: rec})
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		st := res.Stats
		if got := rec.Count(trace.KindPairStart); got != st.PairsTried {
			t.Errorf("trial %d: pair-start events %d != PairsTried %d", trial, got, st.PairsTried)
		}
		if got := rec.Count(trace.KindClosure); got != st.Closures {
			t.Errorf("trial %d: closure events %d != Closures %d", trial, got, st.Closures)
		}
		if got := rec.Count(trace.KindVJump); got != st.VJumps {
			t.Errorf("trial %d: v-jump events %d != VJumps %d", trial, got, st.VJumps)
		}
		if got := rec.Count(trace.KindPruneIncumbent); got != st.IncumbentPrunes {
			t.Errorf("trial %d: prune events %d != IncumbentPrunes %d", trial, got, st.IncumbentPrunes)
		}
		if got := rec.Count(trace.KindIncumbent); got != st.IncumbentUpdates {
			t.Errorf("trial %d: incumbent events %d != IncumbentUpdates %d", trial, got, st.IncumbentUpdates)
		}
		if got := rec.Count(trace.KindPruneDominance); got != st.DominancePrunes {
			t.Errorf("trial %d: dominance events %d != DominancePrunes %d", trial, got, st.DominancePrunes)
		}
	}
}

func TestTracerStrongLBEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	q := randInstance(rng, 9, instanceKind{filtersOnly: true})
	rec, err := trace.NewRecorder(1 << 16)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	res, err := core.OptimizeWithOptions(q, core.Options{Tracer: rec, StrongLowerBound: true})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if got := rec.Count(trace.KindPruneStrongLB); got != res.Stats.StrongLBPrunes {
		t.Errorf("strong-lb events %d != StrongLBPrunes %d", got, res.Stats.StrongLBPrunes)
	}
}

func TestTracerRenderReadable(t *testing.T) {
	q := fixture3(t)
	rec, err := trace.NewRecorder(64)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	if _, err := core.OptimizeWithOptions(q, core.Options{Tracer: rec}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	var b strings.Builder
	if err := rec.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(b.String(), "pair-start") {
		t.Errorf("trace render missing pair-start:\n%s", b.String())
	}
}

// TestTracerDoesNotChangeSearch guards against instrumentation affecting
// the search: identical plans and node counts with and without a tracer.
func TestTracerDoesNotChangeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 5; trial++ {
		q := randInstance(rng, 7, instanceKind{})
		plain, err := core.Optimize(q)
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		rec, err := trace.NewRecorder(1024)
		if err != nil {
			t.Fatalf("NewRecorder: %v", err)
		}
		traced, err := core.OptimizeWithOptions(q, core.Options{Tracer: rec})
		if err != nil {
			t.Fatalf("Optimize traced: %v", err)
		}
		if !plain.Plan.Equal(traced.Plan) || plain.Stats.NodesExpanded != traced.Stats.NodesExpanded {
			t.Fatalf("tracing changed the search: %v/%d vs %v/%d",
				plain.Plan, plain.Stats.NodesExpanded, traced.Plan, traced.Stats.NodesExpanded)
		}
	}
}
