package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"serviceordering/internal/baseline"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

// The incremental tight bounds (presorted transfer orders walked against
// the placed bitmask) must be BITWISE identical to the O(R^2) reference
// rescans: the search prunes on exact float comparisons, so even a 1-ulp
// difference could change the explored tree. This differential test sweeps
// random and search-shaped prefix states across every instance family and
// compares with ==.

// boundCorpus yields queries across the families whose cost terms differ:
// plain filters, sink/source transfers, proliferative services,
// multi-threaded services.
func boundCorpus(t *testing.T) []*model.Query {
	t.Helper()
	var qs []*model.Query
	for i, tweak := range []func(*gen.Params){
		func(*gen.Params) {},
		func(p *gen.Params) { p.WithSource, p.WithSink = true, true },
		func(p *gen.Params) { p.ProliferativeFraction = 0.4 },
		func(p *gen.Params) { p.MultiThreadFraction = 0.5 },
		func(p *gen.Params) { p.WithSink = true; p.ProliferativeFraction = 0.3; p.MultiThreadFraction = 0.3 },
	} {
		for _, n := range []int{4, 8, 13} {
			p := gen.Default(n, int64(7_000_000+100*i+n))
			tweak(&p)
			q, err := p.Generate()
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			qs = append(qs, q)
		}
	}
	return qs
}

// setPrefix puts s into the prefix state given by plan[:depth] and returns
// the matching pstate. It also cross-checks the flattened-array state
// arithmetic against model.PrefixState: the two engines must agree bit for
// bit on epsilon.
func setPrefix(t *testing.T, s *search, plan []int, depth int) pstate {
	t.Helper()
	s.prefix = s.prefix[:0]
	s.placed = 0
	st := model.EmptyPrefix()
	ps := pstate{}
	for d, svc := range plan[:depth] {
		s.prefix = append(s.prefix, svc)
		s.placed |= 1 << uint(svc)
		st = st.Append(s.q, svc)
		if d == 0 {
			ps = pstate{last: svc, prodBefore: 1, maxDone: s.src[svc], maxDonePos: 0}
		} else {
			ps = s.childState(ps, d, svc)
		}
	}
	wantEps, wantPos := st.EpsilonPos(s.q)
	gotEps, gotPos := s.epsilonPos(ps, depth)
	if gotEps != wantEps || gotPos != wantPos {
		t.Fatalf("prefix %v: core epsilon (%v, %d) != model epsilon (%v, %d)",
			s.prefix, gotEps, gotPos, wantEps, wantPos)
	}
	if got, want := s.completeCost(ps), st.Complete(s.q); got != want {
		t.Fatalf("prefix %v: core complete %v != model complete %v", s.prefix, got, want)
	}
	return ps
}

// checkBoundsEqual compares both incremental bounds against their naive
// reference implementations for the search's current prefix, bit for bit.
// It also checks that closureBar's early-exit decision matches a full
// eps-vs-bar comparison at the prefix's own epsilon.
func checkBoundsEqual(t *testing.T, s *search, ps pstate, depth int, label string) {
	t.Helper()
	rem := s.remaining()
	gotBar := s.epsilonBar(ps, rem)
	wantBar := s.epsilonBarRef(ps, rem)
	if gotBar != wantBar {
		t.Fatalf("%s: epsilonBar %v (bits %x) != reference %v (bits %x)",
			label, gotBar, math.Float64bits(gotBar), wantBar, math.Float64bits(wantBar))
	}
	gotLB := s.completionLB(ps, rem)
	wantLB := s.completionLBRef(ps, rem)
	if gotLB != wantLB {
		t.Fatalf("%s: completionLB %v (bits %x) != reference %v (bits %x)",
			label, gotLB, math.Float64bits(gotLB), wantLB, math.Float64bits(wantLB))
	}
	eps, _ := s.epsilonPos(ps, depth)
	if bar, closed := s.closureBar(eps, ps, rem); closed != (eps >= wantBar) {
		t.Fatalf("%s: closureBar decision %v (bar %v) disagrees with eps %v vs reference bar %v",
			label, closed, bar, eps, wantBar)
	} else if closed && bar != wantBar {
		t.Fatalf("%s: closed bar %v != reference bar %v", label, bar, wantBar)
	}
}

func TestIncrementalBoundsBitwiseEqualReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(424242))
	states := 0
	for qi, q := range boundCorpus(t) {
		s := newSearch(newPrep(q), Options{})

		// Uniformly random prefixes (the bounds are pure arithmetic over
		// the placed mask, so precedence-infeasible prefixes are fair
		// game too).
		for rep := 0; rep < 20; rep++ {
			depth := 1 + rng.Intn(q.N()-1) // >= 1 placed, >= 1 remaining
			ps := setPrefix(t, s, rng.Perm(s.n), depth)
			checkBoundsEqual(t, s, ps, depth, fmt.Sprintf("query %d prefix %v", qi, s.prefix))
			states++
		}

		// Search-shaped prefixes: every prefix of the greedy
		// minimum-epsilon plan, i.e. states an actual descent visits.
		if g, err := baseline.GreedyMinEpsilon(q); err == nil {
			for depth := 1; depth < len(g.Plan); depth++ {
				ps := setPrefix(t, s, g.Plan, depth)
				checkBoundsEqual(t, s, ps, depth, fmt.Sprintf("query %d greedy prefix %v", qi, s.prefix))
				states++
			}
		}
	}
	if states < 200 {
		t.Fatalf("compared %d prefix states, want >= 200", states)
	}
}

// TestLooseBoundsUnchanged pins the LooseBounds ablation path: it must use
// the all-services extrema exactly as before, which on a fresh prefix with
// everything else unplaced coincides with the tight bound only when the
// extrema agree — so instead we assert the loose bar never undercuts the
// tight bar (looser = larger epsilonBar, smaller completionLB).
func TestLooseBoundsUnchanged(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(9494))
	for qi, q := range boundCorpus(t) {
		tight := newSearch(newPrep(q), Options{})
		loose := newSearch(newPrep(q), Options{LooseBounds: true})
		for rep := 0; rep < 10; rep++ {
			depth := 1 + rng.Intn(q.N()-1)
			perm := rng.Perm(q.N())
			psT := setPrefix(t, tight, perm, depth)
			psL := setPrefix(t, loose, perm, depth)
			remT := tight.remaining()
			remL := loose.remaining()
			if lb, tb := loose.epsilonBar(psL, remL), tight.epsilonBar(psT, remT); lb < tb {
				t.Fatalf("query %d prefix %v: loose epsilonBar %v < tight %v", qi, tight.prefix, lb, tb)
			}
			if llb, tlb := loose.completionLB(psL, remL), tight.completionLB(psT, remT); llb > tlb {
				t.Fatalf("query %d prefix %v: loose completionLB %v > tight %v", qi, tight.prefix, llb, tlb)
			}
		}
	}
}
