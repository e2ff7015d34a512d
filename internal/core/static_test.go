package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

// sortedRootPairs is the reference root-pair order: every feasible
// ordered pair, sorted in full by (cost, a, b). The search once built
// this list before its first node; it now pops the same sequence off a
// heap only as far as it takes it.
func sortedRootPairs(q *model.Query) []rootPair {
	prec := q.CompiledPrecedence()
	var pairs []rootPair
	for a := 0; a < q.N(); a++ {
		if !prec.CanPlace(a, 0) {
			continue
		}
		for b := 0; b < q.N(); b++ {
			if b != a && prec.CanPlace(b, 1<<uint(a)) {
				pairs = append(pairs, rootPair{a: a, b: b, cost: q.PairCost(a, b)})
			}
		}
	}
	slices.SortFunc(pairs, func(x, y rootPair) int {
		if c := cmp.Compare(x.cost, y.cost); c != 0 {
			return c
		}
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})
	return pairs
}

// allTiesQuery has n identical services and a uniform transfer matrix, so
// every root pair costs the same and only (a, b) orders them; edges adds
// a precedence chain 0 -> 1 -> ... -> edges.
func allTiesQuery(n, edges int) *model.Query {
	q := &model.Query{Services: make([]model.Service, n), Transfer: make([][]float64, n)}
	for i := range q.Services {
		q.Services[i] = model.Service{Cost: 1, Selectivity: 1}
		q.Transfer[i] = make([]float64, n)
		for j := range q.Transfer[i] {
			if j != i {
				q.Transfer[i][j] = 0.5
			}
		}
	}
	for k := 0; k < edges && k+1 < n; k++ {
		q.Precedence = append(q.Precedence, [2]int{k, k + 1})
	}
	return q
}

// TestRootPairsPopInSortedOrder: popping every root pair off the prep's
// heap yields exactly the full (cost, a, b) sort, each cost bit for bit
// model.Query.PairCost's though the prep computes it from its own arrays,
// on every differential corpus family and on all-ties instances, with and
// without precedence, at n = 2..20. Each prep goes back to the pool, so
// later ones reuse buffers sized for other n.
func TestRootPairsPopInSortedOrder(t *testing.T) {
	t.Parallel()
	check := func(label string, q *model.Query) {
		t.Helper()
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := sortedRootPairs(q)
		pr := newPrep(q)
		var got []rootPair
		for p, ok := pr.popPair(); ok; p, ok = pr.popPair() {
			got = append(got, p)
		}
		pr.release()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: popped %d pairs %v, want the sorted %d %v", label, len(got), got, len(want), want)
		}
		for i, p := range got {
			if math.Float64bits(p.cost) != math.Float64bits(want[i].cost) {
				t.Fatalf("%s: pair (%d, %d) costs %x, PairCost %x", label, p.a, p.b,
					math.Float64bits(p.cost), math.Float64bits(want[i].cost))
			}
		}
	}
	for n := 2; n <= 20; n++ {
		for _, tc := range differentialCorpus() {
			for rep := 0; rep < 3; rep++ {
				seed := int64(7_000_000 + 1000*n + rep)
				p := gen.Default(n, seed)
				tc.tweak(&p)
				q, err := p.Generate()
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: generate: %v", tc.name, n, seed, err)
				}
				check(fmt.Sprintf("%s n=%d seed=%d", tc.name, n, seed), q)
			}
		}
		check(fmt.Sprintf("all-ties n=%d", n), allTiesQuery(n, 0))
		check(fmt.Sprintf("all-ties+precedence n=%d", n), allTiesQuery(n, n/2))
	}
}
