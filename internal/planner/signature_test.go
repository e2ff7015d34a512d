package planner

import (
	"math/rand"
	"runtime"
	"testing"

	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

// permuteQuery relabels q's services by perm (perm[new] = old index),
// producing a structurally identical query under a different numbering.
func permuteQuery(q *model.Query, perm []int) *model.Query {
	n := q.N()
	out := &model.Query{
		Services: make([]model.Service, n),
		Transfer: make([][]float64, n),
	}
	inv := make([]int, n)
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = newIdx
		out.Services[newIdx] = q.Services[oldIdx]
	}
	for a := 0; a < n; a++ {
		out.Transfer[a] = make([]float64, n)
		for b := 0; b < n; b++ {
			out.Transfer[a][b] = q.Transfer[perm[a]][perm[b]]
		}
	}
	if q.SourceTransfer != nil {
		out.SourceTransfer = make([]float64, n)
		for a := 0; a < n; a++ {
			out.SourceTransfer[a] = q.SourceTransfer[perm[a]]
		}
	}
	if q.SinkTransfer != nil {
		out.SinkTransfer = make([]float64, n)
		for a := 0; a < n; a++ {
			out.SinkTransfer[a] = q.SinkTransfer[perm[a]]
		}
	}
	for _, e := range q.Precedence {
		out.Precedence = append(out.Precedence, [2]int{inv[e[0]], inv[e[1]]})
	}
	return out
}

func testQuery(t *testing.T, p gen.Params) *model.Query {
	t.Helper()
	q, err := p.Generate()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return q
}

func TestSignaturePermutationInvariant(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for seed := int64(0); seed < 30; seed++ {
		p := gen.Default(7, 5000+seed)
		switch seed % 3 {
		case 1:
			p.WithSource, p.WithSink = true, true
		case 2:
			p.PrecedenceEdges = 3
		}
		q := testQuery(t, p)
		base := canonicalize(q)
		for trial := 0; trial < 5; trial++ {
			perm := rng.Perm(q.N())
			pq := permuteQuery(q, perm)
			if err := pq.Validate(); err != nil {
				t.Fatalf("seed %d: permuted query invalid: %v", seed, err)
			}
			got := canonicalize(pq)
			if got.sig != base.sig {
				t.Fatalf("seed %d trial %d: signature not invariant under permutation %v:\n  base %s\n  got  %s",
					seed, trial, perm, base.sig, got.sig)
			}
		}
	}
}

func TestSignatureDistinguishesStructure(t *testing.T) {
	t.Parallel()
	q := testQuery(t, gen.Default(6, 99))
	base := canonicalize(q).sig

	mutations := []func(*model.Query){
		func(m *model.Query) { m.Services[2].Cost *= 1.0000001 },
		func(m *model.Query) { m.Services[4].Selectivity *= 0.999 },
		func(m *model.Query) { m.Services[0].Threads = 4 },
		func(m *model.Query) { m.Transfer[1][3] += 1e-9 },
		func(m *model.Query) { m.Precedence = append(m.Precedence, [2]int{0, 5}) },
		func(m *model.Query) { m.SinkTransfer = make([]float64, m.N()); m.SinkTransfer[1] = 0.5 },
		func(m *model.Query) { m.SourceTransfer = make([]float64, m.N()); m.SourceTransfer[3] = 0.2 },
	}
	for i, mutate := range mutations {
		mq := q.Clone()
		mutate(mq)
		if got := canonicalize(mq).sig; got == base {
			t.Errorf("mutation %d: signature unchanged, want distinct", i)
		}
	}
}

func TestSignatureIgnoresNames(t *testing.T) {
	t.Parallel()
	q := testQuery(t, gen.Default(5, 17))
	base := canonicalize(q).sig
	named := q.Clone()
	for i := range named.Services {
		named.Services[i].Name = "renamed"
	}
	if got := canonicalize(named).sig; got != base {
		t.Fatalf("signature changed with names: %s vs %s", got, base)
	}
}

// TestSignatureAutomorphicTies exercises the tie-break enumeration: a query
// with two fully interchangeable services (same parameters, symmetric
// transfer structure) must canonicalize identically however they are
// numbered.
func TestSignatureAutomorphicTies(t *testing.T) {
	t.Parallel()
	q := &model.Query{
		Services: []model.Service{
			{Cost: 1, Selectivity: 0.5},
			{Cost: 1, Selectivity: 0.5},
			{Cost: 2, Selectivity: 0.9},
		},
		Transfer: [][]float64{
			{0, 0.3, 0.7},
			{0.3, 0, 0.7},
			{0.7, 0.7, 0},
		},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	base := canonicalize(q)
	swapped := permuteQuery(q, []int{1, 0, 2})
	if got := canonicalize(swapped); got.sig != base.sig {
		t.Fatalf("automorphic relabeling changed signature: %s vs %s", got.sig, base.sig)
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	t.Parallel()
	q := testQuery(t, gen.Default(8, 3))
	c := canonicalize(q)
	plan := model.IdentityPlan(q.N())
	back := c.fromCanonical(c.toCanonical(plan))
	if !back.Equal(plan) {
		t.Fatalf("round trip %v != %v", back, plan)
	}
	// Permutation is a bijection over 0..n-1.
	seen := make([]bool, q.N())
	for _, o := range c.perm {
		if o < 0 || o >= q.N() || seen[o] {
			t.Fatalf("perm %v is not a permutation", c.perm)
		}
		seen[o] = true
	}
}

// TestCanonicalCostPreserving checks the load-bearing property of the whole
// cache: a plan relabeled between two isomorphic queries has the same cost
// on each.
func TestCanonicalCostPreserving(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 20; seed++ {
		p := gen.Default(6, 9000+seed)
		if seed%2 == 1 {
			p.WithSink = true
		}
		q := testQuery(t, p)
		cq := canonicalize(q)
		perm := rng.Perm(q.N())
		pq := permuteQuery(q, perm)
		cp := canonicalize(pq)
		if cq.sig != cp.sig {
			t.Fatalf("seed %d: signatures differ", seed)
		}
		plan := model.Plan(rng.Perm(q.N()))
		cost := q.Cost(plan)
		mapped := cp.fromCanonical(cq.toCanonical(plan))
		if got := pq.Cost(mapped); got != cost {
			t.Fatalf("seed %d: relabeled plan cost %v, want %v", seed, got, cost)
		}
	}
}

func TestEncodeRawDistinguishesNilAndZeroVectors(t *testing.T) {
	t.Parallel()
	q := testQuery(t, gen.Default(4, 1))
	withZeroSink := q.Clone()
	withZeroSink.SinkTransfer = make([]float64, q.N())
	a := encodeRaw(q, nil)
	b := encodeRaw(withZeroSink, nil)
	if string(a) == string(b) {
		t.Fatal("raw encoding conflates nil and all-zero sink vectors")
	}
}

// TestCanonicalizeAllocs pins what canonicalizing a first-sight query
// allocates at n = 17: the encoding is sized exactly once (it grew from
// nil eight bytes at a time, about ten allocations) and distinct colors
// are counted without a set (two maps per refinement). Both measured 28
// allocations and 13020 bytes; now 12 and 6408. canonicalSize must match
// the encoding with precedence edges too.
func TestCanonicalizeAllocs(t *testing.T) {
	for _, edges := range []int{0, 6} {
		p := gen.Default(17, 1)
		p.PrecedenceEdges = edges
		q := testQuery(t, p)
		perm := make([]int, q.N())
		for i := range perm {
			perm[i] = q.N() - 1 - i
		}
		if got := len(encodeCanonical(q, perm, nil)); got != canonicalSize(q) {
			t.Fatalf("precedence edges %d: encoding is %d bytes, canonicalSize %d", edges, got, canonicalSize(q))
		}
	}

	q := testQuery(t, gen.Default(17, 1))
	if allocs := testing.AllocsPerRun(100, func() { canonicalize(q) }); allocs > 12 {
		t.Errorf("canonicalize allocates %v times at n=17, want <= 12", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		canonicalize(q)
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / 100; bytes > 7<<10 {
		t.Errorf("canonicalize allocates %d bytes at n=17, want <= %d", bytes, 7<<10)
	}
}
