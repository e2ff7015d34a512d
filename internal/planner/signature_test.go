package planner

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// signatureFamilies are the five instance families the benchmark
// workloads draw (perfbench's familyParams): gen.Default plus one
// structural feature each.
var signatureFamilies = []string{"plain", "sink-source", "precedence", "proliferative", "threaded"}

func familyDraw(t *testing.T, family string, n int, seed int64) *model.Query {
	t.Helper()
	p := gen.Default(n, seed)
	switch family {
	case "plain":
	case "sink-source":
		p.WithSource, p.WithSink = true, true
	case "precedence":
		p.PrecedenceEdges = 3
	case "proliferative":
		p.ProliferativeFraction = 0.3
	case "threaded":
		p.MultiThreadFraction = 0.4
	default:
		t.Fatalf("unknown family %q", family)
	}
	return testQuery(t, p)
}

// withTies makes q's initial colors collide. It picks one or two groups of
// two or three services and copies a representative's scalars (cost,
// selectivity, threads, source and sink transfer) onto every member. With
// twins set, it also copies the representative's transfer row and column
// and drops the precedence edges that touch a member, and links the
// members in a directed cycle, one weight each way round (a pair gets one
// weight both ways). No refinement can then tell members apart, so tie
// enumeration must decide; a group of three is symmetric only under its
// rotations, so a relabelling that reflects it changes every encoding
// but the least. Without twins, the transfer matrix tells the members
// apart and refinement does. A group's candidates number at most 3! = 6,
// far within maxCanonCandidates.
func withTies(q *model.Query, rng *rand.Rand, twins bool) *model.Query {
	q = q.Clone()
	n := q.N()
	pool := rng.Perm(n)
	member := make([]bool, n)
	for g := 0; g < 1+rng.Intn(2) && len(pool) >= 2; g++ {
		size := min(2+rng.Intn(2), len(pool))
		group := pool[:size]
		pool = pool[size:]
		r := group[0]
		w, back := q.Transfer[r][group[1]], q.Transfer[group[1]][r]
		if size == 2 {
			back = w
		}
		for _, m := range group {
			member[m] = true
		}
		for _, m := range group[1:] {
			q.Services[m].Cost = q.Services[r].Cost
			q.Services[m].Selectivity = q.Services[r].Selectivity
			q.Services[m].Threads = q.Services[r].Threads
			if q.SourceTransfer != nil {
				q.SourceTransfer[m] = q.SourceTransfer[r]
			}
			if q.SinkTransfer != nil {
				q.SinkTransfer[m] = q.SinkTransfer[r]
			}
			if !twins {
				continue
			}
			for x := 0; x < n; x++ {
				if x != m && x != r {
					q.Transfer[m][x], q.Transfer[x][m] = q.Transfer[r][x], q.Transfer[x][r]
				}
			}
		}
		if twins {
			for i, a := range group {
				b := group[(i+1)%size]
				q.Transfer[a][b], q.Transfer[b][a] = w, back
			}
		}
	}
	if twins {
		kept := q.Precedence[:0]
		for _, e := range q.Precedence {
			if !member[e[0]] && !member[e[1]] {
				kept = append(kept, e)
			}
		}
		q.Precedence = kept
	}
	return q
}

// TestSignaturePermutationInvariant is the signature's differential at
// scale: 1240 draws over the five benchmark families at n = 3–64, a
// quarter of them with colliding initial colors (half of those with
// automorphic twins, so refinement and tie enumeration both run). Every
// relabelling of a draw, with its precedence list shuffled, shares the
// draw's signature and relabels a plan at the same cost, and no two draws
// — distinct seeds, so never relabellings of each other — share one.
func TestSignaturePermutationInvariant(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	seen := make(map[Signature]string)
	draws, refined, enumerated := 0, 0, 0
	for f, family := range signatureFamilies {
		for n := 3; n <= 64; n++ {
			for k := int64(0); k < 4; k++ {
				seed := 5000 + int64(f)<<20 + int64(n)<<8 + k
				q := familyDraw(t, family, n, seed)
				if k == 3 {
					q = withTies(q, rng, n%2 == 0)
				}
				name := fmt.Sprintf("%s n=%d seed %d", family, n, seed)
				if err := q.Validate(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				refines, enumerates := tieDepth(q)
				if refines {
					refined++
				}
				if enumerates {
					enumerated++
				}
				base := canonicalize(q)
				if other, dup := seen[base.sig]; dup {
					t.Fatalf("%s and %s share signature %s", name, other, base.sig)
				}
				seen[base.sig] = name
				draws++
				plan := model.Plan(rng.Perm(n))
				for trial := 0; trial < 3; trial++ {
					perm := rng.Perm(n)
					pq := permuteQuery(q, perm)
					// Nor is the order the precedence edges are listed in.
					rng.Shuffle(len(pq.Precedence), func(i, j int) {
						pq.Precedence[i], pq.Precedence[j] = pq.Precedence[j], pq.Precedence[i]
					})
					got := canonicalize(pq)
					if got.sig != base.sig {
						t.Fatalf("%s trial %d: signature not invariant under permutation %v:\n  base %s\n  got  %s",
							name, trial, perm, base.sig, got.sig)
					}
					if c, want := pq.Cost(got.fromCanonical(base.toCanonical(plan))), q.Cost(plan); c != want {
						t.Fatalf("%s trial %d: relabelled plan costs %v, want %v", name, trial, c, want)
					}
				}
			}
		}
	}
	t.Logf("%d draws: %d refined, %d enumerated ties", draws, refined, enumerated)
	if draws < 1000 || refined < 250 || enumerated < 125 {
		t.Fatalf("%d draws, %d refined, %d enumerated ties; want at least 1000, 250 and 125", draws, refined, enumerated)
	}
}

// tieDepth reports how far canonicalize goes past the initial colors for
// q: whether they collide, so refinement runs, and whether refinement
// leaves a tie, so tie enumeration runs.
func tieDepth(q *model.Query) (refines, enumerates bool) {
	colors := initialColors(q)
	order := make([]int, q.N())
	for i := range order {
		order[i] = i
	}
	sortByColor(order, colors)
	if discrete(order, colors) {
		return false, false
	}
	refineColors(q, colors)
	sortByColor(order, colors)
	return true, !discrete(order, colors)
}

// FuzzSignature: a query whose every parameter comes from a four-value
// alphabet, so equal colors, refinement ties and automorphisms are
// common, keeps its signature under a relabelling, and its canonical
// mapping round-trips a plan. Queries have at most 7 services, so a tie
// group never exceeds 7! candidates and tie enumeration always completes.
func FuzzSignature(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		q, perm := fuzzQuery(data)
		if err := q.Validate(); err != nil {
			t.Fatalf("fuzzQuery built an invalid query: %v", err)
		}
		base := canonicalize(q)
		pq := permuteQuery(q, perm)
		slices.Reverse(pq.Precedence)
		got := canonicalize(pq)
		if got.sig != base.sig {
			t.Fatalf("relabelling %v changed the signature: %s -> %s", perm, base.sig, got.sig)
		}
		plan := model.Plan(perm)
		if back := base.fromCanonical(base.toCanonical(plan)); !back.Equal(plan) {
			t.Fatalf("fromCanonical(toCanonical(%v)) = %v", plan, back)
		}
		if c, want := pq.Cost(got.fromCanonical(base.toCanonical(plan))), q.Cost(plan); c != want {
			t.Fatalf("relabelled plan costs %v, want %v", c, want)
		}
	})
}

// fuzzQuery reads a valid query of 1–7 services from data, every
// parameter from a four-value alphabet, and a relabelling of it. Bytes
// past the end of data read as zero.
func fuzzQuery(data []byte) (*model.Query, []int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	alphabet := [4]float64{0, 0.5, 1, 2}
	n := 1 + next()%7
	q := &model.Query{Services: make([]model.Service, n), Transfer: make([][]float64, n)}
	for i := range q.Services {
		b := next()
		q.Services[i] = model.Service{Cost: alphabet[b&3], Selectivity: alphabet[b>>2&3], Threads: 1 + b>>4&1}
	}
	vectors := next()
	if vectors&1 != 0 {
		q.SourceTransfer = make([]float64, n)
	}
	if vectors&2 != 0 {
		q.SinkTransfer = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		if q.SourceTransfer != nil {
			q.SourceTransfer[i] = alphabet[next()&3]
		}
		if q.SinkTransfer != nil {
			q.SinkTransfer[i] = alphabet[next()&3]
		}
		q.Transfer[i] = make([]float64, n)
		for j := range q.Transfer[i] {
			if j != i {
				q.Transfer[i][j] = alphabet[next()&3]
			}
		}
	}
	// Edges run from a lower to a higher index, so the relation is acyclic.
	for edges := next() % 5; edges > 0; edges-- {
		a, b := next()%n, next()%n
		if a < b {
			q.Precedence = append(q.Precedence, [2]int{a, b})
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := next() % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return q, perm
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
// allocates at n = 17, with 0, 3 and 6 precedence edges: the encoding is
// sized exactly once (it grew from nil eight bytes at a time, about ten
// allocations) and distinct colors are counted without a set (two maps
// per refinement). Both measured 28 allocations and 13020 bytes; then 12
// and 6408 without edges, but 23 and 29 with 3 and 6, while the
// precedence adjacency grew per service and every encoding allocated its
// own inverse, edge list and sort.Slice swapper. Then 7, 10 and 10
// allocations (5520, 6064 and 6272 bytes): the adjacency is one CSR
// array, and the encodings share scratch owned by canonicalize. Now 4, 6
// and 6 (3648, 3840 and 4016 bytes): these draws' initial colors are
// discrete, so refinement and its buffers are skipped, and the pin fails
// if they run again. canonicalSize must match the encoding with
// precedence edges too.
func TestCanonicalizeAllocs(t *testing.T) {
	for _, edges := range []int{0, 3, 6} {
		p := gen.Default(17, 1)
		p.PrecedenceEdges = edges
		q := testQuery(t, p)
		if len(q.Precedence) != edges {
			t.Fatalf("gen.Default(17, 1) with %d precedence edges drew %d", edges, len(q.Precedence))
		}
		perm := make([]int, q.N())
		for i := range perm {
			perm[i] = q.N() - 1 - i
		}
		if got := len(encodeCanonical(q, perm, nil, newEncodeScratch(q))); got != canonicalSize(q) {
			t.Fatalf("precedence edges %d: encoding is %d bytes, canonicalSize %d", edges, got, canonicalSize(q))
		}

		allocs := testing.AllocsPerRun(100, func() { canonicalize(q) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			canonicalize(q)
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / 100
		t.Logf("precedence edges %d: %v allocations, %d bytes", edges, allocs, bytes)
		if allocs > 6 {
			t.Errorf("canonicalize allocates %v times at n=17 with %d precedence edges, want <= 6", allocs, edges)
		}
		if bytes > 5<<10 {
			t.Errorf("canonicalize allocates %d bytes at n=17 with %d precedence edges, want <= %d", bytes, edges, 5<<10)
		}
	}
}
