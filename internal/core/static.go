package core

import (
	"cmp"
	"math"
	"slices"

	"serviceordering/internal/model"
)

// prep holds everything about a query the search needs but never mutates,
// flattened into dense arrays so the per-node hot path touches contiguous
// float64 slices instead of chasing Service structs and nested slices:
// per-service cost/selectivity/thread-count vectors, the row-major
// transfer matrix, presorted per-service transfer orders (indices and
// values side by side), and the cost-sorted root pairs. It is computed
// once per optimization and shared read-only across
// all parallel workers, so the O(n^2 log n) setup is paid once instead of
// once per worker.
//
// Every derived value is produced by the same expression the model package
// uses (for example gmax[i] = math.Max(Selectivity, 1)), so arithmetic on
// these arrays is bitwise identical to arithmetic on the query itself.
type prep struct {
	q    *model.Query
	prec *model.Precedence
	n    int

	// allMask has one bit set per service; allMask &^ placed is the
	// remaining set.
	allMask uint64

	cost []float64 // Services[i].Cost
	sel  []float64 // Services[i].Selectivity
	tc   []float64 // Services[i].ThreadCount()
	gmax []float64 // max(Selectivity, 1): the proliferation growth factor
	gmin []float64 // min(Selectivity, 1): the filter shrink factor
	tr   []float64 // row-major Transfer: tr[i*n+j]
	src  []float64 // source transfer per service (zeros when absent)
	sink []float64 // sink transfer per service (zeros when absent)

	maxTransferAll []float64 // max_j Transfer[i][j], j != i
	minTransferAll []float64 // min_j Transfer[i][j], j != i
	maxOutAll      []float64 // max(maxTransferAll[i], sink[i])
	minOutAll      []float64 // min(minTransferAll[i], sink[i])

	// ascIdx[l*(n-1)+k] lists the services j != l in increasing
	// Transfer[l][j] (ties by index): the paper's expansion policy, and
	// the first-unplaced walk for tight minimum bounds. descIdx is the
	// same services in decreasing transfer order, the walk for tight
	// maximum bounds; descVal carries the matching transfer values so the
	// walk never gathers from the matrix.
	ascIdx  []int32
	descIdx []int32
	ascVal  []float64
	descVal []float64

	// pairs is the feasible root-pair list in increasing cost order.
	pairs []rootPair
}

// order returns the ascending expansion order for service l.
func (p *prep) order(l int) []int32 {
	return p.ascIdx[l*(p.n-1) : (l+1)*(p.n-1)]
}

// newPrep precomputes the static search data for q. The query must already
// be validated.
func newPrep(q *model.Query) *prep {
	n := q.N()
	p := &prep{q: q, prec: q.CompiledPrecedence(), n: n}
	if n >= 64 {
		p.allMask = ^uint64(0)
	} else {
		p.allMask = 1<<uint(n) - 1
	}

	p.cost = make([]float64, n)
	p.sel = make([]float64, n)
	p.tc = make([]float64, n)
	p.gmax = make([]float64, n)
	p.gmin = make([]float64, n)
	for i := range q.Services {
		svc := &q.Services[i]
		p.cost[i] = svc.Cost
		p.sel[i] = svc.Selectivity
		p.tc[i] = svc.ThreadCount()
		p.gmax[i] = math.Max(svc.Selectivity, 1)
		p.gmin[i] = math.Min(svc.Selectivity, 1)
	}
	p.tr = make([]float64, n*n)
	for i, row := range q.Transfer {
		copy(p.tr[i*n:(i+1)*n], row)
	}
	p.src = make([]float64, n)
	if q.SourceTransfer != nil {
		copy(p.src, q.SourceTransfer)
	}
	p.sink = make([]float64, n)
	if q.SinkTransfer != nil {
		copy(p.sink, q.SinkTransfer)
	}

	p.maxTransferAll = make([]float64, n)
	p.minTransferAll = make([]float64, n)
	p.maxOutAll = make([]float64, n)
	p.minOutAll = make([]float64, n)
	for i := 0; i < n; i++ {
		maxT, minT := 0.0, math.Inf(1)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			t := q.Transfer[i][j]
			if t > maxT {
				maxT = t
			}
			if t < minT {
				minT = t
			}
		}
		if n == 1 {
			minT = 0
		}
		p.maxTransferAll[i] = maxT
		p.minTransferAll[i] = minT
		p.maxOutAll[i] = math.Max(maxT, p.sink[i])
		p.minOutAll[i] = math.Min(minT, p.sink[i])
	}

	if n > 1 {
		w := n - 1
		p.ascIdx = make([]int32, n*w)
		p.descIdx = make([]int32, n*w)
		p.ascVal = make([]float64, n*w)
		p.descVal = make([]float64, n*w)
		scratch := make([]int, w)
		for l := 0; l < n; l++ {
			k := 0
			for j := 0; j < n; j++ {
				if j != l {
					scratch[k] = j
					k++
				}
			}
			sortIdxByKey(scratch, q.Transfer[l])
			for i, j := range scratch {
				p.ascIdx[l*w+i] = int32(j)
				p.ascVal[l*w+i] = q.Transfer[l][j]
				p.descIdx[l*w+(w-1-i)] = int32(j)
				p.descVal[l*w+(w-1-i)] = q.Transfer[l][j]
			}
		}
	}

	p.pairs = buildRootPairs(p)
	return p
}

// sortIdxByKey stably sorts idx in increasing key[idx[i]] order using
// insertion sort: allocation- and reflection-free, and n is at most
// MaxServices so the quadratic worst case is tiny.
func sortIdxByKey(idx []int, key []float64) {
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		k := key[v]
		j := i - 1
		for j >= 0 && key[idx[j]] > k {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = v
	}
}

// rootPair is a candidate two-service prefix; the search seeds from pairs
// in increasing cost order (required for the Lemma 3 root rule).
type rootPair struct {
	a, b int
	cost float64
}

// buildRootPairs enumerates the feasible ordered pairs sorted by pair
// cost, ties broken by indices for determinism.
func buildRootPairs(p *prep) []rootPair {
	n := p.n
	pairs := make([]rootPair, 0, n*(n-1))
	for a := 0; a < n; a++ {
		if !p.prec.CanPlace(a, 0) {
			continue
		}
		for b := 0; b < n; b++ {
			if b == a || !p.prec.CanPlace(b, 1<<uint(a)) {
				continue
			}
			pairs = append(pairs, rootPair{a: a, b: b, cost: p.q.PairCost(a, b)})
		}
	}
	// (cost, a, b) totally orders distinct pairs, so any sort algorithm
	// yields the same list.
	slices.SortFunc(pairs, func(x, y rootPair) int {
		if x.cost != y.cost {
			return cmp.Compare(x.cost, y.cost)
		}
		if x.a != y.a {
			return cmp.Compare(x.a, y.a)
		}
		return cmp.Compare(x.b, y.b)
	})
	return pairs
}
