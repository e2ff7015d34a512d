package core

import (
	"cmp"
	"math"
	"sync"

	"serviceordering/internal/model"
)

// prep holds everything about a query the search needs but never mutates,
// flattened into dense arrays so the per-node hot path touches contiguous
// float64 slices instead of chasing Service structs and nested slices:
// per-service cost/selectivity/thread-count vectors, the row-major
// transfer matrix, and presorted per-service transfer orders (indices and
// values side by side). It is computed once per optimization.
//
// The root pairs are the exception: they sit in a min-heap that the search
// pops in ascending cost only as it takes them. Lemma 1 stops the search at
// the first pair whose cost reaches the incumbent, so most searches take
// one to three of the n(n-1) pairs, and sorting them all cost more than
// the search itself. A prep and its buffers come from prepPool and go back
// through release once the search is done with them.
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

	// ascIdx[l*(n-1)+k] lists the services j != l in increasing
	// Transfer[l][j] (ties by index): the paper's expansion policy, the
	// first-unplaced walk for tight minimum bounds and, walked backwards,
	// the one for tight maximum bounds. ascVal carries the matching
	// transfer values so the walks never gather from the matrix; its two
	// ends per service are the loose bounds' extremes (transferRange).
	ascIdx []int32
	ascVal []float64

	// pairs holds the feasible root pairs not yet taken, as a min-heap in
	// increasing cost order (see popPair).
	pairs []rootPair
}

// prepPool recycles preps and their buffers across searches.
var prepPool sync.Pool

// order returns the ascending expansion order for service l.
func (p *prep) order(l int) []int32 {
	return p.ascIdx[l*(p.n-1) : (l+1)*(p.n-1)]
}

// transferRange returns the least and the greatest Transfer[l][j] over
// j != l: the two ends of l's ascending order. The query must have at
// least two services.
func (p *prep) transferRange(l int) (lo, hi float64) {
	w := p.n - 1
	return p.ascVal[l*w], p.ascVal[l*w+w-1]
}

// newPrep precomputes the static search data for q. The query must already
// be validated.
func newPrep(q *model.Query) *prep {
	n := q.N()
	p, _ := prepPool.Get().(*prep)
	if p == nil {
		p = new(prep)
	}
	p.q, p.prec, p.n = q, q.CompiledPrecedence(), n
	if n >= 64 {
		p.allMask = ^uint64(0)
	} else {
		p.allMask = 1<<uint(n) - 1
	}

	p.cost = resize(p.cost, n)
	p.sel = resize(p.sel, n)
	p.tc = resize(p.tc, n)
	p.gmax = resize(p.gmax, n)
	p.gmin = resize(p.gmin, n)
	for i := range q.Services {
		svc := &q.Services[i]
		p.cost[i] = svc.Cost
		p.sel[i] = svc.Selectivity
		p.tc[i] = svc.ThreadCount()
		p.gmax[i] = math.Max(svc.Selectivity, 1)
		p.gmin[i] = math.Min(svc.Selectivity, 1)
	}
	p.tr = resize(p.tr, n*n)
	for i, row := range q.Transfer {
		copy(p.tr[i*n:(i+1)*n], row)
	}
	p.src = resize(p.src, n)
	clear(p.src)
	if q.SourceTransfer != nil {
		copy(p.src, q.SourceTransfer)
	}
	p.sink = resize(p.sink, n)
	clear(p.sink)
	if q.SinkTransfer != nil {
		copy(p.sink, q.SinkTransfer)
	}

	w := n - 1
	p.ascIdx = resize(p.ascIdx, n*w)
	p.ascVal = resize(p.ascVal, n*w)
	for l := 0; l < n; l++ {
		asc := p.ascIdx[l*w : (l+1)*w]
		k := 0
		for j := 0; j < n; j++ {
			if j != l {
				asc[k] = int32(j)
				k++
			}
		}
		sortIdxByKey(asc, q.Transfer[l])
		for i, j := range asc {
			p.ascVal[l*w+i] = q.Transfer[l][j]
		}
	}

	p.buildRootPairs()
	return p
}

// release hands p and its buffers back to prepPool. Nothing may use p
// afterwards: no search built on it, no slice taken from it.
func (p *prep) release() {
	p.q, p.prec = nil, nil
	prepPool.Put(p)
}

// resize returns s with length n, reusing its array when it is big enough.
// The contents are unspecified; callers overwrite or clear them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sortIdxByKey stably sorts idx in increasing key[idx[i]] order using
// insertion sort: allocation- and reflection-free, and n is at most
// MaxServices so the quadratic worst case is tiny.
func sortIdxByKey(idx []int32, key []float64) {
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

// pairLess orders root pairs by cost, ties broken by indices for
// determinism. (cost, a, b) totally orders distinct pairs, so the pop
// order is the one any sort of the whole list would give.
func pairLess(x, y rootPair) bool {
	if c := cmp.Compare(x.cost, y.cost); c != 0 {
		return c < 0
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// buildRootPairs fills p.pairs with the feasible ordered pairs and orders
// them into a heap, in O(n^2) with no sort. A pair's cost is
// model.Query.PairCost's, computed from the prep's arrays with the same
// expressions.
func (p *prep) buildRootPairs() {
	n := p.n
	pairs := resize(p.pairs, n*(n-1))[:0]
	for a := 0; a < n; a++ {
		if !p.prec.CanPlace(a, 0) {
			continue
		}
		costA, selA, tcA, srcA := p.cost[a], p.sel[a], p.tc[a], p.src[a]
		row := p.tr[a*n : (a+1)*n]
		for b := 0; b < n; b++ {
			if b == a || !p.prec.CanPlace(b, 1<<uint(a)) {
				continue
			}
			cost := (costA + selA*row[b]) / tcA
			if srcA > cost {
				cost = srcA
			}
			if termB := selA * p.cost[b] / p.tc[b]; termB > cost {
				cost = termB
			}
			pairs = append(pairs, rootPair{a: a, b: b, cost: cost})
		}
	}
	for i := len(pairs)/2 - 1; i >= 0; i-- {
		siftDown(pairs, i)
	}
	p.pairs = pairs
}

// popPair removes and returns the least root pair not yet taken; ok is
// false once every pair has been taken.
func (p *prep) popPair() (pr rootPair, ok bool) {
	h := p.pairs
	if len(h) == 0 {
		return rootPair{}, false
	}
	pr = h[0]
	last := len(h) - 1
	h[0] = h[last]
	p.pairs = h[:last]
	siftDown(p.pairs, 0)
	return pr, true
}

// siftDown restores the heap order below h[i].
func siftDown(h []rootPair, i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && pairLess(h[r], h[j]) {
			j = r
		}
		if !pairLess(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
