package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"serviceordering/internal/domtable"
	"serviceordering/internal/model"
	"serviceordering/internal/trace"
)

// search holds the mutable state of one branch-and-bound run. All static
// per-query data lives in the embedded prep, which parallel workers share
// read-only; everything here is worker-local.
type search struct {
	*prep
	opts Options

	// Mutable search state.
	placed    uint64
	prefix    []int
	rho       float64
	best      model.Plan
	deadFirst []bool
	aborted   bool
	stats     Stats

	// shared, when non-nil, coordinates the incumbent across parallel
	// workers; rho is then a worker-local cache of the global bound.
	shared *sharedIncumbent

	// dom, when non-nil, is the subset-dominance transposition table
	// (shared across parallel workers); domBand is the deepest prefix
	// depth admitted to it. See dominance.go.
	dom     *domtable.Table
	domBand int

	// sharedBudget, when non-nil, is the cross-worker node budget; the
	// worker draws allowance from it in budgetChunk blocks so the shared
	// atomic is touched once per chunk, not once per node.
	sharedBudget *atomic.Int64
	allowance    int64

	deadline    time.Time
	hasDeadline bool

	// Scratch buffers (allocated once per search, reused by every node).
	remScratch    []int
	growthScratch []float64
	planBuf       model.Plan // incumbent plan buffer; cloned only when published to a shared incumbent
}

// pstate mirrors model.PrefixState over the prep's flattened arrays: the
// running selectivity product before the last service, and the maximum
// finalized bottleneck term with its plan position. Every expression below
// has the exact shape of its model counterpart, so the floats it produces
// are bitwise identical to model.PrefixState's — the differential tests
// compare engines with ==, not a tolerance.
type pstate struct {
	last       int
	prodBefore float64
	maxDone    float64
	maxDonePos int
}

// pairState returns the state of the two-service prefix [a, b].
func (s *search) pairState(a, b int) pstate {
	// Placing a: the source term (zero without a source stage) is the only
	// finalized term, at position 0.
	ps := pstate{last: a, prodBefore: 1, maxDone: s.src[a], maxDonePos: 0}
	return s.childState(ps, 1, b)
}

// childState extends a prefix of length depth with service r, finalizing
// the previous last service's term with its transfer to r.
func (s *search) childState(ps pstate, depth, r int) pstate {
	l := ps.last
	final := ps.prodBefore * (s.cost[l] + s.sel[l]*s.tr[l*s.n+r]) / s.tc[l]
	if final > ps.maxDone {
		ps.maxDone = final
		ps.maxDonePos = depth - 1
	}
	ps.prodBefore *= s.sel[l]
	ps.last = r
	return ps
}

// epsilonPos returns the prefix's bottleneck cost (epsilon) and the plan
// position realizing it, for a prefix of length depth.
func (s *search) epsilonPos(ps pstate, depth int) (float64, int) {
	provisional := ps.prodBefore * s.cost[ps.last] / s.tc[ps.last]
	if provisional > ps.maxDone {
		return provisional, depth - 1
	}
	return ps.maxDone, ps.maxDonePos
}

// completeCost returns the bottleneck cost of the prefix interpreted as a
// complete plan (the last service pays its sink transfer).
func (s *search) completeCost(ps pstate) float64 {
	l := ps.last
	final := ps.prodBefore * (s.cost[l] + s.sel[l]*s.sink[l]) / s.tc[l]
	if final > ps.maxDone {
		return final
	}
	return ps.maxDone
}

// retNone is the "no jump" return value of dfs; any value larger than the
// deepest possible depth works.
const retNone = int(^uint(0) >> 1)

// budgetChunk is the number of node expansions a worker draws from a
// shared node budget per acquisition.
const budgetChunk = 64

func newSearch(pr *prep, opts Options) *search {
	n := pr.n
	return &search{
		prep:          pr,
		opts:          opts,
		rho:           math.Inf(1),
		prefix:        make([]int, 0, n),
		deadFirst:     make([]bool, n),
		remScratch:    make([]int, 0, n),
		growthScratch: make([]float64, n+1),
		planBuf:       make(model.Plan, 0, n),
	}
}

func (s *search) run() (Result, error) {
	start := time.Now()
	if s.opts.TimeLimit > 0 {
		s.deadline = start.Add(s.opts.TimeLimit)
		s.hasDeadline = true
	}

	if s.n == 1 {
		p := model.Plan{0}
		res := Result{Plan: p, Cost: s.q.Cost(p), Optimal: true}
		res.Stats.Elapsed = time.Since(start)
		return res, nil
	}

	if s.opts.InitialIncumbent != nil {
		if err := s.opts.InitialIncumbent.Validate(s.q); err != nil {
			return Result{}, fmt.Errorf("core: initial incumbent: %w", err)
		}
		s.best = s.opts.InitialIncumbent.Clone()
		s.rho = s.q.Cost(s.best)
	}

	for !s.aborted {
		pr, ok := s.popPair()
		if !ok {
			break
		}
		// Lemma 1 termination: pairs come off in ascending cost, and every
		// plan costs at least its two-service prefix. No cheaper plan
		// exists, so the pairs left in the heap are never sorted out.
		if !s.opts.DisableIncumbentPruning && pr.cost >= s.rho {
			break
		}
		if s.deadFirst[pr.a] {
			continue
		}
		s.stats.PairsTried++
		if s.opts.Tracer != nil {
			s.opts.Tracer.Record(trace.Event{Kind: trace.KindPairStart, Depth: 2, Service: pr.a, Epsilon: pr.cost})
		}
		if ret := s.runPair(pr.a, pr.b); ret == 1 {
			// Lemma 3 with the bottleneck at position 0: no plan
			// starting with pr.a can improve on rho.
			s.deadFirst[pr.a] = true
		}
	}

	s.stats.Elapsed = time.Since(start)
	if s.dom != nil {
		s.stats.DominanceOccupancy = s.dom.Occupancy()
	}
	if s.best == nil {
		// Only reachable when a budget aborted the run before the first
		// complete plan was found.
		return Result{Optimal: false, Stats: s.stats}, nil
	}
	return Result{
		Plan:    s.best,
		Cost:    s.rho,
		Optimal: !s.aborted,
		Stats:   s.stats,
	}, nil
}

// dfs explores the subtree rooted at the current prefix of length depth.
// Its return value implements the Lemma 3 jump: retNone for a normal
// backtrack, or a depth d meaning "the subtree of the ancestor prefix of
// length d is pruned"; every invocation deeper than d unwinds immediately
// and the invocation at depth d stops trying children.
func (s *search) dfs(depth int, ps pstate) int {
	s.stats.NodesExpanded++
	if !s.budgetOK() {
		s.stats.NodesExpanded-- // a refused node is not expanded
		return retNone
	}

	if s.opts.Tracer != nil && depth > 2 {
		s.opts.Tracer.Record(trace.Event{Kind: trace.KindExpand, Depth: depth, Service: ps.last})
	}
	s.refreshRho()

	if depth == s.n {
		if cost := s.completeCost(ps); cost < s.rho {
			s.commitIncumbent(cost, append(s.planBuf[:0], s.prefix...))
			if s.opts.Tracer != nil {
				s.opts.Tracer.Record(trace.Event{Kind: trace.KindIncumbent, Depth: depth, Service: -1, Epsilon: cost})
			}
		}
		return retNone
	}

	eps, bpos := s.epsilonPos(ps, depth)

	// Lemma 1: epsilon never decreases along a branch.
	if !s.opts.DisableIncumbentPruning && eps >= s.rho {
		s.stats.IncumbentPrunes++
		if s.opts.Tracer != nil {
			s.opts.Tracer.Record(trace.Event{Kind: trace.KindPruneIncumbent, Depth: depth, Service: ps.last, Epsilon: eps, Bound: s.rho})
		}
		return retNone
	}

	// Subset dominance: a prefix over the same placed set with the same
	// last service, the same prodBefore bit pattern, and a finalized
	// bottleneck <= ours has the bitwise-identical future (same remaining
	// set, same outgoing transfer row, same product feeding every term)
	// and was already committed to extension, so every completion of this
	// prefix is matched or beaten there. Visit atomically publishes our
	// own maxDone when we are the best-known arrival — that publish is
	// this node's commitment to soundly search its subtree, which is what
	// makes pruning later arrivals exact (see dominance.go and
	// internal/domtable).
	if s.dom != nil && depth >= domMinDepth && depth <= s.domBand {
		if s.dom.Visit(s.placed, ps.last, math.Float64bits(ps.prodBefore), ps.maxDone) {
			s.stats.DominancePrunes++
			if s.opts.Tracer != nil {
				s.opts.Tracer.Record(trace.Event{Kind: trace.KindPruneDominance, Depth: depth, Service: ps.last, Epsilon: ps.maxDone, Bound: s.rho})
			}
			return retNone
		}
	}

	rem := s.remaining()

	// Lemma 2: when no remaining service can exceed epsilon, every
	// completion costs exactly epsilon.
	if !s.opts.DisableClosure {
		if bar, closed := s.closureBar(eps, ps, rem); closed {
			s.stats.Closures++
			if s.opts.Tracer != nil {
				s.opts.Tracer.Record(trace.Event{Kind: trace.KindClosure, Depth: depth, Service: s.prefix[bpos], Epsilon: eps, Bound: bar})
			}
			if eps < s.rho {
				s.commitIncumbent(eps, s.completePlan())
				if s.opts.Tracer != nil {
					s.opts.Tracer.Record(trace.Event{Kind: trace.KindIncumbent, Depth: depth, Service: -1, Epsilon: eps})
				}
			}
			// Lemma 3: prune every plan sharing the prefix up to and
			// including the bottleneck service.
			if !s.opts.DisableVPruning && bpos < depth-1 {
				s.stats.VJumps++
				s.stats.LevelsSkipped += int64(depth - 1 - bpos)
				if s.opts.Tracer != nil {
					s.opts.Tracer.Record(trace.Event{Kind: trace.KindVJump, Depth: depth, Service: s.prefix[bpos], JumpTo: bpos + 1})
				}
				return bpos + 1
			}
			return retNone
		}
	}

	if s.opts.StrongLowerBound && !s.opts.DisableIncumbentPruning {
		if lb := s.completionLB(ps, rem); lb >= s.rho {
			s.stats.StrongLBPrunes++
			if s.opts.Tracer != nil {
				s.opts.Tracer.Record(trace.Event{Kind: trace.KindPruneStrongLB, Depth: depth, Service: ps.last, Epsilon: lb, Bound: s.rho})
			}
			return retNone
		}
	}

	for _, r32 := range s.order(ps.last) {
		if s.aborted {
			return retNone
		}
		r := int(r32)
		bit := uint64(1) << uint(r)
		if s.placed&bit != 0 || !s.prec.CanPlace(r, s.placed) {
			continue
		}
		s.placed |= bit
		s.prefix = append(s.prefix, r)
		ret := s.dfs(depth+1, s.childState(ps, depth, r))
		s.prefix = s.prefix[:len(s.prefix)-1]
		s.placed &^= bit
		if ret <= depth {
			if ret == depth {
				// This node's subtree is pruned; siblings of this node
				// are still the parent's responsibility.
				return retNone
			}
			return ret
		}
	}
	return retNone
}

// runPair descends into the subtree rooted at the two-service prefix
// [a, b] and returns the dfs jump value.
func (s *search) runPair(a, b int) int {
	s.prefix = append(s.prefix[:0], a, b)
	s.placed = 1<<uint(a) | 1<<uint(b)
	return s.dfs(2, s.pairState(a, b))
}

// runTriple descends into the subtree rooted at the three-service prefix
// [a, b, c]; the parallel work-splitting path uses it to explore one pair
// subtree from several workers at once.
func (s *search) runTriple(a, b, c int) int {
	s.prefix = append(s.prefix[:0], a, b, c)
	s.placed = 1<<uint(a) | 1<<uint(b) | 1<<uint(c)
	return s.dfs(3, s.childState(s.pairState(a, b), 2, c))
}

// remaining collects the unplaced service indices into the shared scratch
// slice (invalidated by the next call), iterating set bits instead of
// scanning all n indices.
func (s *search) remaining() []int {
	rem := s.remScratch[:0]
	m := s.allMask &^ s.placed
	for m != 0 {
		rem = append(rem, bits.TrailingZeros64(m))
		m &= m - 1
	}
	s.remScratch = rem[:0]
	return rem
}

// completePlan materializes the current prefix plus a feasible
// (precedence-respecting) completion into the reusable plan buffer; under
// Lemma 2 any completion has the same cost.
func (s *search) completePlan() model.Plan {
	plan := append(s.planBuf[:0], s.prefix...)
	placed := s.placed
	for len(plan) < s.n {
		m := s.allMask &^ placed
		for m != 0 {
			r := bits.TrailingZeros64(m)
			m &= m - 1
			if s.prec.CanPlace(r, placed) {
				plan = append(plan, r)
				placed |= 1 << uint(r)
				break
			}
		}
	}
	return plan
}

// refreshRho pulls the global bound into the worker-local cache when the
// search is part of a parallel run.
func (s *search) refreshRho() {
	if s.shared == nil {
		return
	}
	if r := s.shared.load(); r < s.rho {
		s.rho = r
	}
}

// commitIncumbent records an improved complete plan, locally or through
// the shared incumbent. plan may alias the reusable planBuf: the shared
// incumbent copies it under its lock, and the sequential path hands the
// buffer itself to the caller only after the run ends.
func (s *search) commitIncumbent(cost float64, plan model.Plan) {
	if s.shared != nil {
		if s.shared.tryUpdate(cost, plan) {
			s.stats.IncumbentUpdates++
		}
		s.refreshRho()
		if cost < s.rho {
			s.rho = cost
		}
		return
	}
	s.rho = cost
	s.best = plan
	s.stats.IncumbentUpdates++
}

// budgetOK enforces the node and time budgets; once either trips, the
// search unwinds returning the incumbent. With a shared budget, allowance
// is drawn in budgetChunk blocks; a worker aborts only when the pool is
// empty, so a parallel run expands at most NodeLimit nodes in total no
// matter how the work is distributed across workers. Either way a run the
// node budget stopped reports NodeLimitReached.
func (s *search) budgetOK() bool {
	if s.aborted {
		return false
	}
	if s.sharedBudget != nil {
		if s.allowance == 0 {
			take := int64(budgetChunk)
			rest := s.sharedBudget.Add(-take)
			if rest <= -take {
				s.aborted, s.stats.NodeLimitReached = true, true
				return false
			}
			if rest < 0 {
				take += rest
			}
			s.allowance = take
		}
		s.allowance--
	} else if s.opts.NodeLimit > 0 && s.stats.NodesExpanded > s.opts.NodeLimit {
		s.aborted, s.stats.NodeLimitReached = true, true
		return false
	}
	if s.stats.NodesExpanded&1023 == 0 {
		if s.hasDeadline && time.Now().After(s.deadline) {
			s.aborted = true
			return false
		}
		if s.opts.Cancel != nil {
			select {
			case <-s.opts.Cancel:
				s.aborted = true
				return false
			default:
			}
		}
	}
	return true
}
