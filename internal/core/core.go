// Package core implements the paper's primary contribution: a
// branch-and-bound optimizer that finds the linear ordering of services
// minimizing the bottleneck cost metric (query response time) when the
// services of a pipelined query communicate directly with each other and
// inter-service communication costs differ — the decentralized setting of
// Tsamoura, Gounaris and Manolopoulos (PODC 2010).
//
// # Search organization
//
// The search space is the tree of plan prefixes. Two measures guide the
// search (Section 2 of the paper):
//
//   - epsilon, the bottleneck cost of the current partial plan, and
//   - epsilonBar, the maximum cost any not-yet-placed service could still
//     contribute in any completion of the partial plan.
//
// The optimizer starts from the cheapest pair of services and repeatedly
// either appends the cheapest not-yet-investigated service with respect to
// the last service of the partial plan, or prunes:
//
//   - Lemma 1 (monotonicity): epsilon never decreases along a branch, so a
//     prefix with epsilon >= rho (the best complete cost so far) is pruned,
//     and the search terminates when no service pair could begin a cheaper
//     plan.
//   - Lemma 2 (closure): when epsilon >= epsilonBar, every completion of
//     the prefix costs exactly epsilon, so the prefix is closed and
//     recorded as a candidate solution.
//   - Lemma 3 (V-pruning): on closure, every plan sharing the prefix up to
//     and including the bottleneck service is pruned in one step, and the
//     search backtracks directly to the bottleneck position instead of one
//     level. Soundness relies on the expansion policy: children are tried
//     in increasing transfer cost from their parent's last service, and
//     root pairs in increasing pair cost.
//
// Every rule can be disabled individually through Options for the ablation
// experiments; disabling them all degenerates to exhaustive enumeration.
//
// The optimizer supports the paper's extensions: proliferative services
// (selectivity > 1, via a modified epsilonBar), precedence constraints,
// and source/sink transfer stages.
package core

import (
	"fmt"

	"serviceordering/internal/domtable"
	"serviceordering/internal/model"
)

// MaxServices bounds exact optimization; the search state uses 64-bit
// placement masks, and instances anywhere near this size are far beyond
// exact reach anyway.
const MaxServices = 64

// Optimize runs the branch-and-bound search on q with default options and
// returns a provably optimal plan.
func Optimize(q *model.Query) (Result, error) {
	return OptimizeWithOptions(q, Options{})
}

// OptimizeWithOptions runs the branch-and-bound search with explicit
// options.
func OptimizeWithOptions(q *model.Query, opts Options) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, fmt.Errorf("core: invalid query: %w", err)
	}
	if q.N() > MaxServices {
		return Result{}, fmt.Errorf("core: exact optimization supports at most %d services, got %d (use the heuristic baselines)", MaxServices, q.N())
	}
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	pr := newPrep(q)
	s := newSearch(pr, opts)
	s.dom, s.domBand = newDomTable(q.N(), opts)
	res, err := s.run()
	// Not deferred: a search that panics must drop its table and prep, not
	// hand half-written ones back to their pools.
	domtable.Put(s.dom)
	pr.release()
	return res, err
}

// OptimizeParallel returns OptimizeWithOptions(q, opts); workers is
// ignored. The exact search is sequential: a depth-first walk that keeps
// the ascending pair and child order Lemma 3 relies on.
//
// Deprecated: use OptimizeWithOptions. perfbench/trace.go is the last
// caller, and the benchmark change that stops calling it deletes this.
func OptimizeParallel(q *model.Query, opts Options, workers int) (Result, error) {
	return OptimizeWithOptions(q, opts)
}
