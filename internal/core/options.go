package core

import (
	"fmt"
	"time"

	"serviceordering/internal/model"
	"serviceordering/internal/trace"
)

// Options configures a branch-and-bound run. The zero value runs the full
// paper algorithm: all three lemmas enabled, tight completion bounds, no
// budget, no incumbent seed.
type Options struct {
	// DisableIncumbentPruning turns off the Lemma 1 rule (pruning
	// prefixes whose epsilon already reaches the best complete cost, and
	// the pair-level termination test). Ablation only: the search then
	// visits every prefix not closed by Lemma 2.
	DisableIncumbentPruning bool

	// DisableClosure turns off the Lemma 2 rule (closing a prefix when
	// epsilon >= epsilonBar). Ablation only.
	DisableClosure bool

	// DisableVPruning turns off the Lemma 3 rule: closures then backtrack
	// a single level instead of jumping to the bottleneck position.
	// Ablation only.
	DisableVPruning bool

	// LooseBounds computes epsilonBar from transfer maxima precomputed
	// over all services instead of the exact maxima over the services
	// still unplaced. Loose bounds are O(R) per node instead of O(R^2)
	// but close fewer prefixes. Ablation / large-instance tuning.
	LooseBounds bool

	// StrongLowerBound additionally prunes prefixes whose admissible
	// completion lower bound reaches rho. This rule is an extension of
	// ours, not part of the paper; it is measured in the F7 ablation.
	StrongLowerBound bool

	// InitialIncumbent seeds rho with a known feasible plan (for example
	// a greedy result, or the plan an adaptive replan starts from),
	// tightening Lemma 1 from the start. The plan must be valid for the
	// query. Without it the search starts from rho = +Inf.
	InitialIncumbent model.Plan

	// DisableDominance turns off the subset-dominance transposition table:
	// for the bottleneck objective, two prefixes over the same placed set
	// with the same last service have identical futures, so only the one
	// with the smallest finalized bottleneck needs extension. The rule is
	// exact (it never changes the optimum the search proves, nor the plan
	// that proves it); disabling it is for ablations and for measuring the
	// raw tree. Dominance is implicitly unavailable on instances too large
	// to pack a (mask, last) key into one word (n > 58).
	DisableDominance bool

	// DominanceTableBytes caps the memory of the dominance table
	// (0 = DefaultDominanceTableBytes). The table sizes itself to the
	// instance's state space under this cap; beyond the cap it admits
	// shallow prefixes preferentially and recycles slots with a
	// second-chance clock hand.
	DominanceTableBytes int64

	// NodeLimit aborts the search after this many expanded nodes
	// (0 = unlimited). An aborted search reports Optimal == false and
	// Stats.NodeLimitReached, and returns the best incumbent found.
	NodeLimit int64

	// TimeLimit aborts the search after this wall-clock duration
	// (0 = unlimited).
	TimeLimit time.Duration

	// Cancel, when non-nil, aborts the search as soon as the channel is
	// closed, exactly like a tripped budget: the run unwinds and returns
	// its best incumbent with Optimal == false. The serving stack wires a
	// request context's Done channel here so a disconnected client stops
	// burning cold-optimize CPU mid-search. Polled on the same cadence as
	// the time limit (every 1024 node expansions), so cancellation costs
	// nothing on the hot node loop.
	Cancel <-chan struct{}

	// Tracer, when non-nil, receives one event per search action
	// (expansion, prune, closure, V-jump, incumbent update). Use a fresh
	// recorder per run; recorders are not safe for concurrent use.
	Tracer *trace.Recorder
}

// Validate reports the first budget or table size no search can honor:
// a negative NodeLimit, TimeLimit or DominanceTableBytes. The searches
// reject such options per run; servers call Validate to refuse them at
// startup instead.
func (o Options) Validate() error {
	if o.NodeLimit < 0 {
		return fmt.Errorf("core: NodeLimit %d must be >= 0", o.NodeLimit)
	}
	if o.DominanceTableBytes < 0 {
		return fmt.Errorf("core: DominanceTableBytes %d must be >= 0 (use DisableDominance to turn the table off)", o.DominanceTableBytes)
	}
	if o.TimeLimit < 0 {
		return fmt.Errorf("core: TimeLimit %v must be >= 0", o.TimeLimit)
	}
	return nil
}

// Result is the outcome of a branch-and-bound run.
type Result struct {
	// Plan is the best ordering found; when Optimal is true it minimizes
	// the bottleneck cost over all feasible orderings.
	Plan model.Plan

	// Cost is Plan's bottleneck cost under Eq. (1).
	Cost float64

	// Optimal reports whether the search ran to completion, proving
	// optimality. It is false when a node or time budget aborted the
	// search early.
	Optimal bool

	// Stats describes the work the search performed.
	Stats Stats
}

// Stats counts the work performed and the effect of each pruning rule
// during one search; the F2/F7 experiments report these counters.
type Stats struct {
	// NodesExpanded counts search-tree nodes visited (prefixes of length
	// >= 2; the pair roots are included).
	NodesExpanded int64

	// PairsTried counts root pairs from which a descent was started.
	PairsTried int64

	// IncumbentPrunes counts prefixes discarded because epsilon >= rho
	// (Lemma 1).
	IncumbentPrunes int64

	// Closures counts prefixes closed because epsilon >= epsilonBar
	// (Lemma 2).
	Closures int64

	// VJumps counts closures whose bottleneck was not at the last
	// position, triggering a multi-level backtrack (Lemma 3), and
	// LevelsSkipped the total levels skipped by those jumps.
	VJumps        int64
	LevelsSkipped int64

	// StrongLBPrunes counts prefixes discarded by the optional strong
	// lower bound extension.
	StrongLBPrunes int64

	// DominancePrunes counts prefixes discarded because their
	// (placed-set, last-service) state was already committed to extension
	// with an equal-or-better finalized bottleneck (the transposition
	// table); DominanceOccupancy is the fraction of table slots holding a
	// state when the run ended.
	DominancePrunes    int64
	DominanceOccupancy float64

	// IncumbentUpdates counts improvements of rho found by the search
	// (an InitialIncumbent is not counted).
	IncumbentUpdates int64

	// NodeLimitReached reports that Options.NodeLimit stopped the run. A
	// run stopped by TimeLimit or Cancel leaves it false.
	NodeLimitReached bool

	// Elapsed is the wall-clock duration of the search.
	Elapsed time.Duration
}
