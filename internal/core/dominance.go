package core

import (
	"serviceordering/internal/domtable"
)

// This file wires the subset-dominance transposition table
// (internal/domtable) into the branch-and-bound search. The rule:
//
// For the bottleneck objective, the cost of any completion of a prefix P
// with placed set S and last service l decomposes as
//
//	cost(P · ext) = max(maxDone(P), F(S, l, ext))
//
// where maxDone(P) is the maximum finalized term of P and F covers the
// terms of l's finalization and of the extension. F depends on P only
// through (S, l) and prodBefore(P): the selectivity product over S \ {l},
// the remaining set (the complement of S), and l's outgoing transfer row.
// Mathematically prodBefore is determined by (S, l) too, but the search
// accumulates it as a float product in prefix order, so two prefixes over
// the same set can carry products an ulp apart; the table therefore keys
// states as (S, l, bits(prodBefore)), under which matched prefixes have
// BITWISE-IDENTICAL futures and differ only in maxDone — dominance then
// holds exactly in the float arithmetic the optimum is defined by, not
// just in the reals. If a prefix A with maxDone(A) <= maxDone(B) has been
// committed to extension, every completion of B is matched or beaten by
// the corresponding completion of A, so B need never be extended.
// Feasibility is preserved because precedence admissibility depends only
// on the placed set.
//
// Exactness under the other rules, by strong induction on the
// remaining-set size: a table value always traces to a
// node that was NOT pruned and therefore committed to searching its
// subtree; within that subtree every prune is sound (Lemma 1 against a
// bound that never undercuts the optimum, exact Lemma 2 closures, Lemma 3
// jumps, and — inductively, on strictly smaller remaining sets —
// dominance), so the subtree's best completion is realized or matched by
// the incumbent. Any optimal plan routed through a dominance-pruned
// prefix is therefore matched by a plan through the recorded prefix.
// Equal-bound cycles cannot deadlock the argument: pruning requires a
// pre-existing entry, and entries are only written by nodes that did not
// prune.
//
// The induction assumes published commitments are honored. A node or time
// budget that stops the run does not break it: a pruned arrival B always
// comes after the recorded prefix A's subtree completed (the walk is
// depth-first), so a budget that trips inside A's subtree stops the run
// before B is reached. Proven optimality is unaffected either way — any
// aborted run reports Optimal == false — but the ANYTIME incumbent of a
// budget-truncated run can still differ from a dominance-off run's, since
// the two spend the same node budget on different trees (the same holds
// for Lemma 1 pruning against an InitialIncumbent seed; disable dominance,
// or pass no seed, when tuning anytime behavior under hard budgets).
//
// The rule is moreover plan-preserving, not just cost-preserving: a
// pruned prefix B is always visited after the recorded prefix A's subtree
// completed, whose incumbent updates already undercut everything B's
// subtree contains, so the incumbent stream — and with it the returned
// plan — is bit-for-bit the one the dominance-off search produces. The
// differential tests pin both properties.

// DefaultDominanceTableBytes is the dominance-table memory cap used when
// Options.DominanceTableBytes is zero. It is a ceiling, not the usual
// size: domtable sizes a table to an eighth of the combinatorial state
// space (searches publish far fewer states than the bound — see the sizing
// policy there), so the cap only binds from n = 19 up, where it clamps
// the table to 262,144 slots and clock-hand eviction recycles the rest.
// Nor is that size allocated up front: every search draws a 128 KiB table
// from domtable's one pool, whatever its n, and the table grows four times
// larger, up to that size, only when a full set would otherwise evict. An
// idle floor table stays resident between searches until the garbage
// collector drains the pool; what a table grew into goes back to the
// collector when the search ends.
const DefaultDominanceTableBytes = domtable.DefaultTableBytes

// domMinDepth is the shallowest prefix depth admitted to the table.
// Depth-2 states are in bijection with root pairs (each visited at most
// once from the sorted pair list), so memoizing them buys nothing.
const domMinDepth = 3

// domMinServices is the smallest instance the table is built for: below
// it no depth lies strictly between domMinDepth and the complete plan.
const domMinServices = 4

// newDomTable draws the dominance table for an n-service run under opts
// from domtable's pool (at its floor size, growing on demand to the size
// the cap allows), returning nil (dominance off) when disabled, when
// the instance is outside the packable range, or when the memory cap
// cannot hold a useful table. The second result is the deepest admitted
// prefix depth. The caller hands the table back with domtable.Put once
// the search has returned.
func newDomTable(n int, opts Options) (*domtable.Table, int) {
	if opts.DisableDominance || n < domMinServices {
		return nil, 0
	}
	capBytes := opts.DominanceTableBytes
	if capBytes == 0 {
		capBytes = DefaultDominanceTableBytes
	}
	t := domtable.Get(n, capBytes)
	if t == nil {
		return nil, 0
	}
	band := t.AdmitBand(n)
	if band < domMinDepth {
		domtable.Put(t)
		return nil, 0
	}
	return t, band
}
