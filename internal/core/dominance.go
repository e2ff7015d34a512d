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
// Exactness under the other rules and under concurrency, by strong
// induction on the remaining-set size: a table value always traces to a
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
// The induction assumes published commitments are honored, which a node
// or time budget can break: a worker that publishes a state and then
// aborts mid-subtree leaves a commitment nothing searched, and arrivals
// pruned against it lose completions no one explored. Proven optimality
// is unaffected — any aborted run already reports Optimal == false — but
// the ANYTIME incumbent of a budget-truncated run can be worse with
// dominance on than off (the same caveat applies to Lemma 1 pruning
// against an InitialIncumbent seed under truncation; disable dominance, or
// pass no seed, when tuning anytime behavior under hard budgets).
//
// In the SEQUENTIAL search the rule is moreover plan-preserving, not just
// cost-preserving: a pruned prefix B is always visited after the recorded
// prefix A's subtree completed, whose incumbent updates already undercut
// everything B's subtree contains, so the incumbent stream — and with it
// the returned plan — is bit-for-bit the one the dominance-off search
// produces. The differential tests pin both properties.

// DefaultDominanceTableBytes is the dominance-table memory cap used when
// Options.DominanceTableBytes is zero. It is a ceiling, not the usual
// size: domtable.New targets an eighth of the combinatorial state space
// (searches publish far fewer states than the bound — see the sizing
// policy there), so the cap only binds from n = 19 up, where it clamps
// the table to 262,144 slots and clock-hand eviction recycles the rest.
// Searches recycle tables of up to 5 MiB (n <= 17 under this cap)
// through domtable's per-n pool, so an idle table of each recently
// searched n stays resident between searches until the garbage collector
// drains the pool; the 10 MiB tables of n = 18 up are allocated per
// search.
const DefaultDominanceTableBytes = domtable.DefaultTableBytes

// domMinDepth is the shallowest prefix depth admitted to the table.
// Depth-2 states are in bijection with root pairs (each visited at most
// once from the sorted pair list), so memoizing them buys nothing.
const domMinDepth = 3

// domMinServices is the smallest instance the table is built for: below
// it no depth lies strictly between domMinDepth and the complete plan.
const domMinServices = 4

// newDomTable draws the dominance table for an n-service run under opts
// from domtable's pool, returning nil (dominance off) when disabled, when
// the instance is outside the packable range, or when the memory cap
// cannot hold a useful table. The second result is the deepest admitted
// prefix depth. The caller hands the table back with domtable.Put once
// the last searcher using it has returned.
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
