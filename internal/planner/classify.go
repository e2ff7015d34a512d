package planner

import (
	"cmp"

	"serviceordering/internal/core"
	"serviceordering/internal/model"
)

// This file is the planner's contribution to overload survival: a
// temperature probe the admission layer prices requests with, which moves
// no serving counter but Touches, and the stale-serve path that answers a
// shed-worthy cold request from the previous generation's resident plan
// instead of refusing it. Both read through the lookup path Optimize
// takes (see the package comment).

// Temperature classifies what resident state can answer a query without a
// search. The admission controller maps it onto cost classes: Warm
// requests cost microseconds and are shed last; Stale requests can be
// served degraded (old plan, "stale":true) instead of shed; Cold requests
// need a full optimize and are shed first.
type Temperature int

const (
	// TempCold: nothing resident — answering needs a search. Also the
	// conservative answer for unclassifiable queries (nil, invalid, too
	// large for the memo): the admission layer then prices them at full
	// search cost, which can shed a relabeled-but-warm query under
	// overload; the alternative (optimistic Warm) would let cold work
	// bypass the shed policy, the worse failure.
	TempCold Temperature = iota
	// TempStale: a previous generation's plan is resident for this
	// query's structure — stale-serve eligible.
	TempStale
	// TempWarm: a fresh-generation memo + plan-cache hit — the request
	// will be answered in microseconds.
	TempWarm
)

func (t Temperature) String() string {
	switch t {
	case TempWarm:
		return "warm"
	case TempStale:
		return "stale"
	default:
		return "cold"
	}
}

// Classify probes the canonicalization memo and plan cache for q without
// running a search and without inserting anything. No hit, miss or
// memoHits counter moves, so classification of a request that is then
// shed leaves the serving statistics untouched. Its one side effect is
// the probed entry's clock touch bit (the entry is about to be read for
// real if the request is admitted), counted in Touches when freshly set
// like any other read's; the admitted request's own lookup then finds
// the bit already set, so Touches ends where it would without the probe.
//
// The probe is memo-first: a query whose exact bytes were never seen
// resolves TempCold even when a structurally identical query is cached
// under another labeling — running color refinement here would cost a
// meaningful fraction of the warm hit it is trying to price. That
// conservatism only ever sheds too eagerly, never admits too cheaply.
func (p *Planner) Classify(q *model.Query) Temperature {
	if q == nil {
		return TempCold
	}
	n := q.N()
	if n == 0 || (!p.useHeuristicTier(n) && n > core.MaxServices) {
		return TempCold
	}
	bufp := p.rawBufs.Get().(*[]byte)
	defer p.rawBufs.Put(bufp)
	gen := snapGen(p.adaptiveSnap())
	_, fresh, stale := p.probeMemo(q, gen, bufp)
	mapping := cmp.Or(fresh, stale)
	if mapping == nil {
		return TempCold
	}
	e, egen := p.cache.peek(mapping.sig)
	switch {
	case e == nil:
		return TempCold
	case fresh != nil && egen == gen:
		// A fresh memo mapping with a resident entry of the same
		// generation is warm; any other resident entry is stale-servable.
		return TempWarm
	default:
		return TempStale
	}
}

// ServeStale answers q from a resident previous-generation plan without
// searching: the degraded mode the serve layer falls back to when a cold
// re-optimize would otherwise be shed. The response is the old
// generation's plan and cost verbatim (bounded regret, not current
// optimality), flagged Stale; the caller is expected to enqueue a
// background replan so the entry catches up. It never writes the memo
// (see canonicalFor).
//
// The second return is false when nothing stale-servable is resident
// (the caller sheds as it would have). A fresh entry that materialized
// since classification is served fresh (Stale false) — never worse than
// promised.
func (p *Planner) ServeStale(q *model.Query) (Result, bool) {
	if q == nil || q.Validate() != nil {
		return Result{}, false
	}
	snap := p.adaptiveSnap()
	canon, eff, staleMemo := p.canonicalFor(q, snap, false)
	fresh, staleEntry := p.cache.get(canon.sig, snapGen(snap))
	if res, ok := canon.answer(fresh); ok {
		return res, true
	}
	if eff == nil {
		eff = overlay(q, snap)
	}
	plan, src := p.stalePlan(canon, staleEntry, staleMemo, eff)
	if plan == nil {
		return Result{}, false
	}
	// The answer names the current signature, the one the caller enqueues
	// the background replan under. A plan recovered through the stale memo
	// mapping comes from an entry whose fragment names the previous
	// signature, so the fragment is rebuilt: one allocation, on the
	// degraded path only.
	return Result{
		Result:           core.Result{Plan: plan, Cost: src.cost, Optimal: src.optimal},
		Signature:        canon.sig,
		Cached:           true,
		Stale:            true,
		Tier:             src.tier,
		ResponseFragment: appendResultFragment(make([]byte, 0, 128), src.cost, src.optimal, canon.sig, src.tier),
	}, true
}
