// Package planner is the service layer above the branch-and-bound core: it
// amortizes optimization across requests the way a production query engine
// amortizes planning across traffic.
//
// Three mechanisms stack:
//
//   - a canonical query signature (color refinement over the weighted
//     transfer digraph, services re-sorted under the resulting order, the
//     transfer matrix and precedence relation permuted to match) so
//     structurally identical queries hash equal regardless of how the
//     caller happened to number their services;
//   - a sharded, bounded LRU plan cache keyed by signature, fronted by a
//     canonicalization memo keyed by the SHA-256 digest of each query's
//     exact serialization (service names included, since the adaptive
//     overlay reprices by name), so identical resubmissions skip the
//     refinement pass, with hit/miss/eviction counters; and
//   - singleflight deduplication, so N concurrent requests for the same
//     signature trigger exactly one search and share its outcome.
//
// Every entry point that reads these caches — Optimize, Classify,
// ServeStale, SignatureFor — takes one lookup path: one memo probe
// (probeMemo, written only by Optimize: see canonicalFor), the plan
// cache's two reads (get and peek), one recovery of the previous
// generation's plan (stalePlan), and one step from a resident entry to an
// answer (canonical.answer), which refuses a plan that does not fit the
// query so that the request searches instead.
//
// OptimizeBatch fans a slice of instances across GOMAXPROCS workers and
// returns their results in input order. Every exact search, batched or
// not, is the one sequential branch-and-bound (core.OptimizeWithOptions).
//
// Above the exact tier sits the heuristic tier (internal/htier), and a
// request's route depends on the work its proof takes, not on its size.
// Every query up to core.MaxServices runs the exact search first, under
// the node budget Config.NodeLimit (DefaultNodeLimit unless set); a proof
// answers with TierExact. A search that spends that budget falls back to
// the deterministic planning portfolio, seeded with the search's
// incumbent. Queries past core.MaxServices go straight to the portfolio.
// Result.Tier records which tier (and which portfolio member) produced
// each plan.
//
// Cacheability is per tier. Exact results are cached only when proven
// optimal: a search stopped by Config.TimeLimit, the request deadline or
// a cancel returns its incumbent but leaves the cache untouched, so a
// later request with more time can still establish the optimum.
// Heuristic results are cached whenever the portfolio ran its full work
// budgets: an identical request would spend the same budgets again, so the
// entry is as good as a rerun. A search stopped by the node budget is
// deterministic, so a fallback seeded by one recomputes the identical
// plan.
package planner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/core"
	"serviceordering/internal/htier"
	"serviceordering/internal/model"
)

// Config tunes a Planner. The zero value is ready for production use:
// 4096-entry plan cache, canonicalization memo of twice that, and the
// heuristic tier behind the exact search's DefaultNodeLimit budget.
type Config struct {
	// CacheCapacity bounds the plan cache (entries across all shards).
	// Zero means DefaultCacheCapacity; negative disables caching
	// entirely (every request searches, singleflight still applies).
	CacheCapacity int

	// ParallelThreshold is ignored: every exact search is sequential.
	//
	// Deprecated: perfbench/trace.go is its last user; the benchmark
	// change that stops setting it deletes the field.
	ParallelThreshold int

	// NodeLimit is each exact search's node budget: a search that spends
	// it falls back to the heuristic portfolio, seeded with its incumbent,
	// and the fallback's answer is cached. Zero means DefaultNodeLimit; a
	// negative value means no limit, so every query up to
	// core.MaxServices is proven (queries past it still go to the
	// portfolio).
	NodeLimit int64

	// TimeLimit bounds each exact search's wall-clock time (0 = none; a
	// negative value fails every exact search). A request deadline
	// tightens it. A search stopped by either answers its incumbent with
	// TierExact, optimal false and uncached.
	TimeLimit time.Duration

	// OnSearch, when non-nil, is invoked once per search actually
	// executed (i.e. not served by cache or singleflight) — an exact
	// search and its portfolio fallback count once — with the signature
	// being searched, so a caller can observe dedup behavior (the tests
	// do). It may be called from multiple goroutines concurrently.
	OnSearch func(Signature)

	// Adaptive attaches the online statistics registry (internal/adapt)
	// and with it the adaptive replanning loop: every request resolves
	// against the registry's current generation snapshot — published
	// parameters overlay the client's (matched by service name) before
	// canonicalization and search — and every cache entry is stamped with
	// that generation. When drift publishes a new generation, stale
	// entries lazily read as misses and their plans seed the
	// re-optimization as initial incumbents. Nil (the default) disables
	// the loop entirely: generation stays 0 and the planner behaves
	// exactly as before.
	Adaptive *adapt.Registry
}

// DefaultCacheCapacity is the plan-cache size used when Config.CacheCapacity
// is zero.
const DefaultCacheCapacity = 4096

// DefaultParallelThreshold is the instance size from which the planner
// once ran a parallel search. The planner no longer reads it.
//
// Deprecated: perfbench/trace.go is its last user; the benchmark change
// that stops naming it deletes the constant.
const DefaultParallelThreshold = 13

// DefaultHeuristicThreshold is the instance size from which requests go
// straight to the heuristic tier: the first size past core.MaxServices,
// which the exact core cannot represent. Below it a request's route
// depends on its work, not its size: the exact search runs under the node
// budget, and only a search that spends it falls back to the portfolio.
const DefaultHeuristicThreshold = core.MaxServices + 1

// DefaultNodeLimit is the exact search's node budget when
// Config.NodeLimit is zero.
const DefaultNodeLimit = 1 << 19

// TierExact is the Result.Tier of plans proven by the exact
// branch-and-bound; heuristic plans report "heuristic/<member>" (see
// htier's Member* constants for the member names).
const TierExact = "exact"

// tierHeuristicPrefix prefixes the winning portfolio member in the tier
// label of heuristic results.
const tierHeuristicPrefix = "heuristic/"

// tierIncumbent labels a fallback whose answer is the spent exact
// search's own incumbent: no portfolio member found a cheaper plan.
const tierIncumbent = tierHeuristicPrefix + "bb"

// Planner serves optimization requests through the plan cache. It is safe
// for concurrent use by any number of goroutines.
type Planner struct {
	cfg    Config
	cache  *planCache // nil when caching is disabled
	memo   *rawMemo
	flight flightGroup

	searches     atomic.Int64
	sharedWaits  atomic.Int64
	memoHits     atomic.Int64
	replans      atomic.Int64
	searchNodes  atomic.Int64
	searchMicros atomic.Int64
	domPrunes    atomic.Int64
	domOccBits   atomic.Uint64 // Float64bits of the latest search's table occupancy

	// lat tracks end-to-end Optimize latency (successful requests only)
	// in a lock-free fixed-bucket histogram; Stats surfaces p50/p90/p99.
	lat latencyHist

	// tierCounts tallies executed searches by Result.Tier label. Mutex
	// protected: it is touched only on the cold (search) path, never on
	// warm hits, so contention is bounded by search throughput.
	tierMu     sync.Mutex
	tierCounts map[string]int64

	rawBufs sync.Pool // *[]byte scratch for encodeRaw, hashed by probeMemo
}

// countTier tallies one executed search under its tier label.
func (p *Planner) countTier(tier string) {
	p.tierMu.Lock()
	if p.tierCounts == nil {
		p.tierCounts = make(map[string]int64, 4)
	}
	p.tierCounts[tier]++
	p.tierMu.Unlock()
}

// New builds a Planner from cfg (zero value = defaults).
func New(cfg Config) *Planner {
	capacity := cfg.CacheCapacity
	if capacity == 0 {
		capacity = DefaultCacheCapacity
	}
	p := &Planner{cfg: cfg}
	if capacity > 0 {
		p.cache = newPlanCache(capacity)
	}
	memoCap := 2 * DefaultCacheCapacity
	if capacity > 0 {
		memoCap = 2 * capacity
	}
	p.memo = newRawMemo(memoCap)
	p.rawBufs.New = func() any { b := make([]byte, 0, 2048); return &b }
	return p
}

// Result is a planner outcome: the core optimization result plus cache
// provenance.
type Result struct {
	core.Result

	// Signature is the canonical identity the request resolved to.
	Signature Signature

	// Cached reports that the plan came from the cache; Stats is then
	// zero (no nodes were expanded for this request).
	Cached bool

	// Shared reports that the request piggybacked on a concurrent
	// identical search via singleflight rather than running its own.
	Shared bool

	// Replanned reports that this request's search was seeded with a
	// previous statistics generation's plan — the adaptive loop's
	// re-optimization path (Cached is then false: a real search ran).
	Replanned bool

	// Stale reports that the response was served from a previous
	// statistics generation's cached plan without a search — the overload
	// degraded mode (ServeStale). The plan and cost are the old
	// generation's answer: bounded regret in exchange for microsecond
	// latency while a background replan catches the entry up. HTTP
	// responses carry it as `"stale":true`.
	Stale bool

	// Tier records which planning tier produced the plan: TierExact for
	// the branch-and-bound search, or "heuristic/<member>" naming the
	// portfolio member whose plan won (e.g. "heuristic/local-search"; a
	// fallback that keeps the exact search's incumbent reads
	// "heuristic/bb"). Cached and shared results report the tier that
	// originally computed the entry.
	Tier string

	// ResponseFragment is the pre-serialized JSON fragment
	// `"cost":<num>,"optimal":<bool>,"signature":"<hex>","tier":"<tier>"`
	// for this outcome, built once when the result was recorded and
	// shared by every request resolving to the same cache entry. Every
	// successful result carries it, so HTTP servers splice it into
	// responses instead of re-marshaling; it is read-only and must not be
	// mutated or appended to in place.
	ResponseFragment []byte
}

// Stats is a snapshot of the planner's cache and dedup counters.
type Stats struct {
	// Hits and Misses count plan-cache lookups.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`

	// Searches counts optimization runs actually executed (both tiers,
	// an exact search and its portfolio fallback once; cache hits and
	// singleflight followers excluded).
	Searches int64 `json:"searches"`

	// TierCounts breaks Searches down by Result.Tier label ("exact",
	// "heuristic/bb", ...). Nil until the first search executes.
	TierCounts map[string]int64 `json:"tierCounts,omitempty"`

	// SharedWaits counts requests served by piggybacking on a
	// concurrent identical search (singleflight followers).
	SharedWaits int64 `json:"sharedWaits"`

	// Evictions counts plan-cache entries displaced by capacity.
	Evictions int64 `json:"evictions"`

	// Touches counts plan-cache reads that freshly set an entry's clock
	// touch bit (its second-chance reprieve from eviction), whichever read
	// came first: a request's own lookup, Classify, a fleet probe or a
	// stale-plan recovery. An entry is touched at most once per eviction
	// sweep, so under a stable working set Touches grows far slower than
	// Hits; a Touches rate approaching the Hits rate means the clock hand
	// is sweeping constantly — the cache is thrashing.
	Touches int64 `json:"touches"`

	// MemoHits counts canonicalization-memo hits (identical resubmissions
	// that skipped canonicalization).
	MemoHits int64 `json:"memoHits"`

	// Generation is the adaptive statistics generation requests are
	// currently resolved under (0 with no adaptive registry, or before
	// the first drift publish).
	Generation uint64 `json:"generation"`

	// Replans counts searches seeded with a stale generation's
	// plan — the adaptive loop's cache-invalidation re-optimizations.
	Replans int64 `json:"replans"`

	// Entries is the current plan-cache population.
	Entries int `json:"entries"`

	// SearchNodes and SearchMicros accumulate the branch-and-bound work
	// behind every executed search (cache hits and singleflight followers
	// contribute nothing): the production-side view of the search-engine
	// hot path.
	SearchNodes  int64 `json:"searchNodes"`
	SearchMicros int64 `json:"searchMicros"`

	// DominancePrunes accumulates the subtree prunes the subset-dominance
	// transposition table contributed across every executed search;
	// DominanceOccupancy is the table occupancy of the most recent search
	// (0 before any search ran, or with dominance disabled).
	DominancePrunes    int64   `json:"dominancePrunes"`
	DominanceOccupancy float64 `json:"dominanceOccupancy"`

	// OptimizeP50Micros, OptimizeP90Micros, and OptimizeP99Micros are
	// end-to-end Optimize latency quantiles in microseconds over every
	// successful request since the planner started (hits and misses
	// alike), from a fixed-bucket lock-free histogram: each value is the
	// upper bound of the bucket holding the quantile, at most ~12.5%
	// above the true latency. All zero before the first request.
	OptimizeP50Micros float64 `json:"optimizeP50Micros"`
	OptimizeP90Micros float64 `json:"optimizeP90Micros"`
	OptimizeP99Micros float64 `json:"optimizeP99Micros"`
}

// HitRate returns the plan-cache hit fraction in [0, 1]. The
// zero-denominator case (no lookups yet — a freshly started planner, or
// caching disabled) returns 0, not NaN: dqserve serializes this value
// into /v1/stats, and encoding/json refuses NaN outright, which would turn
// the endpoint's first scrape into an empty body.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a point-in-time snapshot of the planner counters.
func (p *Planner) Stats() Stats {
	s := Stats{
		Searches:           p.searches.Load(),
		SharedWaits:        p.sharedWaits.Load(),
		MemoHits:           p.memoHits.Load(),
		Generation:         snapGen(p.adaptiveSnap()),
		Replans:            p.replans.Load(),
		SearchNodes:        p.searchNodes.Load(),
		SearchMicros:       p.searchMicros.Load(),
		DominancePrunes:    p.domPrunes.Load(),
		DominanceOccupancy: math.Float64frombits(p.domOccBits.Load()),
	}
	q := p.lat.quantiles(0.50, 0.90, 0.99)
	s.OptimizeP50Micros, s.OptimizeP90Micros, s.OptimizeP99Micros = q[0], q[1], q[2]
	p.tierMu.Lock()
	if len(p.tierCounts) > 0 {
		s.TierCounts = make(map[string]int64, len(p.tierCounts))
		for tier, count := range p.tierCounts {
			s.TierCounts[tier] = count
		}
	}
	p.tierMu.Unlock()
	if p.cache != nil {
		s.Hits = p.cache.hits.Load()
		s.Misses = p.cache.misses.Load()
		s.Evictions = p.cache.evictions.Load()
		s.Touches = p.cache.touches.Load()
		s.Entries = p.cache.len()
	}
	return s
}

// Optimize returns an optimal plan for q, serving it from the plan cache
// when a structurally identical query has been optimized before and
// otherwise running (or joining) a branch-and-bound search.
func (p *Planner) Optimize(ctx context.Context, q *model.Query) (Result, error) {
	start := time.Now()
	res, err := p.optimize(ctx, q)
	if err == nil {
		// Failures (canceled contexts, invalid queries) are excluded so
		// the quantiles describe served traffic, not abandonment timing.
		p.lat.observe(time.Since(start))
	}
	return res, err
}

// adaptiveSnap returns the current statistics snapshot, or nil when the
// adaptive loop is disabled. One atomic pointer load; the snapshot is held
// for the whole request so a concurrent drift publish cannot split one
// request across two generations (at worst the request's outcome is
// stamped with the generation it started under and lazily replanned by a
// later request).
func (p *Planner) adaptiveSnap() *adapt.Snapshot {
	if p.cfg.Adaptive == nil {
		return nil
	}
	return p.cfg.Adaptive.Current()
}

func snapGen(s *adapt.Snapshot) uint64 {
	if s == nil {
		return 0
	}
	return s.Gen
}

// overlay applies the snapshot's published parameters to q (by service
// name), returning q itself when there is nothing to apply.
func overlay(q *model.Query, snap *adapt.Snapshot) *model.Query {
	if snap == nil {
		return q
	}
	eff, _ := snap.Overlay(q)
	return eff
}

// Adaptive returns the attached statistics registry (nil when the
// adaptive loop is disabled). The serve layer uses it to ingest POST
// /v1/observe reports and surface drift counters.
func (p *Planner) Adaptive() *adapt.Registry { return p.cfg.Adaptive }

// optimize is the uninstrumented request path. The warm hit costs: one
// pooled raw serialization + SHA-256 digest, one read-locked memo probe
// (plus a generation-stamp compare), one read-locked plan-cache probe, and
// one plan permutation — a single allocation (the caller-owned plan),
// pinned by TestOptimizeWarmHitAllocs with and without an adaptive
// registry.
//
// Every answer taken from a resident entry — the fresh hit, the leader's
// re-check, the follower's share — goes through canonical.answer, which
// refuses an entry whose plan does not fit the query; the request then
// searches as on a miss.
func (p *Planner) optimize(ctx context.Context, q *model.Query) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if q == nil {
		return Result{}, fmt.Errorf("planner: nil query")
	}
	// Validation precedes the memo probe, hit or miss: encodeRaw writes
	// ThreadCount(), which maps Threads -1, 0 and 1 to one value, so a
	// memo match does not prove q valid.
	if err := q.Validate(); err != nil {
		return Result{}, fmt.Errorf("planner: invalid query: %w", err)
	}

	snap := p.adaptiveSnap()
	gen := snapGen(snap)
	canon, eff, staleMemo := p.canonicalFor(q, snap, true)
	fresh, staleEntry := p.cache.get(canon.sig, gen)
	if res, ok := canon.answer(fresh); ok {
		return res, nil
	}
	// The warm hit never needs the overlaid query; on a memo hit it is
	// built only now, for the search and the stale plan's validation.
	if eff == nil {
		eff = overlay(q, snap)
	}
	incumbent, _ := p.stalePlan(canon, staleEntry, staleMemo, eff)

	// Miss: run (or join) the search for this signature. The leader
	// keeps its own core result so the miss path returns the exact plan
	// the search produced; followers relabel the canonical plan through
	// their own permutation.
	c, isLeader := p.flight.join(canon.sig)
	if isLeader {
		// Re-check the cache: a previous leader may have completed (and
		// cached) between our miss above and winning the flight, and a
		// redundant search here would also flake dedup accounting.
		if e, egen := p.cache.peek(canon.sig); egen == gen {
			if res, ok := canon.answer(e); ok {
				p.flight.complete(canon.sig, c, e, nil)
				return res, nil
			}
		}
		res, entry, err := p.searchAndRecord(ctx, eff, canon, gen, incumbent)
		p.flight.complete(canon.sig, c, entry, err)
		return res, err
	}

	// Follower: wait under our own context, not the leader's.
	select {
	case <-ctx.Done():
		return Result{}, ctx.Err()
	case <-c.done:
	}
	if c.err == nil && c.entry.shareable {
		if res, ok := canon.answer(c.entry); ok {
			p.sharedWaits.Add(1)
			res.Cached, res.Shared = false, true
			return res, nil
		}
	}
	// The leader failed or was truncated — an outcome of its budget and
	// context, not ours. Run our own search rather than propagate it
	// (followers on this rare path search independently of one another).
	res, _, err := p.searchAndRecord(ctx, eff, canon, gen, incumbent)
	return res, err
}

// answer turns a resident entry into the response for the query c
// describes, relabeling the canonical plan into the query's own indices.
// It refuses (false) a nil entry, and an entry whose plan does not hold
// one position per service: a structurally identical query always fits,
// so a misfit can only have arrived from outside — a SOP1 snapshot or a
// fleet replica, whose signature does not carry the service count — and
// would answer a partial plan or relabel out of range. The caller then
// searches, and the search's entry replaces the misfit.
func (c canonical) answer(e *cacheEntry) (Result, bool) {
	if e == nil || len(e.plan) != len(c.perm) {
		return Result{}, false
	}
	return Result{
		Result:           core.Result{Plan: c.fromCanonical(e.plan), Cost: e.cost, Optimal: e.optimal},
		Signature:        c.sig,
		Cached:           true,
		Tier:             e.tier,
		ResponseFragment: e.frag,
	}, true
}

// stalePlan recovers the previous generation's plan for this request, in
// the client's own index space, together with the entry it came from: the
// replan's incumbent seed, and ServeStale's degraded answer. Two sources,
// tried in order:
//
//   - a stale entry resident under the current effective signature (the
//     overlay left this query's parameters unchanged across the bump, or
//     they drifted back): identical canonical structure, so the current
//     permutation relabels it;
//   - a stale memo mapping for this exact query: its old
//     signature locates the old plan-cache entry, and its old permutation
//     relabels that plan out of the old canonical space.
//
// The recovered plan is validated against the effective query (it came
// from a structurally identical instance, but a hash collision or an
// evicted-and-repopulated entry must never poison a search or leak into a
// response) and dropped on any mismatch: the result is then nil, and a
// search starts cold, as on a first sight.
func (p *Planner) stalePlan(canon canonical, staleEntry *cacheEntry, staleMemo *rawEntry, eff *model.Query) (model.Plan, *cacheEntry) {
	src, via := staleEntry, canon
	if src == nil || len(src.plan) != len(canon.perm) {
		if staleMemo == nil {
			return nil, nil
		}
		src, _ = p.cache.peek(staleMemo.sig)
		via = staleMemo.canonical
		if src == nil || len(src.plan) != len(via.perm) {
			return nil, nil
		}
	}
	plan := via.fromCanonical(src.plan)
	if plan.Validate(eff) != nil {
		return nil, nil
	}
	return plan, src
}

// searchAndRecord runs this request's own search on its tier and records
// the outcome: the canonical-space entry, with the response fragment
// pre-serialized once so every future hit splices bytes instead of
// re-marshaling, is cached when shareable under the generation the
// request resolved against. The entry is returned for the leader to share
// with its followers.
func (p *Planner) searchAndRecord(ctx context.Context, eff *model.Query, canon canonical, gen uint64, incumbent model.Plan) (Result, *cacheEntry, error) {
	res, tier, shareable, err := p.searchTier(ctx, eff, canon.sig, incumbent)
	if err != nil {
		return Result{}, nil, err
	}
	entry := &cacheEntry{
		plan:      canon.toCanonical(res.Plan),
		cost:      res.Cost,
		optimal:   res.Optimal,
		tier:      tier,
		shareable: shareable,
		frag:      appendResultFragment(make([]byte, 0, 128), res.Cost, res.Optimal, canon.sig, tier),
	}
	if shareable {
		p.cache.put(canon.sig, entry, gen)
	}
	return Result{Result: res, Signature: canon.sig, Replanned: incumbent != nil, Tier: tier, ResponseFragment: entry.frag}, entry, nil
}

// appendResultFragment serializes the canonical-space response fields
// shared by every request hitting one cache entry. The float rendering
// matches encoding/json's (shortest 'f' form, 'e' with a trimmed exponent
// outside [1e-6, 1e21)), so fast-path responses and the encoding/json
// fallback agree byte for byte.
func appendResultFragment(dst []byte, cost float64, optimal bool, sig Signature, tier string) []byte {
	dst = append(dst, `"cost":`...)
	dst = appendJSONFloat(dst, cost)
	dst = append(dst, `,"optimal":`...)
	dst = strconv.AppendBool(dst, optimal)
	dst = append(dst, `,"signature":"`...)
	dst = hex.AppendEncode(dst, sig[:])
	dst = append(dst, `","tier":"`...)
	dst = append(dst, tier...)
	return append(dst, '"')
}

// appendJSONFloat renders f exactly as encoding/json does.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim a two-digit exponent's leading zero: 2e-07 -> 2e-7.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// maxMemoRawBytes bounds the serializations the canonicalization memo
// keys. A memo entry holds only a digest whatever the query's size, but
// the probe serializes and hashes the whole O(n^2) query, and past the
// bound (n ≈ 45) that costs about what canonicalizing does, so larger
// requests canonicalize from scratch — those instances are
// search-dominated anyway.
const maxMemoRawBytes = 16 << 10

// canonicalFor resolves q's canonical identity under the given statistics
// snapshot, consulting the memo first so repeat submissions of the same
// query skip both the overlay and refinement. The memo-hit fast path is
// allocation-free: the serialization is hashed in pooled scratch, and the
// returned value aliases the memo entry's perm/inv slices (read-only by
// construction) instead of copying them.
//
// The memo key is the digest of the client's exact query, names included,
// but the memoized signature and permutation describe the *effective*
// (overlay-applied) query, so memo entries are generation-stamped: after a
// drift publish the same query resolves to a fresh canonicalization of the
// new effective query, and the superseded mapping comes back as stale so
// the caller can chase it to the previous plan. The second result is the
// effective query when this call materialized it (miss paths), nil on a
// memo hit; the third is the stale previous-generation mapping, if any.
//
// write is the memo's one write switch, and only optimize sets it: the
// memo hit is counted and the miss memoized. Every other caller resolves
// without writing, because storing the fresh-generation mapping would
// consume the stale one — the breadcrumb Classify and ServeStale follow to
// the previous generation's plan, and the background replan's incumbent
// seed (a fresh memo hit returns no stale mapping).
func (p *Planner) canonicalFor(q *model.Query, snap *adapt.Snapshot, write bool) (canonical, *model.Query, *rawEntry) {
	gen := snapGen(snap)
	key, fresh, stale := p.probeMemo(q, gen)
	if fresh != nil {
		if write {
			p.memoHits.Add(1)
		}
		return fresh.canonical, nil, nil
	}
	eff := overlay(q, snap)
	c := canonicalize(eff)
	if write && key.ok {
		p.memo.put(key, c, gen)
	}
	return c, eff, stale
}

// probeMemo serializes q (encodeRaw, in pooled scratch), hashes it, and
// probes the canonicalization memo for that digest at generation gen: the
// one encode-hash-probe sequence every memo reader shares. It returns the
// key a miss is memoized under, and the fresh mapping or the stale
// previous-generation one (at most one is non-nil). Serializations past
// maxMemoRawBytes are never memoized, so they always miss.
func (p *Planner) probeMemo(q *model.Query, gen uint64) (key memoKey, fresh, stale *rawEntry) {
	bufp := p.rawBufs.Get().(*[]byte)
	*bufp = encodeRaw(q, (*bufp)[:0])
	if len(*bufp) <= maxMemoRawBytes {
		key = memoKey{digest: sha256.Sum256(*bufp), ok: true}
	}
	p.rawBufs.Put(bufp)
	if !key.ok {
		return key, nil, nil
	}
	fresh, stale = p.memo.get(key, gen)
	return key, fresh, stale
}

// searchTier runs this request's search and reports the result, its tier
// label, and whether the outcome is shareable (cacheable and adoptable by
// singleflight followers). Whatever runs — the exact search, the
// portfolio, or both — counts as one search.
func (p *Planner) searchTier(ctx context.Context, q *model.Query, sig Signature, incumbent model.Plan) (core.Result, string, bool, error) {
	if err := ctx.Err(); err != nil {
		return core.Result{}, "", false, err
	}
	p.searches.Add(1)
	if p.cfg.OnSearch != nil {
		p.cfg.OnSearch(sig)
	}
	if incumbent != nil {
		p.replans.Add(1)
	}
	run := p.searchExact
	if q.N() >= DefaultHeuristicThreshold {
		run = p.searchHeuristic
	}
	res, tier, shareable, err := run(ctx, q, incumbent)
	if err != nil {
		return core.Result{}, "", false, err
	}
	p.countTier(tier)
	p.searchNodes.Add(res.Stats.NodesExpanded)
	p.searchMicros.Add(res.Stats.Elapsed.Microseconds())
	p.domPrunes.Add(res.Stats.DominancePrunes)
	return res, tier, shareable, nil
}

// searchExact runs the exact search under the node budget. A proof
// answers with TierExact. So does a run stopped by the time limit, the
// request deadline or a cancel, with its incumbent, optimal false and
// unshareable: a truncated incumbent in the cache would mask the proof a
// request with more time could still reach. A run that spends the node
// budget falls back to the portfolio, seeded with its incumbent.
func (p *Planner) searchExact(ctx context.Context, q *model.Query, incumbent model.Plan) (core.Result, string, bool, error) {
	res, err := p.search(ctx, q, incumbent)
	if err != nil {
		return core.Result{}, "", false, err
	}
	if !res.Stats.NodeLimitReached {
		return res, TierExact, res.Optimal, nil
	}
	// The seed is nil when the budget ran out before a first plan.
	hres, tier, err := p.portfolio(ctx, q, res.Plan)
	if err != nil {
		return core.Result{}, "", false, err
	}
	if tier == tierHeuristicPrefix+htier.MemberSeed {
		// The seed is the exact attempt's incumbent, not a stale
		// generation's plan.
		tier = tierIncumbent
	}
	res.Plan, res.Cost, res.Optimal = hres.Plan, hres.Cost, false
	res.Stats.Elapsed += hres.Stats.Elapsed
	return res, tier, true, nil
}

// searchHeuristic runs the whole portfolio, seeded with the replan
// incumbent. Its members are budgeted in work, not time, so the outcome
// is deterministic and always shareable.
func (p *Planner) searchHeuristic(ctx context.Context, q *model.Query, incumbent model.Plan) (core.Result, string, bool, error) {
	res, tier, err := p.portfolio(ctx, q, incumbent)
	return res, tier, err == nil, err
}

// portfolio runs htier.Plan seeded with seed (nil for none) and reports
// its plan as an unproven core result timed over the whole portfolio.
func (p *Planner) portfolio(ctx context.Context, q *model.Query, seed model.Plan) (core.Result, string, error) {
	hres, err := htier.Plan(q, htier.Options{Seed: seed})
	if err != nil {
		return core.Result{}, "", err
	}
	if ctx.Err() == context.Canceled {
		// The requester vanished mid-portfolio; nobody is listening for
		// the plan.
		return core.Result{}, "", context.Canceled
	}
	return core.Result{Plan: hres.Plan, Cost: hres.Cost, Stats: core.Stats{Elapsed: hres.Stats.Elapsed}}, tierHeuristicPrefix + hres.Source, nil
}

// search runs one branch-and-bound under the configured budgets. A
// context deadline tightens the time limit. A non-nil incumbent (the
// previous generation's plan, already validated for q) seeds rho in place
// of the cold start.
func (p *Planner) search(ctx context.Context, q *model.Query, incumbent model.Plan) (core.Result, error) {
	nodes := p.cfg.NodeLimit
	if nodes == 0 {
		nodes = DefaultNodeLimit
	}
	opts := core.Options{
		NodeLimit:        max(nodes, 0), // the core's 0 is "no limit"
		TimeLimit:        p.cfg.TimeLimit,
		InitialIncumbent: incumbent,
		// Propagate request-context cancellation into the node loop: a
		// client that disconnects mid-search stops burning cold-optimize
		// CPU at the next budget poll instead of running the search to
		// completion.
		Cancel: ctx.Done(),
	}
	if deadline, ok := ctx.Deadline(); ok {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return core.Result{}, context.DeadlineExceeded
		}
		if opts.TimeLimit == 0 || remaining < opts.TimeLimit {
			opts.TimeLimit = remaining
		}
	}
	res, err := core.OptimizeWithOptions(q, opts)
	if err != nil {
		return core.Result{}, err
	}
	// A search aborted because the requester vanished has no audience:
	// surface the cancellation instead of a partial result. Deadline
	// expiry is deliberately NOT remapped — the search already honors
	// deadlines through TimeLimit and returns its truncated incumbent, and
	// a search finishing right at its tightened limit would otherwise flip
	// nondeterministically between the two outcomes.
	if ctx.Err() == context.Canceled {
		return core.Result{}, context.Canceled
	}
	p.domOccBits.Store(math.Float64bits(res.Stats.DominanceOccupancy))
	return res, nil
}
