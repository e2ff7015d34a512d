package planner

import (
	"bytes"
	"hash/maphash"
	"sync/atomic"

	"serviceordering/internal/ccache"
)

// This file binds the planner's two caches — the plan cache (Signature ->
// cached plan) and the canonicalization memo (seeded hash of the raw
// serialization -> signature + permutation) — to the read-lock-free clock
// store in internal/ccache: one atomic map load per warm hit, no mutex, no
// promotion. Counters are atomics aggregated on read.
//
// The plan cache has two reads. get is a request's own lookup and counts
// a hit or a miss; peek re-reads without counting either (the leader's
// re-check, the previous generation's plan, Classify and the fleet
// probes). Both set the entry's clock touch bit and count it in Touches
// when they set it freshly, so Touches does not depend on which read came
// first: an admission probe ahead of a request's own lookup moves the
// count no more than the lookup alone would.
//
// Both caches are generation-versioned for adaptive replanning: every
// entry is stamped (via ccache.PutGen) with the statistics generation it
// was computed under, and a lookup is only a hit when the entry's stamp
// matches the request's generation. A stale entry reads as a miss but is
// handed back separately — the resident plan seeds the re-optimization as
// its initial incumbent, and the stale raw-memo mapping locates the
// previous generation's plan for byte-identical resubmissions whose
// effective signature changed. There is no flush on a generation bump:
// stale entries are overwritten by their replacements or age out through
// the normal eviction sweep. Without an adaptive registry the generation
// is always zero and every path below is byte-for-byte the pre-v5
// behavior.

// cacheEntry is a cached optimization outcome in canonical index space.
type cacheEntry struct {
	plan    []int // canonical-space ordering
	cost    float64
	optimal bool

	// tier records which planning tier produced the entry ("exact", or
	// "heuristic/<member>"), echoed into every response served from it.
	tier string

	// shareable marks entries whose outcome is safe to reuse across
	// requests: exact results only when proven optimal (a budget-truncated
	// incumbent must not mask a later uncapped request's proof), heuristic
	// results whenever the portfolio ran its full deterministic budgets
	// (identical requests would recompute the identical plan). Only
	// shareable entries enter the cache or are adopted by singleflight
	// followers; record() still builds non-shareable entries so the
	// leader's own response can splice the fragment.
	shareable bool

	// frag is the pre-serialized JSON response fragment
	// `"cost":...,"optimal":...,"signature":"...","tier":"..."` shared
	// verbatim by every HTTP response assembled from this entry (the plan
	// cannot be pre-serialized: it is permuted into each caller's own
	// index space). Read-only after record() builds it.
	frag []byte
}

// rawEntry memoizes the canonicalization of one exact byte serialization.
type rawEntry struct {
	raw []byte // full key, verified on lookup (bucket hash may collide)
	canonical
}

// cacheShardCount is the number of shards; a power of two so the shard
// index is a mask. 64 keeps both read-side contention and the clock
// store's copy-on-write insert cost (O(capacity/shards)) low.
const cacheShardCount = 64

func sigShard(s Signature) int { return s.shardIndex(cacheShardCount) }
func keyShard(k uint64) int    { return int(k & (cacheShardCount - 1)) }

// planCache is the sharded signature-keyed plan cache with
// hit/miss/eviction/touch accounting.
type planCache struct {
	store *ccache.Clock[Signature, *cacheEntry]

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	touches   atomic.Int64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{store: ccache.NewClock[Signature, *cacheEntry](capacity, cacheShardCount, sigShard)}
}

// get looks sig up at the given generation: a resident entry with that
// stamp is a hit, returned as fresh. A resident entry stamped with another
// generation is a miss (counted as one) whose value is still returned as
// stale: the caller seeds its re-optimization with the stale plan instead
// of discarding the work it embodies. A nil cache (caching disabled)
// holds nothing and counts nothing.
func (c *planCache) get(sig Signature, gen uint64) (fresh, stale *cacheEntry) {
	if c == nil {
		return nil, nil
	}
	e, egen := c.peek(sig)
	if e != nil && egen == gen {
		c.hits.Add(1)
		return e, nil
	}
	c.misses.Add(1)
	return nil, e
}

// peek returns whatever is resident under sig, of any generation, with
// its generation stamp (nil when nothing is), without moving the hit and
// miss counters.
func (c *planCache) peek(sig Signature) (*cacheEntry, uint64) {
	if c == nil {
		return nil, 0
	}
	e, gen, _, touched := c.store.GetGen(sig)
	if touched {
		c.touches.Add(1)
	}
	return e, gen
}

func (c *planCache) put(sig Signature, e *cacheEntry, gen uint64) {
	if c == nil {
		return
	}
	if n := c.store.PutGen(sig, e, gen); n > 0 {
		c.evictions.Add(int64(n))
	}
}

func (c *planCache) len() int { return c.store.Len() }

// rawMemo is the sharded canonicalization memo keyed by a seeded maphash
// of the query's exact serialization. The seed is drawn per planner, so
// the key never leaves the process and crafted collisions cannot flood a
// bucket. Bucket collisions are disambiguated by comparing the stored
// bytes; a mismatch is treated as a miss and the bucket is overwritten
// (the newer query is the hotter one).
type rawMemo struct {
	seed  maphash.Seed
	store *ccache.Clock[uint64, *rawEntry]
}

func newRawMemo(capacity int) *rawMemo {
	return &rawMemo{seed: maphash.MakeSeed(), store: ccache.NewClock[uint64, *rawEntry](capacity, cacheShardCount, keyShard)}
}

// key is raw's bucket key.
func (m *rawMemo) key(raw []byte) uint64 { return maphash.Bytes(m.seed, raw) }

// get resolves the memoized canonicalization of raw at the given
// generation. A byte-verified entry stamped with another generation is a
// miss (the overlay parameters — and therefore the effective signature and
// permutation — may have changed) returned separately as stale, so the
// caller can chase the previous generation's signature to its cached plan
// and seed the replan with it.
func (m *rawMemo) get(key uint64, raw []byte, gen uint64) (fresh, stale *rawEntry) {
	e, egen, ok, _ := m.store.GetGen(key)
	if !ok || !bytes.Equal(e.raw, raw) {
		return nil, nil
	}
	if egen != gen {
		return nil, e
	}
	return e, nil
}

func (m *rawMemo) put(key uint64, e *rawEntry, gen uint64) {
	m.store.PutGen(key, e, gen)
}
