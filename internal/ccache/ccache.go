// Package ccache provides the bounded concurrent store behind the serving
// hot path: a read-lock-free CLOCK / S3-FIFO-style cache.
//
// The store shards its key space so writers on different shards never
// contend. Its defining property is that a lookup takes no lock and writes
// nothing on a steady-state hit: it loads an atomically published map and,
// at most once per eviction sweep, CASes a per-entry touch bit. Inserts and
// evictions serialize on a shard mutex and publish a fresh map copy
// (copy-on-write) — O(shard) per insert, the deliberate trade for a
// zero-contention read path, acceptable because planner inserts only happen
// after work that is orders of magnitude dearer (a branch-and-bound search,
// a color-refinement pass, a JSON parse).
//
// Eviction is a second-chance sweep over the shard ring: touched entries
// get their bit cleared and one more round, untouched entries leave in
// insertion order (so one-hit wonders drain quickly, as in S3-FIFO's
// small queue).
package ccache

import (
	"sync"
	"sync/atomic"
)

// effectiveShards clamps the shard count so a small capacity is still
// honored: with more shards than entries, per-shard rounding would retain
// up to `shards` entries no matter how low the configured bound. Both the
// requested shard count and the result are powers of two, so callers'
// shardOf values can simply be masked down.
func effectiveShards(capacity, shards int) int {
	for shards > 1 && shards > capacity {
		shards >>= 1
	}
	return shards
}

// perShardCapacity spreads capacity across shards, rounding up so every
// shard holds at least one entry.
func perShardCapacity(capacity, shards int) int {
	perShard := (capacity + shards - 1) / shards
	if perShard < 1 {
		perShard = 1
	}
	return perShard
}

// ---------------------------------------------------------------------------
// clock store

// clockEntry is one resident (key, value) pair. key, val and gen are
// immutable; touched is the CLOCK reference bit, set lock-free on lookup
// and cleared by the eviction sweep; pos is the entry's ring slot, stable
// for the entry's lifetime and guarded by the shard mutex.
type clockEntry[K comparable, V any] struct {
	key     K
	val     V
	gen     uint64
	pos     int
	touched atomic.Bool
}

// clockShard is one lock-striped segment. Readers only load the published
// map pointer; writers mutate ring/hand under mu and publish a fresh map.
type clockShard[K comparable, V any] struct {
	mu   sync.Mutex
	live atomic.Pointer[map[K]*clockEntry[K, V]]
	ring []*clockEntry[K, V]
	hand int
	cap  int
}

func newClockShard[K comparable, V any](capacity int) *clockShard[K, V] {
	s := &clockShard[K, V]{cap: capacity, ring: make([]*clockEntry[K, V], 0, capacity)}
	m := make(map[K]*clockEntry[K, V], capacity)
	s.live.Store(&m)
	return s
}

// get is the contention-free read path: one atomic map load plus, at most
// once per entry per sweep round, one CAS to set the touch bit. Entries
// whose bit is already set pay a single atomic load on a read-shared line.
func (s *clockShard[K, V]) get(key K) (V, uint64, bool, bool) {
	e, ok := (*s.live.Load())[key]
	if !ok {
		var zero V
		return zero, 0, false, false
	}
	touched := false
	if !e.touched.Load() {
		// CAS (not Store) so two racing first-touchers count once.
		touched = e.touched.CompareAndSwap(false, true)
	}
	return e.val, e.gen, true, touched
}

func (s *clockShard[K, V]) put(key K, val V, gen uint64) (evicted int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.live.Load()
	e := &clockEntry[K, V]{key: key, val: val, gen: gen}
	if prev, ok := old[key]; ok {
		// Replace in place with a fresh entry so readers of the previous
		// map still see a coherent (key, val, gen) triple; the slot, touch
		// state, and population are unchanged. The generation stamp is the
		// new one: re-putting a key is how a stale entry is refreshed.
		e.pos = prev.pos
		e.touched.Store(prev.touched.Load())
		s.ring[e.pos] = e
		s.publish(old, e, nil)
		return 0
	}
	if len(s.ring) < s.cap {
		e.pos = len(s.ring)
		s.ring = append(s.ring, e)
		s.publish(old, e, nil)
		return 0
	}
	// Second-chance sweep: clear-and-skip touched entries, evict the first
	// untouched one. Concurrent readers can re-touch entries behind the
	// hand, so the sweep is bounded at two full rounds; if readers out-race
	// even that (every entry permanently hot), the entry under the hand is
	// evicted regardless — bounded work beats strict policy here.
	victim := (*clockEntry[K, V])(nil)
	for step := 0; step < 2*s.cap; step++ {
		cand := s.ring[s.hand]
		if cand.touched.Load() {
			cand.touched.Store(false)
			s.advanceHand()
			continue
		}
		victim = cand
		break
	}
	if victim == nil {
		victim = s.ring[s.hand]
	}
	e.pos = victim.pos
	s.ring[e.pos] = e
	s.advanceHand()
	s.publish(old, e, &victim.key)
	return 1
}

func (s *clockShard[K, V]) advanceHand() {
	s.hand++
	if s.hand >= len(s.ring) {
		s.hand = 0
	}
}

// publish installs a fresh map holding old's entries plus add, minus del.
func (s *clockShard[K, V]) publish(old map[K]*clockEntry[K, V], add *clockEntry[K, V], del *K) {
	next := make(map[K]*clockEntry[K, V], len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	if del != nil {
		delete(next, *del)
	}
	next[add.key] = add
	s.live.Store(&next)
}

func (s *clockShard[K, V]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}

// Clock is the sharded read-lock-free store: a bounded concurrent map.
// Get reports the value, whether it was present, and whether this lookup
// freshly set the entry's touch bit; Put reports how many entries capacity
// displaced.
//
// Every entry additionally carries an immutable generation stamp, the
// invalidation mechanism behind adaptive replanning: a caller that
// versions its key space (the planner stamps entries with the statistics
// generation they were computed under) reads the stamp back from GetGen
// and treats a mismatched entry as stale — typically a miss whose resident
// value still serves as a replan's incumbent seed. The store itself never
// interprets the stamp: there is no stop-the-world flush on a generation
// bump, stale entries simply stop matching and age out through the normal
// eviction sweep (or are overwritten in place by their fresh-generation
// replacement). Get/Put are the gen-oblivious forms: Put stamps generation
// zero, Get drops the stamp.
type Clock[K comparable, V any] struct {
	shards  []*clockShard[K, V]
	shardOf func(K) int
	mask    int // len(shards)-1; masks shardOf down when shards were clamped
}

// NewClock builds a clock store with the given total capacity across
// shards (a power of two); shardOf maps a key onto [0, shards). When
// capacity is below the shard count, the store uses fewer shards (masking
// shardOf down) so the capacity bound stays honored.
func NewClock[K comparable, V any](capacity, shards int, shardOf func(K) int) *Clock[K, V] {
	shards = effectiveShards(capacity, shards)
	perShard := perShardCapacity(capacity, shards)
	c := &Clock[K, V]{shards: make([]*clockShard[K, V], shards), shardOf: shardOf, mask: shards - 1}
	for i := range c.shards {
		c.shards[i] = newClockShard[K, V](perShard)
	}
	return c
}

func (c *Clock[K, V]) Get(key K) (V, bool, bool) {
	v, _, ok, touched := c.shards[c.shardOf(key)&c.mask].get(key)
	return v, ok, touched
}

func (c *Clock[K, V]) GetGen(key K) (V, uint64, bool, bool) {
	return c.shards[c.shardOf(key)&c.mask].get(key)
}

func (c *Clock[K, V]) Put(key K, val V) int { return c.PutGen(key, val, 0) }

func (c *Clock[K, V]) PutGen(key K, val V, gen uint64) int {
	return c.shards[c.shardOf(key)&c.mask].put(key, val, gen)
}
func (c *Clock[K, V]) Len() int {
	total := 0
	for _, sh := range c.shards {
		total += sh.len()
	}
	return total
}

// Range calls f for every resident entry until f returns false, shard by
// shard. Each shard contributes one atomically published map snapshot, so
// the walk takes no locks and never blocks writers; entries replaced
// mid-walk appear with the (val, gen) they had when their shard's snapshot
// was loaded. The view is consistent per shard but not across shards:
// entries inserted or evicted on other shards while the walk runs may or
// may not appear. That is exactly the guarantee a snapshot dump needs —
// every entry seen is a coherent (key, val, gen) triple that was resident
// at some instant during the call. Order is unspecified. f may call back
// into the store; it sees the pre-walk snapshot of the current shard.
func (c *Clock[K, V]) Range(f func(key K, val V, gen uint64) bool) {
	for _, sh := range c.shards {
		for k, e := range *sh.live.Load() {
			if !f(k, e.val, e.gen) {
				return
			}
		}
	}
}

// FNV64 is FNV-1a over b: cheap, allocation-free, and deterministic
// across processes (unlike hash/maphash). Callers key clock stores by
// it and must tolerate collisions, e.g. by verifying stored bytes.
func FNV64(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}
