// Package domtable implements the transposition table behind the exact
// subset-dominance rule: for a bottleneck objective, two prefixes over the
// same placed set with the same last element have identical futures (same
// remaining set, same selectivity product over the placed set minus the
// last element, same outgoing transfer row), so only the prefix with the
// smallest finalized bottleneck ever needs extension. The table records,
// per state, the smallest finalized bottleneck the search has committed to
// extending; later arrivals at the same state with an equal-or-worse
// bottleneck are pruned.
//
// A state is (mask, last, prodBits): the placed set, the last element, and
// the exact BIT PATTERN of the selectivity product over mask minus last.
// Mathematically the product is determined by the set, but floating-point
// products depend on multiplication order, and the search accumulates them
// in prefix order — two prefixes over the same set can carry products an
// ulp apart, and their futures then differ by rounding. Requiring the
// product bits to match makes every future computation of the matched
// prefixes bitwise identical, so dominance stays exact down to the last
// bit (the price is a forfeited prune when products disagree by rounding).
//
// Design constraints, in order:
//
//   - Exactness. A pruned state must provably contain no plan improving on
//     the one the recorded state's subtree (soundly searched) can reach.
//     The table therefore only ever returns a bound that was published for
//     that exact state, and the bound held for a state only ever
//     decreases.
//   - Bounded memory. The table is sized from a hard byte cap, organized
//     as sharded set-associative buckets; full sets evict with a
//     second-chance clock hand per shard over per-entry reference bits, so
//     long runs on instances beyond the exact-table regime recycle space
//     instead of growing past the cap.
//   - One owner per search, recycled between searches. Entries are only
//     valid for the costs of the query that published them: a bound left
//     over from another query can prune that query's true optimum. A
//     table therefore belongs to one search from Get to Put, and no
//     method is safe for concurrent use. Get hands out and Put takes back
//     tables that are logically empty. Emptying is O(1): every slot
//     carries the generation it was written under, Put advances the
//     table's generation, and a slot from another generation counts as
//     empty everywhere. Put also restarts the counters and the clock
//     hands, so a recycled table answers every call exactly as a fresh
//     one would. Only a wrapped generation counter clears the slots.
//   - Memory that follows the search. A table from Get starts at the
//     minEntries floor whatever its cap, and grows four times larger (at
//     most to the cap) only when an admission would otherwise evict.
//     Growth copies every resident state into the larger slots, keeping
//     its set's way order and its reference bit: the larger table's sets
//     split each smaller set, so the caller sees the same hits, evictions
//     and counters as from a table built at the cap (New). Put keeps only
//     the floor slots, so one pool serves every n and an idle table costs
//     128 KiB.
//
// Keys pack the placed-set bitmask and the last element into one word
// (mask in the low n bits, last above it), which bounds supported
// instances at MaxN elements.
package domtable

import (
	"math"
	"math/bits"
	"sync"
)

// MaxN is the largest element count whose (mask, last) key fits one packed
// 64-bit word: n mask bits plus 6 bits of last-element index.
const MaxN = 58

// EntryBytes is the memory footprint of one table slot; New derives the
// slot count from the byte cap with it.
const EntryBytes = 32

// ways is the set associativity: a key hashes to one set and may live in
// any of its ways.
const ways = 4

// maxShards bounds the shard count. Each shard keeps its own clock hand,
// and the shard layout fixes which hash bits choose a set (see locate).
const maxShards = 16

// DefaultTableBytes is the memory cap callers use when they have no
// reason to pick another: it clamps the slot count at 2^18, which changes
// the slot count only from n = 19 up (below that the 1/8-of-state-space
// sizing is no larger). The exact-search core defaults to it.
const DefaultTableBytes int64 = 8 << 20

// entry is one table slot. key is the packed (mask, last) pair, zero when
// empty; prod is the bit pattern of the state's selectivity product; val
// is math.Float64bits of the smallest published bottleneck (zero — the
// bits of +0.0 — doubles as "unset", costing at most a lost prune for
// states whose true bound is exactly zero); used is the clock-hand
// reference bit; gen is the table generation the slot was written under
// (a slot of another generation is empty, whatever its key).
type entry struct {
	key  uint64
	prod uint64
	val  uint64
	used uint32
	gen  uint32
}

// shard is one independently evicting slice of a table's slots.
type shard struct {
	entries []entry
	setMask uint64 // number of sets - 1 (sets are a power of two)
	hand    uint32
}

// slots is the memory a table's states live in: the shards and their clock
// hands. A growing table replaces its slots with larger ones (see grow).
type slots struct {
	shards    []shard
	shardMask uint64
	entries   int
}

// Table is a sharded transposition table for subset-dominance bounds. It
// belongs to one caller at a time: no method is safe for concurrent use.
type Table struct {
	cur     *slots // the slots every call reads and writes
	floor   *slots // the slots the table was built with
	nShift  uint   // packed key: mask | last << nShift
	entries int    // slot count at the cap, which cur grows toward
	gen     uint32 // current generation; only reset writes it

	filled    int64
	evictions int64
}

// minEntries is the slot count (128 KiB) every table from Get starts at,
// whatever its n and cap, and the one size the pool keeps. It holds every
// state a pruning-heavy search publishes at small n, and most searches at
// any n publish far fewer; a search that publishes more grows its table.
// Allocating and zeroing a table, this floor included, is far from
// negligible next to sub-millisecond searches: on a first-sight serving
// load (n = 10–17) it cost more than fifteen times the CPU of the searches
// themselves, which is why searches draw tables from Get instead of New.
const minEntries = 4096

// growFactor is how many times larger each growth makes a table's slots.
const growFactor = 4

// New builds a table for instances of n elements under a memory cap of
// capBytes, at its full size. The slot count targets an eighth of the
// n·2^(n-1) distinct (mask, last) states — incumbent pruning keeps the
// states a search actually publishes one to two orders of magnitude below
// the combinatorial bound (measured occupancy on the hard bench instances
// is 1–7% even at that sizing), and the clock hand recycles gracefully if
// an adversarial instance overshoots — clamped between minEntries and the
// byte cap. New returns nil when n is outside [2, MaxN] or the cap cannot
// hold even a minimal table; callers treat a nil table as "dominance
// unavailable". Searches draw their tables from Get, which starts at the
// floor and grows to this size only as the search needs it; New's table is
// the reference those answer like.
func New(n int, capBytes int64) *Table {
	size := slotCount(n, capBytes)
	if size == 0 {
		return nil
	}
	return build(n, size, size)
}

// slotCount returns the slot count New sizes a table for n elements under
// capBytes to, or zero when New returns nil.
func slotCount(n int, capBytes int64) int64 {
	if n < 2 || n > MaxN {
		return 0
	}
	maxEntries := capBytes / EntryBytes
	if maxEntries < ways {
		return 0
	}

	// Target n * 2^(n-1) / 8 slots, saturating well before overflow.
	target := int64(1) << 62
	if n < 60 {
		target = int64(n) << uint(n-1) >> 3
	}
	if target < minEntries {
		target = minEntries
	}
	want := target
	if want > maxEntries {
		want = maxEntries
	}
	// Round down to a power of two, floor at one set.
	size := int64(1) << uint(63-bits.LeadingZeros64(uint64(want)))
	if size < ways {
		size = ways
	}
	return size
}

// build allocates an empty table for n elements whose slots start at size
// and may grow to capSlots.
func build(n int, size, capSlots int64) *Table {
	floor := newSlots(size)
	return &Table{cur: floor, floor: floor, nShift: uint(n), entries: int(capSlots)}
}

// newSlots allocates size empty slots. Every size from 128 up has
// maxShards shards, so a table keeps its shard count as it grows.
func newSlots(size int64) *slots {
	shards := int64(maxShards)
	for shards > 1 && size/shards < 2*ways {
		shards >>= 1
	}
	perShard := size / shards
	s := &slots{shards: make([]shard, shards), shardMask: uint64(shards - 1), entries: int(size)}
	for i := range s.shards {
		s.shards[i].entries = make([]entry, perShard)
		s.shards[i].setMask = uint64(perShard/ways) - 1
	}
	return s
}

// pool holds idle tables at the floor size. Every table from Get starts
// there and Put drops whatever it grew into, so one pool serves every
// element count and cap. Pooled tables stay resident between searches
// until the garbage collector drains the pool.
var pool sync.Pool

// Get returns a logically empty table for n elements under capBytes,
// recycled from the pool when one is idle. It starts at the minEntries
// floor and grows on demand to the size New would build; its Entries,
// AdmitBand and Occupancy are those of New's table from the start. A cap
// below the floor gets a table built at the cap, which never returns to
// the pool. Like New, Get returns nil when no table can be built. The
// caller owns the table until it hands it to Put.
func Get(n int, capBytes int64) *Table {
	capSlots := slotCount(n, capBytes)
	if capSlots == 0 {
		return nil
	}
	if capSlots < minEntries {
		return build(n, capSlots, capSlots)
	}
	t, _ := pool.Get().(*Table)
	if t == nil {
		return build(n, minEntries, capSlots)
	}
	t.nShift, t.entries = uint(n), int(capSlots)
	return t
}

// Put empties t and returns it to the pool with its floor slots; any
// slots it grew into, and a table built at another size, go to the
// collector. The caller must be done with t. Put(nil) is a no-op.
func Put(t *Table) {
	if t == nil || t.floor.entries != minEntries {
		return
	}
	t.reset()
	pool.Put(t)
}

// reset empties the table in O(1) by advancing its generation: every
// resident state belongs to the old generation and reads as empty from
// then on. It returns the table to its floor slots and restarts the fill
// and eviction counters and every shard's clock hand, so the emptied table
// makes the same admission, growth and eviction choices as a fresh one.
// When the generation counter wraps, reset clears every slot instead, so a
// slot of the first generation cannot come back to life.
func (t *Table) reset() {
	t.gen++
	t.cur = t.floor
	for i := range t.floor.shards {
		sh := &t.floor.shards[i]
		sh.hand = 0
		if t.gen == 0 {
			clear(sh.entries)
		}
	}
	t.filled, t.evictions = 0, 0
}

// Entries returns the slot count the table is sized to: New's for its n
// and cap, which a table from Get grows toward on demand.
func (t *Table) Entries() int { return t.entries }

// Bytes returns the memory the table's slots occupy now.
func (t *Table) Bytes() int64 { return int64(t.cur.entries) * EntryBytes }

// Occupancy returns the fraction of the table's Entries holding a state,
// in [0, 1]. Evictions replace states rather than empty slots, so
// occupancy is monotone between resets.
func (t *Table) Occupancy() float64 {
	if t == nil || t.entries == 0 {
		return 0
	}
	return float64(t.filled) / float64(t.entries)
}

// Evictions returns the number of states displaced by the clock hand since
// the last reset.
func (t *Table) Evictions() int64 { return t.evictions }

// AdmitBand returns the deepest prefix depth worth admitting to the table:
// the largest d <= n-1 such that the combinatorial state count at depths
// 3..d stays within a generous multiple of the slot count. Searches
// publish only a small fraction of the combinatorial bound (everything
// incumbent pruning kills first never reaches the table), so the
// multiplier is large and the band only pulls back when the state space
// truly dwarfs the table — memory-capped runs at large n, where shallow
// prefixes (each standing in for a large subtree) keep their slots and
// the deep tail is left unmemoized rather than thrashing the clock hand.
// The slot count is Entries, the cap's, not the size the table has grown
// to. A band below 3 means the table is too small to be useful at this n.
func (t *Table) AdmitBand(n int) int {
	if t == nil {
		return 0
	}
	budget := 64 * float64(t.entries)
	states := 0.0
	binom := float64(n) * float64(n-1) / 2 // C(n, 2)
	band := 2
	for d := 3; d < n; d++ {
		binom *= float64(n-d+1) / float64(d) // C(n, d)
		states += binom * float64(d)
		if states > budget {
			break
		}
		band = d
	}
	return band
}

// mix is splitmix64's finalizer: a full-avalanche hash of the packed key.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// locate resolves a logical (key, prod) state to its shard and the first
// slot index of its set. prod participates in the hash so the product
// variants of one (mask, last) spread across sets instead of competing
// for one. The shard comes from the hash's low bits and the set from the
// bits above them, so a set of larger slots lies inside one set of
// smaller ones: the one growth splits.
func (s *slots) locate(key, prod uint64) (*shard, int) {
	h := mix(key ^ prod*0x9e3779b97f4a7c15)
	sh := &s.shards[h&s.shardMask]
	set := (h >> 4) & sh.setMask
	return sh, int(set) * ways
}

// Key packs a (mask, last) state; exported so callers can report or log
// states uniformly.
func (t *Table) Key(mask uint64, last int) uint64 {
	return mask | uint64(last)<<t.nShift
}

// Probe returns the smallest published bottleneck for the state, when
// present. prod is the exact bit pattern of the caller's selectivity
// product before the last element: a hit requires it to match bitwise,
// which is what keeps dominance exact under floating point — with equal
// product bits every future computation of the two prefixes is bitwise
// identical, so the comparison of their finalized bottlenecks decides
// dominance with no rounding slack.
func (t *Table) Probe(mask uint64, last int, prod uint64) (float64, bool) {
	if t == nil {
		return 0, false
	}
	key := t.Key(mask, last)
	sh, base := t.cur.locate(key, prod)
	if e := t.find(sh, base, key, prod); e != nil {
		e.used = 1
		return math.Float64frombits(e.val), true
	}
	return 0, false
}

// find returns the slot of the set at sh's base that holds the state
// (key, prod) in the current generation, or nil.
func (t *Table) find(sh *shard, base int, key, prod uint64) *entry {
	for i := 0; i < ways; i++ {
		e := &sh.entries[base+i]
		if e.key == key && e.gen == t.gen && e.prod == prod && e.val != 0 {
			return e
		}
	}
	return nil
}

// freeWay returns the first way of the set at sh's base that holds no
// state of the current generation, or -1 when the set is full.
func (t *Table) freeWay(sh *shard, base int) int {
	for i := 0; i < ways; i++ {
		if t.empty(&sh.entries[base+i]) {
			return i
		}
	}
	return -1
}

// Update publishes bound for the state, keeping the per-state minimum. It
// reports whether the table now holds an entry for the state with a value
// <= bound; false means bound was unusable (negative, NaN or zero).
func (t *Table) Update(mask uint64, last int, prod uint64, bound float64) bool {
	if t == nil || !(bound >= 0) {
		return false
	}
	bits64 := math.Float64bits(bound)
	if bits64 == 0 {
		// +0.0 collides with the "unset" sentinel: publishing it would
		// overwrite a resident positive bound with a value every Probe
		// treats as absent, destroying the entry's pruning power. A zero
		// bound is unrepresentable here; skip it (lost prune only).
		return false
	}
	key := t.Key(mask, last)
	sh, base := t.cur.locate(key, prod)
	if e := t.find(sh, base, key, prod); e != nil {
		// Non-negative floats order identically to their bit patterns,
		// so the integer comparison is the float min.
		e.val = min(e.val, bits64)
		e.used = 1
		return true
	}
	way := t.freeWay(sh, base)
	for way < 0 && t.cur.entries < t.entries {
		// The set is full and the cap allows more slots: grow rather than
		// evict. The state was not resident, so growth did not copy it.
		t.grow()
		sh, base = t.cur.locate(key, prod)
		way = t.freeWay(sh, base)
	}
	if way < 0 {
		way = t.victim(sh, base)
		t.evictions++
	} else {
		t.filled++
	}
	sh.entries[base+way] = entry{key: key, prod: prod, val: bits64, used: 1, gen: t.gen}
	return true
}

// grow replaces the table's slots with slots growFactor times larger, at
// most Entries.
//
// Growth keeps the caller's view exact. Both slot sizes have the same
// shards and take the set from the same hash bits (locate), so every set
// of the larger slots lies inside one set of the smaller. Copying each
// set's ways in order therefore puts every state at the way it holds in a
// table built at the larger size, where states fill a set's ways in
// arrival order; the reference bits and clock hands come along. A set of
// the larger table can only fill where the smaller set containing it
// already has, and growth runs before the smaller slots ever evict, so up
// to the cap the table holds, hits and evicts exactly what New's table
// does.
func (t *Table) grow() {
	s := t.cur
	next := newSlots(min(int64(s.entries)*growFactor, int64(t.entries)))
	for si := range s.shards {
		sh := &s.shards[si]
		next.shards[si].hand = sh.hand
		for i := range sh.entries {
			e := &sh.entries[i]
			if t.empty(e) {
				continue
			}
			// The larger set's states all come from this one set of at
			// most ways states, so it always has a free way.
			dsh, base := next.locate(e.key, e.prod)
			dsh.entries[base+t.freeWay(dsh, base)] = *e
		}
	}
	t.cur = next
}

// empty reports whether slot e holds no state of the current generation.
func (t *Table) empty(e *entry) bool {
	return e.key == 0 || e.gen != t.gen
}

// victim picks the way of a full set to evict by second-chance clock:
// sweep the set from the shard's hand, clearing reference bits, and take
// the first unreferenced way (falling back to the sweep's start).
func (t *Table) victim(sh *shard, base int) int {
	sh.hand++
	start := int(sh.hand) & (ways - 1)
	for i := 0; i < 2*ways; i++ {
		w := (start + i) & (ways - 1)
		e := &sh.entries[base+w]
		if e.used == 0 {
			return w
		}
		e.used = 0
	}
	return start
}

// Visit is the search hot-path operation: it reports whether the state is
// dominated (the search already committed to extending this state with a
// finalized bottleneck <= bound, so the caller must prune), and publishes
// bound otherwise. A Visit that returns false is the caller's commitment
// to soundly search the state's subtree — that commitment is what makes
// pruning later arrivals exact.
func (t *Table) Visit(mask uint64, last int, prod uint64, bound float64) bool {
	if v, ok := t.Probe(mask, last, prod); ok && v <= bound {
		return true
	}
	t.Update(mask, last, prod, bound)
	return false
}

// Range calls f for every resident state (tests and diagnostics; the
// iteration order is unspecified).
func (t *Table) Range(f func(mask uint64, last int, prod uint64, bound float64)) {
	if t == nil {
		return
	}
	lastShift := t.nShift
	maskBits := uint64(1)<<lastShift - 1
	for si := range t.cur.shards {
		sh := &t.cur.shards[si]
		for i := range sh.entries {
			e := &sh.entries[i]
			if t.empty(e) || e.val == 0 {
				continue
			}
			f(e.key&maskBits, int(e.key>>lastShift), e.prod, math.Float64frombits(e.val))
		}
	}
}
