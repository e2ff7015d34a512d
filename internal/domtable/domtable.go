// Package domtable implements the shared transposition table behind the
// exact subset-dominance rule: for a bottleneck objective, two prefixes
// over the same placed set with the same last element have identical
// futures (same remaining set, same selectivity product over the placed
// set minus the last element, same outgoing transfer row), so only the
// prefix with the smallest finalized bottleneck ever needs extension. The
// table records, per state, the smallest finalized bottleneck any searcher
// has committed to extending; later arrivals at the same state with an
// equal-or-worse bottleneck are pruned.
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
//     The table therefore never lets a torn or stale read surface as a
//     bound: entries are guarded by a per-entry sequence lock, readers
//     discard inconsistent snapshots, and values only ever decrease
//     (CAS-min under the entry lock). A lost update or a discarded read
//     merely forfeits a prune.
//   - Lock-free hot path. Probes (the per-node dominance check) are plain
//     atomic loads; only publishes (once per expanded node at most) touch
//     the entry's version word with a CAS, and a contended publish gives
//     up rather than spins — admission is best-effort.
//   - Bounded memory. The table is sized from a hard byte cap, organized
//     as sharded set-associative buckets; full sets evict with a
//     second-chance clock hand over per-entry reference bits, so long runs
//     on instances beyond the exact-table regime recycle space instead of
//     growing.
//
// Keys pack the placed-set bitmask and the last element into one word
// (mask in the low n bits, last above it), which bounds supported
// instances at MaxN elements.
package domtable

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// MaxN is the largest element count whose (mask, last) key fits one packed
// 64-bit word: n mask bits plus 6 bits of last-element index.
const MaxN = 58

// EntryBytes is the memory footprint of one table slot; New derives the
// slot count from the byte cap with it.
const EntryBytes = 40

// ways is the set associativity: a key hashes to one set and may live in
// any of its ways.
const ways = 4

// maxShards bounds the shard count; shards only exist to spread the clock
// hands and the eviction traffic, so a small power of two suffices.
const maxShards = 16

// lockSpins bounds the publish-side acquisition attempts of an entry's
// sequence lock before the publish is abandoned (admission is optional,
// correctness never depends on it).
const lockSpins = 8

// DefaultTableBytes is the memory cap callers use when they have no
// reason to pick another: it clamps the slot count only from n = 19 up
// (below that the 1/8-of-state-space sizing is smaller). The exact-search
// core defaults to it.
const DefaultTableBytes int64 = 16 << 20

// entry is one table slot. ver is a sequence lock (odd while a writer owns
// the slot); key is the packed (mask, last) pair, zero when empty; prod is
// the bit pattern of the state's selectivity product; val is
// math.Float64bits of the smallest published bottleneck (zero — the bits
// of +0.0 — doubles as "unset", costing at most a lost prune for states
// whose true bound is exactly zero); used is the clock-hand reference bit.
type entry struct {
	ver  atomic.Uint64
	key  atomic.Uint64
	prod atomic.Uint64
	val  atomic.Uint64
	used atomic.Uint32
	_    uint32
}

// shard is one independently evicting slice of the table.
type shard struct {
	entries []entry
	setMask uint64 // number of sets - 1 (sets are a power of two)
	hand    atomic.Uint32
	_       [28]byte // keep neighboring shards' hands off one cache line
}

// Table is a sharded transposition table for subset-dominance bounds. All
// methods are safe for concurrent use.
type Table struct {
	shards    []shard
	shardMask uint64
	nShift    uint // packed key: mask | last << nShift
	entries   int

	filled    atomic.Int64
	evictions atomic.Int64
}

// minEntries floors the slot count: small enough that the allocation and
// zeroing cost stays negligible next to even sub-millisecond searches
// (160 KiB), large enough to hold every state a pruning-heavy search
// actually publishes at small n.
const minEntries = 4096

// New builds a table for instances of n elements under a memory cap of
// capBytes. The slot count targets an eighth of the n·2^(n-1) distinct
// (mask, last) states — incumbent pruning keeps the states a search
// actually publishes one to two orders of magnitude below the
// combinatorial bound (measured occupancy on the hard bench instances is
// 1–7% even at that sizing), and the clock hand recycles gracefully if an
// adversarial instance overshoots — clamped between minEntries and the
// byte cap. New returns nil when n is outside [2, MaxN] or the cap cannot
// hold even a minimal table; callers treat a nil table as "dominance
// unavailable".
func New(n int, capBytes int64) *Table {
	if n < 2 || n > MaxN {
		return nil
	}
	maxEntries := capBytes / EntryBytes
	if maxEntries < ways {
		return nil
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
	slots := int64(1) << uint(63-bits.LeadingZeros64(uint64(want)))
	if slots < ways {
		slots = ways
	}

	shards := int64(maxShards)
	for shards > 1 && slots/shards < 2*ways {
		shards >>= 1
	}
	perShard := slots / shards

	t := &Table{
		shards:    make([]shard, shards),
		shardMask: uint64(shards - 1),
		nShift:    uint(n),
		entries:   int(slots),
	}
	for i := range t.shards {
		t.shards[i].entries = make([]entry, perShard)
		t.shards[i].setMask = uint64(perShard/ways) - 1
	}
	return t
}

// Entries returns the slot count the table was sized to.
func (t *Table) Entries() int { return t.entries }

// Bytes returns the table's slot memory footprint.
func (t *Table) Bytes() int64 { return int64(t.entries) * EntryBytes }

// Occupancy returns the fraction of slots holding a state, in [0, 1].
// Evictions replace states rather than empty slots, so occupancy is
// monotone within a table's lifetime.
func (t *Table) Occupancy() float64 {
	if t == nil || t.entries == 0 {
		return 0
	}
	return float64(t.filled.Load()) / float64(t.entries)
}

// Evictions returns the number of states displaced by the clock hand.
func (t *Table) Evictions() int64 { return t.evictions.Load() }

// AdmitBand returns the deepest prefix depth worth admitting to the table:
// the largest d <= n-1 such that the combinatorial state count at depths
// 3..d stays within a generous multiple of the slot count. Searches
// publish only a small fraction of the combinatorial bound (everything
// incumbent pruning kills first never reaches the table), so the
// multiplier is large and the band only pulls back when the state space
// truly dwarfs the table — memory-capped runs at large n, where shallow
// prefixes (each standing in for a large subtree) keep their slots and
// the deep tail is left unmemoized rather than thrashing the clock hand.
// A band below 3 means the table is too small to be useful at this n.
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
// for one.
func (t *Table) locate(key, prod uint64) (*shard, int) {
	h := mix(key ^ prod*0x9e3779b97f4a7c15)
	sh := &t.shards[h&t.shardMask]
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
// dominance with no rounding slack. The read side is lock-free: a
// snapshot torn by a concurrent writer is discarded (reported as absent),
// never surfaced.
func (t *Table) Probe(mask uint64, last int, prod uint64) (float64, bool) {
	if t == nil {
		return 0, false
	}
	key := t.Key(mask, last)
	sh, base := t.locate(key, prod)
	for i := 0; i < ways; i++ {
		e := &sh.entries[base+i]
		v1 := e.ver.Load()
		if v1&1 != 0 {
			continue
		}
		if e.key.Load() != key || e.prod.Load() != prod {
			continue
		}
		b := e.val.Load()
		if e.ver.Load() != v1 || b == 0 {
			continue
		}
		e.used.Store(1)
		return math.Float64frombits(b), true
	}
	return 0, false
}

// lock acquires e's sequence lock, returning false when contention
// exhausts the spin budget.
func (e *entry) lock() bool {
	for i := 0; i < lockSpins; i++ {
		v := e.ver.Load()
		if v&1 != 0 {
			continue
		}
		if e.ver.CompareAndSwap(v, v+1) {
			return true
		}
	}
	return false
}

// unlock releases the sequence lock, making the slot readable again.
func (e *entry) unlock() { e.ver.Add(1) }

// Update publishes bound for the state, keeping the per-state minimum. It
// reports whether the table now holds an entry for the state with a value
// <= bound; false means the admission was abandoned under lock contention
// (harmless — admission is best-effort) or bound was unusable (negative
// or NaN).
func (t *Table) Update(mask uint64, last int, prod uint64, bound float64) bool {
	if t == nil || !(bound >= 0) {
		return false
	}
	key := t.Key(mask, last)
	sh, base := t.locate(key, prod)
	bits64 := math.Float64bits(bound)
	if bits64 == 0 {
		// +0.0 collides with the "unset" sentinel: publishing it would
		// overwrite a resident positive bound with a value every Probe
		// treats as absent, destroying the entry's pruning power. A zero
		// bound is unrepresentable here; skip it (lost prune only).
		return false
	}

	// Pass 1: the state may already be resident.
	emptyAt := -1
	for i := 0; i < ways; i++ {
		e := &sh.entries[base+i]
		switch k := e.key.Load(); {
		case k == key && e.prod.Load() == prod:
			if !e.lock() {
				return false
			}
			if e.key.Load() != key || e.prod.Load() != prod { // re-keyed while we raced the lock
				e.unlock()
				return t.admit(sh, base, key, prod, bits64)
			}
			if cur := e.val.Load(); cur == 0 || bits64 < cur {
				// Non-negative floats order identically to their bit
				// patterns, so the integer comparison is the float min.
				e.val.Store(bits64)
			}
			e.used.Store(1)
			e.unlock()
			return true
		case k == 0:
			if emptyAt < 0 {
				emptyAt = i
			}
		}
	}
	if emptyAt >= 0 {
		e := &sh.entries[base+emptyAt]
		if !e.lock() {
			return false
		}
		if e.key.Load() == 0 {
			e.key.Store(key)
			e.prod.Store(prod)
			e.val.Store(bits64)
			e.used.Store(1)
			e.unlock()
			t.filled.Add(1)
			return true
		}
		e.unlock()
	}
	return t.admit(sh, base, key, prod, bits64)
}

// admit installs the state into a full (or contended) set by second-chance
// clock eviction: sweep the set from the shard's hand, clearing reference
// bits, and take the first unreferenced way (falling back to the sweep's
// start). Best-effort: contention aborts the admission.
func (t *Table) admit(sh *shard, base int, key, prod, bits64 uint64) bool {
	start := int(sh.hand.Add(1)) & (ways - 1)
	victim := start
	for i := 0; i < 2*ways; i++ {
		w := (start + i) & (ways - 1)
		e := &sh.entries[base+w]
		if e.used.Load() != 0 {
			e.used.Store(0)
			continue
		}
		victim = w
		break
	}
	e := &sh.entries[base+victim]
	if !e.lock() {
		return false
	}
	switch k := e.key.Load(); {
	case k == key && e.prod.Load() == prod:
		// Another publisher installed the state while we swept.
		if cur := e.val.Load(); cur == 0 || bits64 < cur {
			e.val.Store(bits64)
		}
	case k == 0:
		t.filled.Add(1)
		e.key.Store(key)
		e.prod.Store(prod)
		e.val.Store(bits64)
	default:
		t.evictions.Add(1)
		e.key.Store(key)
		e.prod.Store(prod)
		e.val.Store(bits64)
	}
	e.used.Store(1)
	e.unlock()
	return true
}

// Visit is the search hot-path operation: it reports whether the state is
// dominated (some searcher already committed to extending this state with
// a finalized bottleneck <= bound, so the caller must prune), and
// publishes bound otherwise. A Visit that returns false is the caller's
// commitment to soundly search the state's subtree — that commitment is
// what makes pruning later arrivals exact.
func (t *Table) Visit(mask uint64, last int, prod uint64, bound float64) bool {
	if v, ok := t.Probe(mask, last, prod); ok && v <= bound {
		return true
	}
	t.Update(mask, last, prod, bound)
	return false
}

// Range calls f for every resident state under a consistent per-entry
// snapshot (tests and diagnostics; the iteration order is unspecified).
func (t *Table) Range(f func(mask uint64, last int, prod uint64, bound float64)) {
	if t == nil {
		return
	}
	lastShift := t.nShift
	maskBits := uint64(1)<<lastShift - 1
	for si := range t.shards {
		sh := &t.shards[si]
		for i := range sh.entries {
			e := &sh.entries[i]
			v1 := e.ver.Load()
			if v1&1 != 0 {
				continue
			}
			k := e.key.Load()
			p := e.prod.Load()
			b := e.val.Load()
			if e.ver.Load() != v1 || k == 0 || b == 0 {
				continue
			}
			f(k&maskBits, int(k>>lastShift), p, math.Float64frombits(b))
		}
	}
}
