package ccache

import (
	"math/rand"
	"sync"
	"testing"
)

// TestClockSecondChance pins the eviction policy on one shard: a touched
// entry survives the sweep that evicts an untouched one.
func TestClockSecondChance(t *testing.T) {
	t.Parallel()
	s := newClockShard[int, int](2)
	s.put(1, 10, 0)
	s.put(2, 20, 0)
	if _, _, _, fresh := s.get(1); !fresh {
		t.Fatal("first lookup did not set the touch bit")
	}
	if _, _, _, fresh := s.get(1); fresh {
		t.Fatal("second lookup re-reported a fresh touch")
	}
	if s.put(3, 30, 0) != 1 {
		t.Fatal("inserting above capacity did not evict")
	}
	if _, _, ok, _ := s.get(2); ok {
		t.Fatal("untouched entry 2 survived the sweep")
	}
	if v, _, ok, _ := s.get(1); !ok || v != 10 {
		t.Fatal("touched entry 1 was evicted")
	}
	// Entry 1's bit was cleared by the sweep; with 1 re-touched (by the
	// get above) the next insert evicts 3, the oldest untouched entry.
	if s.put(4, 40, 0) != 1 {
		t.Fatal("second over-capacity insert did not evict")
	}
	if _, _, ok, _ := s.get(3); ok {
		t.Fatal("untouched entry 3 survived while a touched entry existed")
	}
}

// TestClockUntouchedIsFIFO: with no lookups at all, eviction is insertion
// order.
func TestClockUntouchedIsFIFO(t *testing.T) {
	t.Parallel()
	s := newClockShard[int, int](3)
	for k := 1; k <= 3; k++ {
		s.put(k, k, 0)
	}
	s.put(4, 4, 0)
	if _, _, ok, _ := s.get(1); ok {
		t.Fatal("oldest untouched entry 1 survived")
	}
	for k := 2; k <= 4; k++ {
		if _, _, ok, _ := s.get(k); !ok {
			t.Fatalf("entry %d missing", k)
		}
	}
}

// TestClockReplaceExisting: re-putting a key swaps the value in place
// without eviction or growth.
func TestClockReplaceExisting(t *testing.T) {
	t.Parallel()
	s := newClockShard[int, int](2)
	s.put(1, 10, 0)
	if s.put(1, 11, 0) != 0 {
		t.Fatal("value replacement reported an eviction")
	}
	if v, _, ok, _ := s.get(1); !ok || v != 11 {
		t.Fatalf("got %v, want replaced value 11", v)
	}
	if s.len() != 1 {
		t.Fatalf("len = %d after replacement, want 1", s.len())
	}
}

// TestEvictionOnlyAtCapacity: the clock store never evicts while a shard
// has free slots.
func TestEvictionOnlyAtCapacity(t *testing.T) {
	t.Parallel()
	s := newClockShard[int, int](4)
	for k := 0; k < 4; k++ {
		if s.put(k, k, 0) != 0 {
			t.Fatalf("eviction with only %d of 4 slots used", k)
		}
	}
	if s.put(4, 4, 0) != 1 {
		t.Fatal("insert at capacity did not evict exactly one entry")
	}
}

// TestClockConcurrentStress hammers one small shard from concurrent
// readers and writers under -race. Values encode their keys, so any torn
// or misfiled publish shows up as a key/value mismatch.
func TestClockConcurrentStress(t *testing.T) {
	t.Parallel()
	s := newClockShard[uint64, uint64](8)
	const keys = 32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(keys))
				if v, _, ok, _ := s.get(k); ok && v != k*3 {
					t.Errorf("key %d returned value %d, want %d", k, v, k*3)
					return
				}
			}
		}(int64(100 + w))
	}
	for op := 0; op < 50000; op++ {
		k := uint64(op % keys)
		s.put(k, k*3, 0)
	}
	close(stop)
	wg.Wait()
	if n := s.len(); n > 8 {
		t.Fatalf("population %d exceeds capacity 8", n)
	}
	// The published map and the ring must agree after the dust settles.
	m := *s.live.Load()
	if len(m) != s.len() {
		t.Fatalf("map holds %d entries, ring %d", len(m), s.len())
	}
	for k, e := range m {
		if e.key != k {
			t.Fatalf("map key %d points at entry for key %d", k, e.key)
		}
	}
}

// TestShardedStores drives the exported sharded store end to end.
func TestShardedStores(t *testing.T) {
	t.Parallel()
	c := NewClock[uint64, uint64](64, 8, func(k uint64) int { return int(k & 7) })
	for k := uint64(0); k < 64; k++ {
		if ev := c.Put(k, k*7); ev != 0 {
			t.Fatalf("eviction below capacity inserting key %d", k)
		}
	}
	if c.Len() != 64 {
		t.Fatalf("len = %d, want 64", c.Len())
	}
	for k := uint64(0); k < 64; k++ {
		v, ok, _ := c.Get(k)
		if !ok || v != k*7 {
			t.Fatalf("key %d -> %v/%v, want %d", k, v, ok, k*7)
		}
	}
	evicted := 0
	for k := uint64(64); k < 128; k++ {
		evicted += c.Put(k, k*7)
	}
	if evicted != 64 {
		t.Fatalf("evicted %d entries inserting a second full population, want 64", evicted)
	}
	if c.Len() != 64 {
		t.Fatalf("len = %d after churn, want 64", c.Len())
	}
}

// TestSmallCapacityHonored: a capacity below the shard count must still
// bound the population — the store clamps its shard count rather than
// rounding every shard up to one entry.
func TestSmallCapacityHonored(t *testing.T) {
	t.Parallel()
	c := NewClock[uint64, uint64](8, 64, func(k uint64) int { return int(k & 63) })
	evicted := 0
	for k := uint64(0); k < 256; k++ {
		evicted += c.Put(k, k)
	}
	if got := c.Len(); got > 8 {
		t.Errorf("capacity 8 retains %d entries", got)
	}
	if evicted < 256-8 {
		t.Errorf("only %d evictions over 256 inserts at capacity 8", evicted)
	}
}

func TestEffectiveShards(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ capacity, shards, want int }{
		{8, 64, 8}, {64, 64, 64}, {1, 64, 1}, {100, 64, 64}, {3, 4, 2}, {0, 64, 1},
	} {
		if got := effectiveShards(tc.capacity, tc.shards); got != tc.want {
			t.Errorf("effectiveShards(%d, %d) = %d, want %d", tc.capacity, tc.shards, got, tc.want)
		}
	}
}

func TestPerShardCapacityRounding(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ capacity, shards, want int }{
		{1, 64, 1}, {64, 64, 1}, {65, 64, 2}, {4096, 64, 64}, {4096, 16, 256},
	} {
		if got := perShardCapacity(tc.capacity, tc.shards); got != tc.want {
			t.Errorf("perShardCapacity(%d, %d) = %d, want %d", tc.capacity, tc.shards, got, tc.want)
		}
	}
}

func TestFNV64(t *testing.T) {
	t.Parallel()
	// Pinned reference values keep the hash deterministic across
	// processes and releases (persisted keys would be invalidated by a
	// silent change).
	if got := FNV64(nil); got != 14695981039346656037 {
		t.Errorf("FNV64(nil) = %d, want the FNV-1a offset basis", got)
	}
	if FNV64([]byte("a")) == FNV64([]byte("b")) {
		t.Error("distinct inputs collide trivially")
	}
}
