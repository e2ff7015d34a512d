package ccache

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// Snapshot-iteration semantics. Range is the substrate of the planner's
// plan-cache snapshots: it must hand every callback a coherent (key, val,
// gen) triple that some writer actually published together, even while
// eviction sweeps and generation bumps run concurrently. These tests
// extend the values-encode-gen invariant from gen_test.go to the snapshot
// path.

// TestRangeBasics pins the quiescent contract: every
// resident entry is visited exactly once with the stamp it was written
// under, and an early false stops the walk.
func TestRangeBasics(t *testing.T) {
	t.Run("clock", func(t *testing.T) {
		c := newGenStore(256, 4)
		const keys = 100
		for k := uint64(0); k < keys; k++ {
			c.PutGen(k, k*10, k%5)
		}
		seen := make(map[uint64]int, keys)
		c.Range(func(k, v, gen uint64) bool {
			if v != k*10 || gen != k%5 {
				t.Fatalf("Range gave key %d -> (%d, %d), want (%d, %d)", k, v, gen, k*10, k%5)
			}
			seen[k]++
			return true
		})
		if len(seen) != keys {
			t.Fatalf("Range visited %d keys, want %d", len(seen), keys)
		}
		for k, n := range seen {
			if n != 1 {
				t.Fatalf("Range visited key %d %d times", k, n)
			}
		}
		// Early termination: the walk stops at the first false.
		calls := 0
		c.Range(func(uint64, uint64, uint64) bool { calls++; return false })
		if calls != 1 {
			t.Fatalf("Range made %d calls after false, want 1", calls)
		}
	})
}

// TestRangeRacingEvictionAndBumps is the snapshot-path stress: a tiny
// store (every put sweeps) under concurrent writers and a generation
// bumper, while snapshot walks run in a loop. Each walk asserts the
// values-encode-gen invariant on every triple it sees — an eviction or
// in-place replacement racing the walk must never surface a value beneath
// a stamp it was not published with. Run under -race in CI.
func TestRangeRacingEvictionAndBumps(t *testing.T) {
	const (
		keys     = 64
		capacity = 16 // far below the key count: every put sweeps
		writers  = 4
		walkers  = 3
		ops      = 20000
		walks    = 400
	)
	t.Run("clock", func(t *testing.T) {
		c := newGenStore(capacity, 4)
		var current atomic.Uint64
		current.Store(1)
		encode := func(key, gen uint64) uint64 { return key<<32 | gen&0xffffffff }

		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)*6151 + 3))
				for i := 0; i < ops; i++ {
					k := rng.Uint64() % keys
					gen := current.Load()
					c.PutGen(k, encode(k, gen), gen)
				}
			}(w)
		}
		for r := 0; r < walkers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < walks; i++ {
					n := 0
					c.Range(func(k, v, gen uint64) bool {
						n++
						if v != encode(k, gen) {
							t.Errorf("snapshot walk saw key %d -> value %#x under stamp %d: (value, gen) never published together", k, v, gen)
							return false
						}
						return true
					})
					if n > capacity {
						t.Errorf("snapshot walk visited %d entries, capacity is %d", n, capacity)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				current.Add(1)
			}
		}()
		wg.Wait()

		// Post-quiescence: a final walk sees exactly the resident set
		// with coherent stamps.
		resident := 0
		c.Range(func(k, v, gen uint64) bool {
			resident++
			if v != encode(k, gen) {
				t.Fatalf("post-quiescence walk: key %d -> %#x under stamp %d", k, v, gen)
			}
			return true
		})
		if resident != c.Len() {
			t.Fatalf("quiescent Range saw %d entries, Len reports %d", resident, c.Len())
		}
	})
}

// TestRangeSeesReplacementAtomically replaces one key in a loop while a
// walker snapshots: every observation of that key must be one of the
// published (val, gen) pairs, never a torn mix.
func TestRangeSeesReplacementAtomically(t *testing.T) {
	t.Run("clock", func(t *testing.T) {
		c := newGenStore(8, 4)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gen := uint64(1); ; gen++ {
				select {
				case <-stop:
					return
				default:
				}
				c.PutGen(7, gen*1000, gen)
			}
		}()
		for i := 0; i < 2000; i++ {
			c.Range(func(k, v, gen uint64) bool {
				if k == 7 && v != gen*1000 {
					t.Errorf("torn replacement: key 7 -> value %d under stamp %d", v, gen)
					return false
				}
				return true
			})
		}
		close(stop)
		wg.Wait()
	})
}
