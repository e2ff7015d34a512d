package ccache

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// Generation-stamp semantics. The store never interprets stamps — it
// records them immutably per entry and hands them back — so the contract
// under test is fidelity: a value written under generation g must never
// surface under any other stamp, and a refresh must restamp atomically
// with its new value. The planner's stale-reads-as-misses policy is
// layered on top of these guarantees (see internal/planner).

func newGenStore(capacity, shards int) *Clock[uint64, uint64] {
	return NewClock[uint64, uint64](capacity, shards, func(k uint64) int { return int(k & uint64(shards-1)) })
}

// TestGenerationStampFidelity pins the basic contract:
// GetGen returns exactly the stamp PutGen recorded, Put stamps zero, and a
// re-put restamps the entry together with its value (the old-generation
// value must read as gone, not resurrect under the new stamp).
func TestGenerationStampFidelity(t *testing.T) {
	t.Run("clock", func(t *testing.T) {
		c := newGenStore(64, 4)
		c.PutGen(1, 100, 3)
		if v, gen, ok, _ := c.GetGen(1); !ok || v != 100 || gen != 3 {
			t.Fatalf("GetGen(1) = (%d, %d, %v), want (100, 3, true)", v, gen, ok)
		}
		// Gen-oblivious Get still sees the entry.
		if v, ok, _ := c.Get(1); !ok || v != 100 {
			t.Fatalf("Get(1) = (%d, %v), want (100, true)", v, ok)
		}
		// Refresh restamps: the new (val, gen) pair replaces the old
		// one atomically; the old generation's value is unreachable.
		c.PutGen(1, 200, 7)
		if v, gen, ok, _ := c.GetGen(1); !ok || v != 200 || gen != 7 {
			t.Fatalf("after restamp GetGen(1) = (%d, %d, %v), want (200, 7, true)", v, gen, ok)
		}
		// Plain Put stamps generation zero.
		c.Put(2, 300)
		if _, gen, ok, _ := c.GetGen(2); !ok || gen != 0 {
			t.Fatalf("Put-stamped entry has gen %d, want 0", gen)
		}
		if c.Len() != 2 {
			t.Fatalf("Len = %d, want 2", c.Len())
		}
	})
}

// TestGenerationOldStampReadsStale models the planner's invalidation
// policy at the store level: after a generation bump, every entry stamped
// with the old generation is observable as stale (its stamp no longer
// matches the current generation) and a fresh PutGen under the same key
// supersedes it for good.
func TestGenerationOldStampReadsStale(t *testing.T) {
	t.Run("clock", func(t *testing.T) {
		c := newGenStore(256, 4)
		const keys = 100
		current := uint64(1)
		for k := uint64(0); k < keys; k++ {
			c.PutGen(k, k*10, current)
		}
		current++ // the drift event: generation 1 -> 2

		stale := 0
		for k := uint64(0); k < keys; k++ {
			v, gen, ok, _ := c.GetGen(k)
			if !ok {
				t.Fatalf("key %d missing below capacity", k)
			}
			if gen != current { // stale: caller treats as miss
				stale++
				if v != k*10 {
					t.Fatalf("stale key %d carries value %d, want %d (stale values seed replans)", k, v, k*10)
				}
			}
		}
		if stale != keys {
			t.Fatalf("%d/%d entries read as stale after the bump, want all", stale, keys)
		}

		// Replanned entries land under the new generation and stay.
		for k := uint64(0); k < keys; k++ {
			c.PutGen(k, k*10+1, current)
		}
		for k := uint64(0); k < keys; k++ {
			v, gen, ok, _ := c.GetGen(k)
			if !ok || gen != current || v != k*10+1 {
				t.Fatalf("key %d after replan = (%d, %d, %v), want (%d, %d, true)", k, v, gen, ok, k*10+1, current)
			}
		}
	})
}

// TestGenerationBumpSweepStress hammers a tiny clock store (so eviction
// sweeps run constantly) with concurrent readers, writers and a generation
// bumper, under -race in CI. The invariant: a returned (value, gen) pair
// is always one some writer actually published together — values encode
// the generation they were written under, so a sweep or in-place
// replacement can never resurrect a stale generation's value beneath a
// fresh stamp (a torn entry would trip the check even when the data race
// itself goes unobserved).
func TestGenerationBumpSweepStress(t *testing.T) {
	const (
		keys     = 64
		capacity = 16 // far below the key count: every put sweeps
		writers  = 4
		readers  = 4
		ops      = 20000
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
				rng := rand.New(rand.NewSource(int64(w) * 7919))
				for i := 0; i < ops; i++ {
					k := rng.Uint64() % keys
					gen := current.Load()
					c.PutGen(k, encode(k, gen), gen)
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)*104729 + 1))
				for i := 0; i < ops; i++ {
					k := rng.Uint64() % keys
					v, gen, ok, _ := c.GetGen(k)
					if !ok {
						continue
					}
					if v != encode(k, gen) {
						t.Errorf("key %d returned value %#x with stamp %d: (value, gen) pair was never published together", k, v, gen)
						return
					}
				}
			}(r)
		}
		// The bumper: concurrent generation advances racing the sweeps.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				current.Add(1)
			}
		}()
		wg.Wait()

		// Post-quiescence: every resident entry still holds a coherent
		// (value, gen) pair — no stale value survived under a bumped
		// stamp.
		for k := uint64(0); k < keys; k++ {
			if v, gen, ok, _ := c.GetGen(k); ok && v != encode(k, gen) {
				t.Fatalf("resident key %d holds value %#x under stamp %d after quiescence", k, v, gen)
			}
		}
	})
}

// genModel is the map-backed oracle for the clock store: the last
// (value, gen) pair put under each key, with no capacity bound.
type genModel map[uint64][2]uint64

// TestGenerationDifferentialClockVsModel drives the clock store and the
// map model through one recorded operation sequence with generations drawn
// from a small set. Below capacity the store must equal the model exactly
// — same hits, same values, same stamps, same population. Above capacity
// eviction may turn a model hit into a store miss, but every store hit
// must still return the model's last-put value and stamp.
func TestGenerationDifferentialClockVsModel(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
	}{
		{"below_capacity", 512}, // comfortably above the 128 keys touched
		{"above_capacity", 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newGenStore(tc.capacity, 4)
			model := genModel{}
			exact := tc.capacity >= 128
			rng := rand.New(rand.NewSource(42))
			misses := 0
			for i := 0; i < 50000; i++ {
				k := rng.Uint64() % 128
				gen := rng.Uint64() % 4
				if rng.Intn(3) == 0 {
					c.PutGen(k, k^gen<<8, gen)
					model[k] = [2]uint64{k ^ gen<<8, gen}
					continue
				}
				v, g, ok, _ := c.GetGen(k)
				want, inModel := model[k]
				switch {
				case ok && (!inModel || v != want[0] || g != want[1]):
					t.Fatalf("op %d key %d: store (%d, %d), model (%d, %d, %v)", i, k, v, g, want[0], want[1], inModel)
				case !ok && inModel:
					if exact {
						t.Fatalf("op %d key %d: store missed a resident key below capacity", i, k)
					}
					misses++
				}
			}
			if exact && c.Len() != len(model) {
				t.Fatalf("Len: store %d != model %d", c.Len(), len(model))
			}
			if !exact && (c.Len() > tc.capacity || misses == 0) {
				t.Fatalf("above capacity: Len %d (capacity %d), %d evicted-key misses", c.Len(), tc.capacity, misses)
			}
		})
	}
}
