package planner

import (
	"context"
	"encoding/binary"
	"math/rand"
	"testing"

	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

// sigFor builds a deterministic Signature whose shard and identity derive
// from i.
func sigFor(i uint64) Signature {
	var s Signature
	binary.LittleEndian.PutUint64(s[:8], i*0x9e3779b97f4a7c15+i)
	binary.LittleEndian.PutUint64(s[8:16], i)
	return s
}

// planModel is the map-backed oracle for the plan cache: the last entry
// and generation stamp put under each signature, with no capacity bound.
type planModel map[Signature]modelEntry

type modelEntry struct {
	e   *cacheEntry
	gen uint64
}

// TestPlanCacheMatchesModelNoEviction replays one recorded trace through
// the clock-backed plan cache and the map model with capacity above the
// key universe: with eviction impossible the cache must equal the model —
// a fresh hit exactly when the model holds the key at the requested
// generation, the model's entry on every hit, the model's entry handed back
// as stale on a generation mismatch, and the same population and counters.
func TestPlanCacheMatchesModelNoEviction(t *testing.T) {
	t.Parallel()
	const keys = 200
	capacity := cacheShardCount * 8 // 512 >= keys, per-shard headroom
	c := newPlanCache(capacity)
	model := planModel{}

	rng := rand.New(rand.NewSource(41))
	var hits, misses int64
	for op := 0; op < 20000; op++ {
		k := uint64(rng.Intn(keys))
		sig := sigFor(k)
		gen := uint64(rng.Intn(3))
		if rng.Intn(100) < 25 {
			e := &cacheEntry{cost: float64(k), plan: []int{int(k)}}
			c.put(sig, e, gen)
			model[sig] = modelEntry{e, gen}
			continue
		}
		e, fresh, stale := c.get(sig, gen)
		want, ok := model[sig]
		switch {
		case ok && want.gen == gen:
			if !fresh || e != want.e {
				t.Fatalf("op %d key %d: fresh=%v entry %p, model %p at gen %d", op, k, fresh, e, want.e, gen)
			}
			hits++
		case ok:
			if fresh || stale != want.e {
				t.Fatalf("op %d key %d: gen %d lookup of a gen-%d entry: fresh=%v stale %p, want stale %p", op, k, gen, want.gen, fresh, stale, want.e)
			}
			misses++
		default:
			if fresh || stale != nil {
				t.Fatalf("op %d key %d: absent key returned fresh=%v stale %p", op, k, fresh, stale)
			}
			misses++
		}
	}
	if c.len() != len(model) {
		t.Fatalf("final population %d, model %d", c.len(), len(model))
	}
	if c.hits.Load() != hits || c.misses.Load() != misses {
		t.Fatalf("counters %d/%d, model %d/%d", c.hits.Load(), c.misses.Load(), hits, misses)
	}
	if c.evictions.Load() != 0 {
		t.Fatalf("%d evictions below capacity", c.evictions.Load())
	}
}

// TestPlanCacheMatchesModelUnderEviction drives the cache past capacity.
// Eviction may turn a model hit into a miss, but the contracts must hold:
// every hit returns the model's last-put entry at its generation, the
// population never exceeds capacity, and evictions happen only once
// capacity is reached.
func TestPlanCacheMatchesModelUnderEviction(t *testing.T) {
	t.Parallel()
	const keys = 512
	capacity := cacheShardCount // one entry per shard: maximal eviction pressure
	c := newPlanCache(capacity)
	model := planModel{}

	rng := rand.New(rand.NewSource(43))
	zipf := rand.NewZipf(rng, 1.3, 1, keys-1)
	for op := 0; op < 30000; op++ {
		k := zipf.Uint64()
		sig := sigFor(k)
		gen := uint64(rng.Intn(2))
		if rng.Intn(100) < 30 {
			e := &cacheEntry{cost: float64(k), plan: []int{int(k)}}
			c.put(sig, e, gen)
			model[sig] = modelEntry{e, gen}
			continue
		}
		e, fresh, stale := c.get(sig, gen)
		want := model[sig]
		if fresh && (e != want.e || want.gen != gen) {
			t.Fatalf("op %d key %d: hit returned %p at gen %d, model holds %p at gen %d", op, k, e, gen, want.e, want.gen)
		}
		if stale != nil && (stale != want.e || want.gen == gen) {
			t.Fatalf("op %d key %d: stale %p at gen %d, model holds %p at gen %d", op, k, stale, gen, want.e, want.gen)
		}
		if l := c.len(); l > capacity {
			t.Fatalf("op %d: population %d exceeds capacity %d", op, l, capacity)
		}
	}
	if c.evictions.Load() == 0 {
		t.Fatal("trace above capacity evicted nothing")
	}
}

// TestPlannerCacheMatchesModel is the end-to-end recorded-trace check: one
// zipf request sequence served by a planner with ample capacity must hit
// exactly when the model has seen the query's signature, and every hit
// must return the outcome the model recorded on its miss — same cost,
// optimality and response fragment, with a plan that reproduces the cost.
func TestPlannerCacheMatchesModel(t *testing.T) {
	t.Parallel()
	const corpus = 32
	queries := make([]*model.Query, corpus)
	for i := range queries {
		queries[i] = testQuery(t, gen.Default(5+i%4, int64(9000+i)))
	}
	p := New(Config{})
	seen := map[Signature]Result{}
	ctx := context.Background()

	rng := rand.New(rand.NewSource(47))
	zipf := rand.NewZipf(rng, 1.2, 1, corpus-1)
	var hits, misses int64
	for op := 0; op < 400; op++ {
		q := queries[zipf.Uint64()]
		r, err := p.Optimize(ctx, q)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		first, ok := seen[r.Signature]
		if r.Cached != ok {
			t.Fatalf("op %d: cached=%v, model has seen the signature: %v", op, r.Cached, ok)
		}
		if !ok {
			seen[r.Signature] = r
			misses++
			continue
		}
		hits++
		if r.Cost != first.Cost || r.Optimal != first.Optimal || string(r.ResponseFragment) != string(first.ResponseFragment) {
			t.Fatalf("op %d: hit %v/%v/%s diverges from the recorded miss %v/%v/%s",
				op, r.Cost, r.Optimal, r.ResponseFragment, first.Cost, first.Optimal, first.ResponseFragment)
		}
		if got := q.Cost(r.Plan); got != r.Cost {
			t.Fatalf("op %d: hit plan re-evaluates to %v, response says %v", op, got, r.Cost)
		}
	}
	st := p.Stats()
	if st.Hits != hits || st.Misses != misses || st.Searches != int64(len(seen)) {
		t.Fatalf("stats %d/%d/%d, model %d/%d/%d", st.Hits, st.Misses, st.Searches, hits, misses, len(seen))
	}
	if st.Touches == 0 {
		t.Fatal("clock cache recorded no touches over a warm trace")
	}
}
