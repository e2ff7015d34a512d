package core_test

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"serviceordering/internal/core"
	"serviceordering/internal/domtable"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

// The dfs node loop must not allocate: every per-node structure (remaining
// set, growth products, incumbent plans, dominance-table traffic) lives in
// buffers allocated once per run. The tests pin that property by comparing
// the allocation count of a budget-truncated run against a full run of the
// same instance — the full run expands thousands more nodes, so any
// per-node allocation would separate the two counts. Both dominance modes
// are covered: the table is probed and published on every expanded node,
// so a single boxing or rehash on that path would fail the enabled case.

// leastAllocs returns the fewest heap allocations and the fewest bytes any
// of runs calls of f allocated, with GOMAXPROCS at 1 as
// testing.AllocsPerRun holds it (a goroutine that moved to another
// processor would miss the table its last run pooled on the first). A run
// whose dominance table or prep misses its pool builds one, and the race
// detector drops one pooled object in four on purpose; a miss only ever
// adds allocations, so the least counts are those of a run that drew from
// both pools, where an average would move with the number of misses. A
// run hits both with probability 9/16 under the race detector, so the
// tests whose bound one prep miss would break take 20 runs: all 20 miss
// about once in 10^7.
func leastAllocs(runs int, f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return mallocs, bytes
}

func TestSearchZeroAllocsPerNode(t *testing.T) {
	p := gen.Default(12, 20156)
	p.SelMin = 0.85
	q, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}

	for _, disableDom := range []bool{false, true} {
		t.Run(fmt.Sprintf("dominance=%v", !disableDom), func(t *testing.T) {
			run := func(nodeLimit int64) (allocs int64, nodes int64) {
				opts := core.Options{DisableDominance: disableDom, NodeLimit: nodeLimit}
				mallocs, _ := leastAllocs(20, func() {
					res, err := core.OptimizeWithOptions(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					nodes = res.Stats.NodesExpanded
				})
				return int64(mallocs), nodes
			}

			shortAllocs, shortNodes := run(64)
			fullAllocs, fullNodes := run(0)
			// Dominance cuts this instance from ~33k to ~5k nodes; either
			// way thousands of extra expansions separate the two runs.
			if fullNodes < shortNodes+3_000 {
				t.Fatalf("instance too easy for the comparison: %d vs %d nodes", fullNodes, shortNodes)
			}
			// The runs differ by thousands of expanded nodes; their
			// allocation counts may differ only by noise (at most one count).
			if diff := fullAllocs - shortAllocs; diff > 1 {
				perNode := float64(diff) / float64(fullNodes-shortNodes)
				t.Fatalf("node loop allocates: full run %v allocs vs truncated %v (%.4f allocs/node over %d extra nodes)",
					fullAllocs, shortAllocs, perNode, fullNodes-shortNodes)
			}
			// The per-run setup itself must stay bounded: the search state,
			// the returned plan and the compiled precedence, 7 allocations
			// here. The prep and the dominance table add nothing once warm:
			// they come back from their pools.
			if fullAllocs > 12 {
				t.Fatalf("per-run setup allocates %v times, want <= 12", fullAllocs)
			}
		})
	}
}

// A search must not pay for a fresh dominance table: every search draws
// its table at domtable's 128 KiB floor from one pool, whatever its n, and
// a search that stays within the floor hands it back unchanged. So
// searches of different sizes in turn each draw the table another size
// returned. Before the pool served every n, each n >= 18 search allocated
// a 10 MiB table.
func TestSearchRecyclesDominanceTable(t *testing.T) {
	var qs []*model.Query
	for _, n := range []int{16, 18, 12, 32, 48} {
		q, err := gen.Default(n, 1).Generate()
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	floorBytes := domtable.Get(12, core.DefaultDominanceTableBytes).Bytes()

	// A collection drains the pool; hold it off while measuring. The
	// first round builds the table, later ones draw it back. Each search
	// keeps its least count over the rounds, as leastAllocs explains: a
	// search that misses a pool only ever allocates more. Under the race
	// detector the n=48 search hits both pools with probability about
	// 0.18 a round (its prep must also have survived the four searches
	// since it last grew to n=48), so 60 rounds all miss about once in
	// 10^5.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := make([]uint64, len(qs))
	for round := 0; round < 60; round++ {
		for i, q := range qs {
			_, bytes := leastAllocs(1, func() {
				if _, err := core.OptimizeWithOptions(q, core.Options{}); err != nil {
					t.Fatal(err)
				}
			})
			if round == 0 || bytes < least[i] {
				least[i] = bytes
			}
		}
	}
	for i, q := range qs {
		if least[i] > uint64(floorBytes)/8 {
			t.Errorf("an n=%d search after an n=%d one allocates %d bytes, want well under one %d-byte dominance table",
				q.N(), qs[(i+len(qs)-1)%len(qs)].N(), least[i], floorBytes)
		}
	}
}

// A search's setup must cost what the search takes, not what the instance
// could offer: the root pairs come off a heap as the search takes them
// (most searches take one or two of n(n-1)), the prep's buffers come back
// from a pool, and so does the dominance table, at its floor size whatever
// n is. What a repeated search still allocates is its own search state
// (scratch and the returned plan) and the compiled precedence. At n = 17,
// fresh prep buffers and a full sort of all 272 pairs cost 19112 bytes in
// 26 allocations per search; from n = 18, a fresh 10 MiB dominance table
// came on top.
func TestSearchSetupAllocs(t *testing.T) {
	var qs []*model.Query
	for _, n := range []int{17, 18, 32, 48} {
		q, err := gen.Default(n, 1).Generate()
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name     string
		optimize func(*model.Query) (core.Result, error)
		// bytes and mallocs bound the n = 17 search; larger searches may
		// allocate up to largeBytes, well under the 128 KiB floor table a
		// pool miss would allocate, in as many allocations.
		bytes, largeBytes uint64
		mallocs           uint64
	}{
		// Measured: 824 bytes in 7 allocations at n = 17 and 1840 at
		// n = 48.
		{"sequential", func(q *model.Query) (core.Result, error) { return core.OptimizeWithOptions(q, core.Options{}) }, 1024, 4096, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, q := range qs {
				mallocs, bytes := leastAllocs(20, func() {
					if _, err := tc.optimize(q); err != nil {
						t.Fatal(err)
					}
				})
				limit := tc.largeBytes
				if q.N() == 17 {
					limit = tc.bytes
				}
				if bytes > limit || mallocs > tc.mallocs {
					t.Errorf("a repeated n=%d search allocates %d bytes in %d allocations, want at most %d bytes in %d",
						q.N(), bytes, mallocs, limit, tc.mallocs)
				}
			}
		})
	}
}
