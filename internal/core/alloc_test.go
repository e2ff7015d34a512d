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

// The parallel path shares the prep and the dominance table across
// workers; per-worker setup may allocate, but the node loop itself must
// not. Guarded the same way, with the worker count held at 1 so node
// counts are deterministic.
func TestParallelSearchSteadyStateAllocs(t *testing.T) {
	p := gen.Default(12, 20156)
	p.SelMin = 0.85
	q, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}

	for _, disableDom := range []bool{false, true} {
		t.Run(fmt.Sprintf("dominance=%v", !disableDom), func(t *testing.T) {
			run := func(nodeLimit int64) (allocs int64) {
				opts := core.Options{DisableDominance: disableDom, NodeLimit: nodeLimit}
				mallocs, _ := leastAllocs(10, func() {
					if _, err := core.OptimizeParallel(q, opts, 1); err != nil {
						t.Fatal(err)
					}
				})
				return int64(mallocs)
			}

			shortAllocs := run(64)
			fullAllocs := run(0)
			// Parallel incumbent publication clones the plan under the
			// shared lock, so allow a handful of improvement-driven
			// allocations — but nothing scaling with the thousands of extra
			// nodes.
			if diff := fullAllocs - shortAllocs; diff > 32 {
				t.Fatalf("parallel node loop allocates: full run %v vs truncated %v", fullAllocs, shortAllocs)
			}
		})
	}
}

// A search must not pay for a fresh dominance table: once a search of
// some size has returned its table to domtable's pool, the next search of
// that size draws it back instead of allocating and zeroing one. At n = 16
// the table is 2.5 MiB, which a search building its own would allocate
// every run.
func TestSearchRecyclesDominanceTable(t *testing.T) {
	q, err := gen.Default(16, 1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	tableBytes := domtable.New(16, core.DefaultDominanceTableBytes).Bytes()

	// A collection drains the pool; hold it off while measuring. The
	// first run builds the table, the others draw it back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, least := leastAllocs(10, func() {
		if _, err := core.OptimizeWithOptions(q, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if least > uint64(tableBytes)/8 {
		t.Fatalf("a repeated n=16 search allocates %d bytes, want well under its %d-byte dominance table", least, tableBytes)
	}
}

// A search's setup must cost what the search takes, not what the instance
// could offer: the root pairs come off a heap as the search takes them
// (most searches take one or two of n(n-1)), and the prep's buffers and
// the parallel task list come back from a pool. What a repeated n = 17
// search still allocates is its own search state (per-worker scratch,
// the returned plan), the compiled precedence and, in parallel, the
// goroutines' shared bookkeeping. Fresh prep buffers and a full sort of
// all 272 pairs cost 19112 bytes in 26 allocations per sequential search,
// and 56384 bytes in 52 with two workers.
func TestSearchSetupAllocs(t *testing.T) {
	q, err := gen.Default(17, 1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name     string
		optimize func() (core.Result, error)
		bytes    uint64
		mallocs  uint64
	}{
		// Measured: 824 bytes in 7 allocations, and 3080 in 31.
		{"sequential", func() (core.Result, error) { return core.OptimizeWithOptions(q, core.Options{}) }, 1024, 10},
		{"parallel", func() (core.Result, error) { return core.OptimizeParallel(q, core.Options{}, 2) }, 4096, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mallocs, bytes := leastAllocs(20, func() {
				if _, err := tc.optimize(); err != nil {
					t.Fatal(err)
				}
			})
			if bytes > tc.bytes || mallocs > tc.mallocs {
				t.Fatalf("a repeated n=17 search allocates %d bytes in %d allocations, want at most %d bytes in %d",
					bytes, mallocs, tc.bytes, tc.mallocs)
			}
		})
	}
}
