package core_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"serviceordering/internal/baseline"
	"serviceordering/internal/core"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

// TestParallelMatchesSequential is the parallel optimizer's headline
// correctness test: same optimal cost as the sequential search across
// random instances, worker counts, and instance families.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	kinds := instanceKinds()
	for trial := 0; trial < trials; trial++ {
		kind := kinds[trial%len(kinds)]
		n := 3 + rng.Intn(6)
		q := randInstance(rng, n, kind)
		seq, err := core.Optimize(q)
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		for _, workers := range []int{1, 2, 4} {
			par, perr := core.OptimizeParallel(q, core.Options{}, workers)
			if perr != nil {
				t.Fatalf("OptimizeParallel(%d): %v", workers, perr)
			}
			if !par.Optimal {
				t.Fatalf("workers=%d: Optimal = false without budget", workers)
			}
			if err := par.Plan.Validate(q); err != nil {
				t.Fatalf("workers=%d: invalid plan: %v", workers, err)
			}
			if !costsMatch(par.Cost, seq.Cost) {
				t.Fatalf("trial %d (%s, n=%d, workers=%d): parallel %v != sequential %v",
					trial, kind.name, n, workers, par.Cost, seq.Cost)
			}
			if !costsMatch(q.Cost(par.Plan), par.Cost) {
				t.Fatalf("workers=%d: reported cost %v but plan costs %v", workers, par.Cost, q.Cost(par.Plan))
			}
		}
	}
}

func TestParallelMatchesExhaustiveHardInstances(t *testing.T) {
	// Weak filters force real concurrent work (thousands of nodes).
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		n := 7 + rng.Intn(2)
		q := randInstance(rng, n, instanceKind{filtersOnly: true})
		for i := range q.Services {
			q.Services[i].Selectivity = 0.85 + 0.15*rng.Float64()
		}
		want, err := baseline.Exhaustive(q)
		if err != nil {
			t.Fatalf("Exhaustive: %v", err)
		}
		got, err := core.OptimizeParallel(q, core.Options{}, 4)
		if err != nil {
			t.Fatalf("OptimizeParallel: %v", err)
		}
		if !costsMatch(got.Cost, want.Cost) {
			t.Fatalf("trial %d: parallel %v != optimum %v", trial, got.Cost, want.Cost)
		}
	}
}

func TestParallelSingleServiceAndErrors(t *testing.T) {
	q := mustQuery(t, []model.Service{{Cost: 2, Selectivity: 0.5}}, [][]float64{{0}})
	res, err := core.OptimizeParallel(q, core.Options{}, 3)
	if err != nil || !res.Plan.Equal(model.Plan{0}) || !res.Optimal {
		t.Fatalf("single service: (%+v, %v)", res, err)
	}

	if _, err := core.OptimizeParallel(q, core.Options{}, -1); err == nil {
		t.Errorf("negative workers accepted")
	}
	if _, err := core.OptimizeParallel(&model.Query{}, core.Options{}, 2); err == nil {
		t.Errorf("invalid query accepted")
	}
	bad := fixture3(t)
	if _, err := core.OptimizeParallel(bad, core.Options{InitialIncumbent: model.Plan{0}}, 2); err == nil {
		t.Errorf("invalid incumbent accepted")
	}
}

func TestParallelRespectsBudget(t *testing.T) {
	q := randInstance(rand.New(rand.NewSource(5)), 12, instanceKind{})
	for i := range q.Services {
		q.Services[i].Selectivity = 0.95
	}
	res, err := core.OptimizeParallel(q, core.Options{
		NodeLimit:               40,
		DisableClosure:          true,
		DisableIncumbentPruning: true,
	}, 4)
	if err != nil {
		t.Fatalf("OptimizeParallel: %v", err)
	}
	if res.Optimal {
		t.Fatalf("Optimal = true under a 40-node budget with pruning disabled")
	}
}

// TestParallelSharedBudgetSpendsWholeLimit is the regression test for the
// old per-worker NodeLimit split: workers used to abort with budget still
// unspent in other workers' shares. With the shared pool, a parallel run
// whose search needs far more than NodeLimit nodes must expand ≈NodeLimit
// nodes in total regardless of worker count (slack: one aborting
// node-count increment per worker).
func TestParallelSharedBudgetSpendsWholeLimit(t *testing.T) {
	q := randInstance(rand.New(rand.NewSource(5)), 12, instanceKind{})
	for i := range q.Services {
		q.Services[i].Selectivity = 0.95
	}
	const limit = 3000
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := core.OptimizeParallel(q, core.Options{
			NodeLimit:               limit,
			DisableClosure:          true,
			DisableIncumbentPruning: true,
		}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Optimal {
			t.Fatalf("workers=%d: Optimal = true under a %d-node budget with pruning disabled", workers, limit)
		}
		got := res.Stats.NodesExpanded
		if got < limit || got > limit+int64(workers)+4 {
			t.Fatalf("workers=%d: expanded %d nodes, want ≈%d (the whole shared budget)", workers, got, limit)
		}
	}
}

// TestParallelTimeLimit pins that the wall-clock budget reaches the
// parallel workers (it used to be armed only inside the sequential run
// loop): with pruning disabled, a 14-service instance cannot finish in
// 20ms, so the run must abort and report a non-optimal incumbent.
func TestParallelTimeLimit(t *testing.T) {
	q := randInstance(rand.New(rand.NewSource(8)), 14, instanceKind{})
	start := time.Now()
	res, err := core.OptimizeParallel(q, core.Options{
		TimeLimit:               20 * time.Millisecond,
		DisableClosure:          true,
		DisableIncumbentPruning: true,
		DisableVPruning:         true,
	}, 4)
	if err != nil {
		t.Fatalf("OptimizeParallel: %v", err)
	}
	if res.Optimal {
		t.Fatalf("Optimal = true under a 20ms budget with pruning disabled")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("parallel run ignored the deadline: took %v", elapsed)
	}
}

// TestParallelSplitMatchesSequential covers the triple-task work-splitting
// path (n >= splitMinServices, workers > 1), which the small-instance
// correctness tests never reach: same optimal cost as the sequential
// search across families and worker counts.
func TestParallelSplitMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("split corpus is not -short")
	}
	rng := rand.New(rand.NewSource(6161))
	kinds := instanceKinds()
	for trial := 0; trial < 8; trial++ {
		kind := kinds[trial%len(kinds)]
		n := 10 + rng.Intn(3)
		q := randInstance(rng, n, kind)
		seq, err := core.Optimize(q)
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		for _, workers := range []int{2, 4} {
			par, err := core.OptimizeParallel(q, core.Options{}, workers)
			if err != nil {
				t.Fatalf("OptimizeParallel(%d): %v", workers, err)
			}
			if !par.Optimal {
				t.Fatalf("trial %d workers=%d: Optimal = false without budget", trial, workers)
			}
			if err := par.Plan.Validate(q); err != nil {
				t.Fatalf("trial %d workers=%d: invalid plan: %v", trial, workers, err)
			}
			if !costsMatch(par.Cost, seq.Cost) {
				t.Fatalf("trial %d (%s, n=%d, workers=%d): split parallel %v != sequential %v",
					trial, kind.name, n, workers, par.Cost, seq.Cost)
			}
		}
	}
}

func TestParallelWithIncumbentSeed(t *testing.T) {
	q := fixture3(t)
	res, err := core.OptimizeParallel(q, core.Options{InitialIncumbent: model.Plan{0, 1, 2}}, 2)
	if err != nil {
		t.Fatalf("OptimizeParallel: %v", err)
	}
	if !costsMatch(res.Cost, 2.5) || !res.Optimal {
		t.Fatalf("got (%v, optimal=%v)", res.Cost, res.Optimal)
	}
}

func TestParallelDefaultWorkers(t *testing.T) {
	q := fixture3(t)
	res, err := core.OptimizeParallel(q, core.Options{}, 0)
	if err != nil {
		t.Fatalf("OptimizeParallel: %v", err)
	}
	if !costsMatch(res.Cost, 2.5) {
		t.Fatalf("cost = %v, want 2.5", res.Cost)
	}
}

func TestParallelPrecedence(t *testing.T) {
	q := fixture3(t)
	q.Precedence = [][2]int{{2, 0}}
	want, err := baseline.Exhaustive(q)
	if err != nil {
		t.Fatalf("Exhaustive: %v", err)
	}
	got, err := core.OptimizeParallel(q, core.Options{}, 3)
	if err != nil {
		t.Fatalf("OptimizeParallel: %v", err)
	}
	if err := got.Plan.Validate(q); err != nil {
		t.Fatalf("infeasible plan: %v", err)
	}
	if !costsMatch(got.Cost, want.Cost) {
		t.Fatalf("parallel %v != optimum %v", got.Cost, want.Cost)
	}
}

// optimizeHoldingFirstTask runs OptimizeParallel on two workers, holding
// the one that claims task 0 until the other has left the claim loop, so
// every later task — and every Lemma 3 mark it sets — lands between task
// 0's claim and its skip check.
func optimizeHoldingFirstTask(q *model.Query) (core.Result, error) {
	var left atomic.Int32
	otherDone := make(chan struct{})
	restore := core.SetTestHookClaim(func(i int64) {
		switch {
		case i == 0:
			<-otherDone
		case i < 0:
			if left.Add(1) == 1 {
				close(otherDone)
			}
		}
	})
	defer restore()
	return core.OptimizeParallel(q, core.Options{}, 2)
}

// TestParallelLateClaimNotSkipped pins the parallel search's claim/check
// order. A Lemma 3 jump in task k justifies skipping only the tasks after
// k, yet a worker claims task i before it checks the marks, and a later
// task can set them in between. Holding task 0 until the other worker is
// done forces that interleaving on every instance; the search must still
// run task 0 rather than return a worse plan marked optimal. (Not
// parallel: the claim hook is package state.)
func TestParallelLateClaimNotSkipped(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	type instance struct {
		family string
		n      int
		seed   int64
	}
	// Skipping task 0 returns these two above the optimum, marked
	// optimal: +21.7% and +2.8%.
	cases := []instance{{"proliferative", 8, 182145}, {"plain", 11, 63363}}
	tweaks := map[string]func(*gen.Params){}
	for _, fam := range familyCorpus() {
		tweaks[fam.name] = fam.tweak
		for n := 6; n <= 12; n++ {
			for s := 0; s < seeds; s++ {
				cases = append(cases, instance{fam.name, n, int64(7919*s + n)})
			}
		}
	}
	for _, c := range cases {
		label := fmt.Sprintf("%s n=%d seed=%d", c.family, c.n, c.seed)
		p := gen.Default(c.n, c.seed)
		tweaks[c.family](&p)
		q, err := p.Generate()
		if err != nil {
			t.Fatalf("%s: generate: %v", label, err)
		}
		want, err := core.OptimizeWithOptions(q, core.Options{DisableDominance: true})
		if err != nil {
			t.Fatalf("%s: sequential: %v", label, err)
		}
		got, err := optimizeHoldingFirstTask(q)
		if err != nil {
			t.Fatalf("%s: parallel: %v", label, err)
		}
		if !got.Optimal || got.Cost != want.Cost {
			t.Fatalf("%s: parallel with task 0 held returned %v (optimal=%v), optimum %v",
				label, got.Cost, got.Optimal, want.Cost)
		}
	}
}
