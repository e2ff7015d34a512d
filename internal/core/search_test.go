package core_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"serviceordering/internal/baseline"
	"serviceordering/internal/core"
	"serviceordering/internal/model"
)

// mustQuery builds a query or fails the test.
func mustQuery(t *testing.T, services []model.Service, transfer [][]float64) *model.Query {
	t.Helper()
	q, err := model.NewQuery(services, transfer)
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}
	return q
}

// fixture3 is the hand-checked 3-service instance; the optimum is [0 1 2]
// with cost 2.5.
func fixture3(t *testing.T) *model.Query {
	t.Helper()
	return mustQuery(t,
		[]model.Service{
			{Name: "a", Cost: 2, Selectivity: 0.5},
			{Name: "b", Cost: 1, Selectivity: 0.8},
			{Name: "c", Cost: 4, Selectivity: 0.25},
		},
		[][]float64{
			{0, 1, 2},
			{3, 0, 1},
			{2, 5, 0},
		})
}

// instanceKind enumerates the random instance families the property tests
// sweep over.
type instanceKind struct {
	name        string
	filtersOnly bool
	uniform     bool
	withSource  bool
	withSink    bool
	withPrec    bool
	zeroCosts   bool // sigma=1, c=0: the bottleneck-TSP corner
}

func instanceKinds() []instanceKind {
	return []instanceKind{
		{name: "filters-heterogeneous", filtersOnly: true},
		{name: "filters-uniform", filtersOnly: true, uniform: true},
		{name: "proliferative", filtersOnly: false},
		{name: "with-source-sink", filtersOnly: true, withSource: true, withSink: true},
		{name: "with-precedence", filtersOnly: true, withPrec: true},
		{name: "proliferative-everything", withSource: true, withSink: true, withPrec: true},
		{name: "btsp-corner", zeroCosts: true},
	}
}

// randInstance builds a random valid query of the given kind.
func randInstance(rng *rand.Rand, n int, kind instanceKind) *model.Query {
	services := make([]model.Service, n)
	for i := range services {
		sigma := rng.Float64()
		if !kind.filtersOnly {
			sigma *= 1.8
		}
		cost := 0.05 + rng.Float64()*5
		if kind.zeroCosts {
			sigma, cost = 1, 0
		}
		// Exercise the multi-threaded relaxation on a third of services.
		threads := 0
		if rng.Intn(3) == 0 {
			threads = 2 + rng.Intn(3)
		}
		services[i] = model.Service{Cost: cost, Selectivity: sigma, Threads: threads}
	}
	uniform := 0.1 + rng.Float64()*2
	transfer := make([][]float64, n)
	for i := range transfer {
		transfer[i] = make([]float64, n)
		for j := range transfer[i] {
			if i == j {
				continue
			}
			if kind.uniform {
				transfer[i][j] = uniform
			} else {
				transfer[i][j] = rng.Float64() * 4
			}
		}
	}
	q := &model.Query{Services: services, Transfer: transfer}
	if kind.withSource {
		q.SourceTransfer = make([]float64, n)
		for i := range q.SourceTransfer {
			q.SourceTransfer[i] = rng.Float64() * 2
		}
	}
	if kind.withSink {
		q.SinkTransfer = make([]float64, n)
		for i := range q.SinkTransfer {
			q.SinkTransfer[i] = rng.Float64() * 2
		}
	}
	if kind.withPrec && n >= 3 {
		// A couple of random forward edges over a random relabeling keeps
		// the relation acyclic.
		perm := rng.Perm(n)
		edges := 1 + rng.Intn(2)
		for e := 0; e < edges; e++ {
			i := rng.Intn(n - 1)
			j := i + 1 + rng.Intn(n-i-1)
			q.Precedence = append(q.Precedence, [2]int{perm[i], perm[j]})
		}
	}
	return q
}

func costsMatch(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestOptimizeMatchesExhaustive is the headline correctness test (T1): on
// hundreds of random instances across every instance family, the
// branch-and-bound result must equal the exhaustive optimum.
func TestOptimizeMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(20100725)) // PODC'10 started July 25
	trialsPerKind := 60
	if testing.Short() {
		trialsPerKind = 15
	}
	for _, kind := range instanceKinds() {
		t.Run(kind.name, func(t *testing.T) {
			for trial := 0; trial < trialsPerKind; trial++ {
				n := 2 + rng.Intn(7)
				q := randInstance(rng, n, kind)
				want, err := baseline.Exhaustive(q)
				if err != nil {
					t.Fatalf("trial %d: Exhaustive: %v", trial, err)
				}
				got, err := core.Optimize(q)
				if err != nil {
					t.Fatalf("trial %d: Optimize: %v", trial, err)
				}
				if !got.Optimal {
					t.Fatalf("trial %d: Optimal = false without budget", trial)
				}
				if err := got.Plan.Validate(q); err != nil {
					t.Fatalf("trial %d: invalid plan %v: %v", trial, got.Plan, err)
				}
				if !costsMatch(got.Cost, q.Cost(got.Plan)) {
					t.Fatalf("trial %d: reported cost %v but plan costs %v", trial, got.Cost, q.Cost(got.Plan))
				}
				if !costsMatch(got.Cost, want.Cost) {
					t.Fatalf("trial %d (n=%d): B&B cost %v != optimum %v\nB&B plan %v, optimal plan %v\nquery: %+v",
						trial, n, got.Cost, want.Cost, got.Plan, want.Plan, q)
				}
			}
		})
	}
}

// TestAblationConfigsStillOptimal verifies that every combination of
// disabled pruning rules and bound tightness remains exact — the rules
// only change how much work is done, never the answer.
func TestAblationConfigsStillOptimal(t *testing.T) {
	configs := map[string]core.Options{
		"no-closure":      {DisableClosure: true},
		"no-vpruning":     {DisableVPruning: true},
		"no-incumbent":    {DisableIncumbentPruning: true},
		"loose-bounds":    {LooseBounds: true},
		"strong-lb":       {StrongLowerBound: true},
		"only-closure":    {DisableIncumbentPruning: true, DisableVPruning: true},
		"plain-bnb":       {DisableClosure: true, DisableVPruning: true},
		"everything-off":  {DisableClosure: true, DisableVPruning: true, DisableIncumbentPruning: true},
		"strong-lb-loose": {StrongLowerBound: true, LooseBounds: true},
	}
	rng := rand.New(rand.NewSource(99))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	kinds := instanceKinds()
	for name, opts := range configs {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				kind := kinds[trial%len(kinds)]
				n := 2 + rng.Intn(5)
				q := randInstance(rng, n, kind)
				want, err := baseline.Exhaustive(q)
				if err != nil {
					t.Fatalf("Exhaustive: %v", err)
				}
				got, err := core.OptimizeWithOptions(q, opts)
				if err != nil {
					t.Fatalf("Optimize: %v", err)
				}
				if !costsMatch(got.Cost, want.Cost) {
					t.Fatalf("trial %d (%s, n=%d): cost %v != optimum %v", trial, kind.name, n, got.Cost, want.Cost)
				}
			}
		})
	}
}

func TestOptimizeHandComputed(t *testing.T) {
	res, err := core.Optimize(fixture3(t))
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !res.Plan.Equal(model.Plan{0, 1, 2}) {
		t.Errorf("Plan = %v, want [0 1 2]", res.Plan)
	}
	if !costsMatch(res.Cost, 2.5) {
		t.Errorf("Cost = %v, want 2.5", res.Cost)
	}
	if !res.Optimal {
		t.Errorf("Optimal = false")
	}
	if res.Stats.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", res.Stats.Elapsed)
	}
}

func TestOptimizeSingleService(t *testing.T) {
	q := mustQuery(t, []model.Service{{Cost: 3, Selectivity: 0.5}}, [][]float64{{0}})
	q.SinkTransfer = []float64{4}
	res, err := core.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !res.Plan.Equal(model.Plan{0}) || !costsMatch(res.Cost, 3+0.5*4) || !res.Optimal {
		t.Fatalf("got (%v, %v, optimal=%v), want ([0], 5, true)", res.Plan, res.Cost, res.Optimal)
	}
}

func TestOptimizeTwoServices(t *testing.T) {
	q := mustQuery(t,
		[]model.Service{{Cost: 1, Selectivity: 0.5}, {Cost: 4, Selectivity: 0.5}},
		[][]float64{{0, 2}, {8, 0}},
	)
	// [0 1]: max(1+0.5*2, 0.5*4) = 2. [1 0]: max(4+0.5*8, 0.5*1) = 8.
	res, err := core.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !res.Plan.Equal(model.Plan{0, 1}) || !costsMatch(res.Cost, 2) {
		t.Fatalf("got (%v, %v), want ([0 1], 2)", res.Plan, res.Cost)
	}
}

func TestOptimizeRespectsPrecedence(t *testing.T) {
	q := fixture3(t)
	q.Precedence = [][2]int{{2, 0}} // forbids the unconstrained optimum [0 1 2]
	res, err := core.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Fatalf("infeasible plan %v: %v", res.Plan, err)
	}
	want, err := baseline.Exhaustive(q)
	if err != nil {
		t.Fatalf("Exhaustive: %v", err)
	}
	if !costsMatch(res.Cost, want.Cost) {
		t.Fatalf("cost %v, want %v", res.Cost, want.Cost)
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	q := randInstance(rand.New(rand.NewSource(5)), 7, instanceKind{})
	r1, err := core.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	r2, err := core.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !r1.Plan.Equal(r2.Plan) || r1.Cost != r2.Cost {
		t.Fatalf("two runs disagree: (%v, %v) vs (%v, %v)", r1.Plan, r1.Cost, r2.Plan, r2.Cost)
	}
}

func TestOptimizeNodeLimit(t *testing.T) {
	q := randInstance(rand.New(rand.NewSource(8)), 10, instanceKind{})
	res, err := core.OptimizeWithOptions(q, core.Options{NodeLimit: 5})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Optimal {
		t.Fatalf("Optimal = true under a 5-node budget")
	}
	if res.Stats.NodesExpanded > 6 {
		t.Fatalf("NodesExpanded = %d, want <= 6", res.Stats.NodesExpanded)
	}
}

// TestNodeLimitReached pins which stops report Stats.NodeLimitReached: the
// node budget, with exactly NodeLimit nodes expanded; not a time limit, a
// cancel, or a run that finishes inside its budget.
func TestNodeLimitReached(t *testing.T) {
	q := randInstance(rand.New(rand.NewSource(8)), 14, instanceKind{})
	exhaustive := core.Options{DisableClosure: true, DisableIncumbentPruning: true, DisableVPruning: true}
	canceled := make(chan struct{})
	close(canceled)
	with := func(edit func(*core.Options)) core.Options {
		o := exhaustive
		edit(&o)
		return o
	}
	for _, tc := range []struct {
		name     string
		opts     core.Options
		reached  bool
		finishes bool
	}{
		{"sequential node limit", with(func(o *core.Options) { o.NodeLimit = 500 }), true, false},
		{"time limit", with(func(o *core.Options) { o.TimeLimit = 5 * time.Millisecond }), false, false},
		{"cancel", with(func(o *core.Options) { o.Cancel = canceled }), false, false},
		{"finished inside the limit", core.Options{NodeLimit: 1 << 30}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.OptimizeWithOptions(q, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.NodeLimitReached != tc.reached {
				t.Fatalf("NodeLimitReached = %v, want %v", res.Stats.NodeLimitReached, tc.reached)
			}
			if res.Optimal != tc.finishes {
				t.Fatalf("Optimal = %v, want %v", res.Optimal, tc.finishes)
			}
			if tc.reached && res.Stats.NodesExpanded != tc.opts.NodeLimit {
				t.Fatalf("NodesExpanded = %d, want the whole %d-node budget", res.Stats.NodesExpanded, tc.opts.NodeLimit)
			}
		})
	}
}

func TestOptimizeTimeLimit(t *testing.T) {
	// With every pruning rule disabled, a 14-service instance forces full
	// enumeration (~14! nodes), so a short deadline must trip.
	q := randInstance(rand.New(rand.NewSource(8)), 14, instanceKind{})
	res, err := core.OptimizeWithOptions(q, core.Options{
		TimeLimit:               20 * time.Millisecond,
		DisableClosure:          true,
		DisableIncumbentPruning: true,
		DisableVPruning:         true,
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Optimal {
		t.Fatalf("Optimal = true under a 20ms budget with pruning disabled")
	}
}

func TestOptimizeInitialIncumbent(t *testing.T) {
	q := fixture3(t)
	res, err := core.OptimizeWithOptions(q, core.Options{InitialIncumbent: model.Plan{0, 1, 2}})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !costsMatch(res.Cost, 2.5) || !res.Optimal {
		t.Fatalf("got (%v, optimal=%v), want (2.5, true)", res.Cost, res.Optimal)
	}

	if _, err := core.OptimizeWithOptions(q, core.Options{InitialIncumbent: model.Plan{0, 0, 1}}); err == nil {
		t.Fatalf("invalid incumbent accepted")
	}
}

func TestOptimizeInputErrors(t *testing.T) {
	if _, err := core.Optimize(&model.Query{}); err == nil {
		t.Errorf("empty query accepted")
	}
	q := fixture3(t)
	if _, err := core.OptimizeWithOptions(q, core.Options{NodeLimit: -1}); err == nil {
		t.Errorf("negative node limit accepted")
	}
	if _, err := core.OptimizeWithOptions(q, core.Options{TimeLimit: -time.Second}); err == nil {
		t.Errorf("negative time limit accepted")
	}

	n := core.MaxServices + 1
	services := make([]model.Service, n)
	transfer := make([][]float64, n)
	for i := range services {
		services[i] = model.Service{Cost: 1, Selectivity: 0.5}
		transfer[i] = make([]float64, n)
	}
	big := mustQuery(t, services, transfer)
	if _, err := core.Optimize(big); err == nil {
		t.Errorf("oversized query accepted")
	}
}

func TestStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := randInstance(rng, 9, instanceKind{filtersOnly: true})

	// The cold search exercises every work counter.
	res, err := core.OptimizeWithOptions(q, core.Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	st := res.Stats
	if st.NodesExpanded <= 0 || st.PairsTried <= 0 {
		t.Errorf("work counters empty: %+v", st)
	}
	if st.IncumbentUpdates <= 0 {
		t.Errorf("no incumbent updates: %+v", st)
	}
	// The pruning rules must be doing something on a 9-service instance:
	// far fewer nodes than the 9!/2! tree.
	var full int64 = 1
	for i := 2; i <= 9; i++ {
		full *= int64(i)
	}
	if st.NodesExpanded >= full {
		t.Errorf("NodesExpanded = %d, not better than exhaustive %d", st.NodesExpanded, full)
	}
}

// TestLemmaPruningReducesWork checks the directional claims behind the F7
// ablation: disabling each rule may never reduce the node count on the
// same instance (it can only add work), and the full algorithm explores
// strictly fewer nodes than the everything-off configuration.
func TestLemmaPruningReducesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		q := randInstance(rng, 7, instanceKind{filtersOnly: trial%2 == 0})
		fullRun, err := core.Optimize(q)
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		offRun, err := core.OptimizeWithOptions(q, core.Options{
			DisableClosure:          true,
			DisableVPruning:         true,
			DisableIncumbentPruning: true,
		})
		if err != nil {
			t.Fatalf("Optimize (off): %v", err)
		}
		if fullRun.Stats.NodesExpanded > offRun.Stats.NodesExpanded {
			t.Fatalf("trial %d: full algorithm expanded %d nodes, more than unpruned %d",
				trial, fullRun.Stats.NodesExpanded, offRun.Stats.NodesExpanded)
		}
		if !costsMatch(fullRun.Cost, offRun.Cost) {
			t.Fatalf("trial %d: pruned and unpruned disagree: %v vs %v", trial, fullRun.Cost, offRun.Cost)
		}
	}
}

// TestOptimizeExploitsThreads pins the multi-threaded relaxation: adding
// threads to an expensive service changes which ordering is optimal, and
// the optimizer tracks the change.
func TestOptimizeExploitsThreads(t *testing.T) {
	q := mustQuery(t,
		[]model.Service{
			{Name: "cheap", Cost: 1, Selectivity: 0.9},
			{Name: "expensive", Cost: 3, Selectivity: 0.5},
		},
		[][]float64{{0, 0.1}, {0.1, 0}})
	res, err := core.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !res.Plan.Equal(model.Plan{0, 1}) {
		t.Fatalf("single-threaded optimum = %v, want [0 1]", res.Plan)
	}

	q.Services[1].Threads = 4 // the strong filter becomes cheap to run first
	res, err = core.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !res.Plan.Equal(model.Plan{1, 0}) {
		t.Fatalf("threaded optimum = %v, want [1 0]", res.Plan)
	}
	want, err := baseline.Exhaustive(q)
	if err != nil {
		t.Fatalf("Exhaustive: %v", err)
	}
	if !costsMatch(res.Cost, want.Cost) {
		t.Fatalf("cost %v != exhaustive %v", res.Cost, want.Cost)
	}
}

// TestVJumpTriggers builds an instance where the bottleneck of a closed
// prefix sits at an interior position, exercising the multi-level
// backtrack.
func TestVJumpTriggers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var sawJump bool
	for trial := 0; trial < 40 && !sawJump; trial++ {
		q := randInstance(rng, 8, instanceKind{filtersOnly: true})
		res, err := core.Optimize(q)
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		if res.Stats.VJumps > 0 {
			sawJump = true
			if res.Stats.LevelsSkipped < res.Stats.VJumps {
				t.Fatalf("LevelsSkipped %d < VJumps %d", res.Stats.LevelsSkipped, res.Stats.VJumps)
			}
		}
	}
	if !sawJump {
		t.Fatalf("no Lemma 3 jump triggered across 40 random instances")
	}
}
