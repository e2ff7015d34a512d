// Benchmarks regenerating every table and figure of the evaluation
// (the experiments of exper.All()). Each BenchmarkXX corresponds to one
// experiment id; custom metrics (nodes/op, cost ratios, relative errors) carry the
// figure's y-axis. Run with:
//
//	go test -bench=. -benchmem
//
// The tables themselves are produced by cmd/dqbench, which shares the
// same drivers (internal/exper).
package serviceordering_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"serviceordering/internal/baseline"
	"serviceordering/internal/btsp"
	"serviceordering/internal/calibrate"
	"serviceordering/internal/core"
	"serviceordering/internal/exec"
	"serviceordering/internal/exper"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
	"serviceordering/internal/robust"
	"serviceordering/internal/sim"
)

// benchQuery generates the standard benchmark instance for a size/seed.
func benchQuery(b *testing.B, n int, seed int64) *model.Query {
	b.Helper()
	q, err := gen.Default(n, seed).Generate()
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	return q
}

// BenchmarkT1Optimality measures the exact optimizer on the T1 instance
// family; the companion correctness is asserted by the test suite.
func BenchmarkT1Optimality(b *testing.B) {
	for _, n := range []int{4, 6, 8, 9} {
		q := benchQuery(b, n, 20100725+int64(n))
		b.Run(fmt.Sprintf("bnb/N=%d", n), func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				res, err := core.Optimize(q)
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.Stats.NodesExpanded
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}

// BenchmarkF1TimeVsN is the optimization-time figure: branch-and-bound vs
// exhaustive enumeration at growing N.
func BenchmarkF1TimeVsN(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10, 12} {
		q := benchQuery(b, n, 42+int64(n))
		b.Run(fmt.Sprintf("bnb/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Optimize(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		if n <= 9 {
			b.Run(fmt.Sprintf("exhaustive/N=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := baseline.Exhaustive(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkF2NodesVsN reports the explored fraction of the n! orderings.
func BenchmarkF2NodesVsN(b *testing.B) {
	for _, n := range []int{6, 8, 10, 12, 13} {
		q := benchQuery(b, n, 177+int64(n))
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				res, err := core.Optimize(q)
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.Stats.NodesExpanded
			}
			fact := 1.0
			for i := 2; i <= n; i++ {
				fact *= float64(i)
			}
			b.ReportMetric(float64(nodes), "nodes/op")
			b.ReportMetric(float64(nodes)/fact, "fraction-of-n!")
		})
	}
}

// BenchmarkF3Heterogeneity measures each ordering algorithm across
// transfer heterogeneity; the cost ratio to the optimum is the figure's
// y-axis.
func BenchmarkF3Heterogeneity(b *testing.B) {
	algos := []struct {
		name string
		run  baseline.Algorithm
	}{
		{"srivastava", baseline.SrivastavaUniform},
		{"greedy-eps", baseline.GreedyMinEpsilon},
		{"local-search", func(q *model.Query) (baseline.Result, error) { return baseline.LocalSearch(q, nil) }},
	}
	for _, ratio := range []float64{1, 8, 64} {
		p := gen.Default(9, int64(1000+ratio))
		p.Heterogeneity = ratio
		q, err := p.Generate()
		if err != nil {
			b.Fatal(err)
		}
		opt, err := core.Optimize(q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("bnb/ratio=%g", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Optimize(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(1.0, "cost-ratio")
		})
		for _, a := range algos {
			b.Run(fmt.Sprintf("%s/ratio=%g", a.name, ratio), func(b *testing.B) {
				var res baseline.Result
				for i := 0; i < b.N; i++ {
					var aerr error
					res, aerr = a.run(q)
					if aerr != nil {
						b.Fatal(aerr)
					}
				}
				b.ReportMetric(res.Cost/opt.Cost, "cost-ratio")
			})
		}
	}
}

// BenchmarkF4ModelValidation runs the discrete-event simulator and
// reports the relative error of Eq.(1)'s prediction.
func BenchmarkF4ModelValidation(b *testing.B) {
	q := benchQuery(b, 8, 977)
	opt, err := core.Optimize(q)
	if err != nil {
		b.Fatal(err)
	}
	for _, tuples := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("tuples=%d", tuples), func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.Tuples = tuples
			var rep *sim.Report
			for i := 0; i < b.N; i++ {
				var serr error
				rep, serr = sim.Run(q, opt.Plan, cfg)
				if serr != nil {
					b.Fatal(serr)
				}
			}
			b.ReportMetric(math.Abs(rep.MeasuredPeriod/rep.PredictedBottleneck-1), "rel-err")
			b.ReportMetric(float64(tuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkF5Selectivity sweeps the selectivity distribution and reports
// optimizer work.
func BenchmarkF5Selectivity(b *testing.B) {
	sweeps := []struct {
		name           string
		selMin, selMax float64
		prolif         float64
	}{
		{"wide", 0.1, 1.0, 0},
		{"narrow-high", 0.9, 1.0, 0},
		{"proliferative", 0.1, 1.0, 0.5},
	}
	for _, sw := range sweeps {
		p := gen.Default(9, 53)
		p.SelMin, p.SelMax = sw.selMin, sw.selMax
		p.ProliferativeFraction = sw.prolif
		p.ProliferativeMax = 2
		q, err := p.Generate()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sw.name, func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				res, oerr := core.Optimize(q)
				if oerr != nil {
					b.Fatal(oerr)
				}
				nodes = res.Stats.NodesExpanded
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}

// BenchmarkT2BTSP compares the dedicated exact bottleneck-TSP solver with
// the branch-and-bound core on the reduced query.
func BenchmarkT2BTSP(b *testing.B) {
	for _, n := range []int{8, 10, 12} {
		rng := rand.New(rand.NewSource(int64(n)))
		weights := make([][]float64, n)
		for i := range weights {
			weights[i] = make([]float64, n)
			for j := range weights[i] {
				if i != j {
					weights[i][j] = math.Round(rng.Float64()*1000) / 100
				}
			}
		}
		in, err := btsp.New(weights)
		if err != nil {
			b.Fatal(err)
		}
		q := in.ToQuery()
		b.Run(fmt.Sprintf("threshold-dp/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := btsp.SolveExact(in); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bnb-reduction/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Optimize(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("nearest-neighbor/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				btsp.SolveNearestNeighbor(in)
			}
		})
	}
}

// BenchmarkF6Heuristics measures the heuristics at sizes beyond exact
// reach.
func BenchmarkF6Heuristics(b *testing.B) {
	for _, n := range []int{20, 40} {
		q := benchQuery(b, n, 71+int64(n))
		b.Run(fmt.Sprintf("greedy-eps/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.GreedyMinEpsilon(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("local-search/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.LocalSearch(q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("anneal/N=%d", n), func(b *testing.B) {
			cfg := baseline.DefaultAnnealConfig()
			cfg.SweepsPerTemp = 2
			for i := 0; i < b.N; i++ {
				if _, err := baseline.Anneal(q, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF7Ablation toggles each pruning rule on the same instance.
func BenchmarkF7Ablation(b *testing.B) {
	q := benchQuery(b, 10, 313)
	configs := []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{}},
		{"no-vpruning", core.Options{DisableVPruning: true}},
		{"no-closure", core.Options{DisableClosure: true}},
		{"loose-bounds", core.Options{LooseBounds: true}},
		{"strong-lb", core.Options{StrongLowerBound: true}},
		{"no-incumbent", core.Options{DisableIncumbentPruning: true}},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				res, err := core.OptimizeWithOptions(q, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.Stats.NodesExpanded
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}

// BenchmarkF8Choreography executes plans on the production executor with
// modeled costs slept (exec.RunWallClock); the figure contrasts optimal vs
// worst wall-clock makespan.
func BenchmarkF8Choreography(b *testing.B) {
	q := benchQuery(b, 5, 808)
	opt, err := core.Optimize(q)
	if err != nil {
		b.Fatal(err)
	}
	bad := make(model.Plan, len(opt.Plan))
	for i, s := range opt.Plan {
		bad[len(opt.Plan)-1-i] = s
	}
	cfg := exec.WallClockConfig{Tuples: 64, BlockSize: 8, QueueBlocks: exec.DefaultQueueBlocks, UnitDuration: 20 * time.Microsecond}

	for _, entry := range []struct {
		name string
		plan model.Plan
	}{
		{"optimal", opt.Plan},
		{"reversed", bad},
	} {
		b.Run(entry.name, func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunWallClock(ctx, q, entry.plan, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(q.Cost(entry.plan), "modeled-cost")
		})
	}
}

// BenchmarkF10Robustness measures the stability analysis (extension
// figure F10); one op re-optimizes `samples` perturbed instances.
func BenchmarkF10Robustness(b *testing.B) {
	q := benchQuery(b, 8, 1700)
	opt, err := core.Optimize(q)
	if err != nil {
		b.Fatal(err)
	}
	cfg := robust.Config{Deltas: []float64{0.1}, Samples: 10, Seed: 1}
	var frac float64
	for i := 0; i < b.N; i++ {
		points, rerr := robust.Analyze(q, opt.Plan, cfg)
		if rerr != nil {
			b.Fatal(rerr)
		}
		frac = points[0].StillOptimal
	}
	b.ReportMetric(frac, "still-optimal-frac")
}

// BenchmarkCalibration measures the profile-and-fit loop over covering
// plans.
func BenchmarkCalibration(b *testing.B) {
	q := benchQuery(b, 6, 33)
	cfg := sim.DefaultConfig()
	cfg.Tuples = 2000
	for i := 0; i < b.N; i++ {
		if _, err := calibrate.CalibrateFromSim(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperSuiteQuick times the full quick evaluation suite; it is
// the one-stop regeneration of every table.
func BenchmarkExperSuiteQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range exper.All() {
			if _, err := e.Run(exper.Config{Quick: true, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSearchHotPath measures the exact-search engine on the pinned
// hard instances of the BENCH_search.json suite (see cmd/dqbench -json),
// so benchstat can track the dfs node loop across commits. nodes/op makes
// the work explicit: ns/op divided by nodes/op is the per-node cost of the
// hot path.
func BenchmarkSearchHotPath(b *testing.B) {
	instances := []struct {
		family string
		n      int
	}{
		{"plain", 12},
		{"precedence", 13},
		{"threaded", 12},
	}
	for _, in := range instances {
		q, _, err := exper.SearchBenchInstance(in.family, in.n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("cold/%s/n=%d", in.family, in.n), func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				res, err := core.Optimize(q)
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.Stats.NodesExpanded
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}

// plannerBenchQuery generates the n=12 warm-cache benchmark instance: a
// near-uniform transfer matrix with high selectivities, where the closure
// and V-pruning lemmas discriminate poorly and the search works hardest —
// maximizing the spread a plan cache must recover.
func plannerBenchQuery(b *testing.B) *model.Query {
	b.Helper()
	p := gen.Default(12, 7)
	p.Heterogeneity = 1.05
	p.SelMin, p.SelMax = 0.7, 1.0
	q, err := p.Generate()
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	return q
}

// BenchmarkPlannerColdVsWarm measures one n=12 optimization through the
// planner with the cache defeated (cold: every request searches) and with
// the cache primed (warm: every request is a signature computation plus an
// LRU lookup). The warm/cold ratio is the amortization the service layer
// buys on repeated traffic.
func BenchmarkPlannerColdVsWarm(b *testing.B) {
	q := plannerBenchQuery(b)
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		p := planner.New(planner.Config{CacheCapacity: -1})
		for i := 0; i < b.N; i++ {
			if _, err := p.Optimize(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		p := planner.New(planner.Config{})
		if _, err := p.Optimize(ctx, q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := p.Optimize(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Cached {
				b.Fatal("warm request missed the cache")
			}
		}
	})
}

// BenchmarkPlannerBatch compares a 64-instance workload optimized by a
// sequential core.Optimize loop against planner.OptimizeBatch on its
// GOMAXPROCS worker pool (caching disabled throughout, so the comparison
// isolates the fan-out). Wall-clock gains scale with available
// cores; on a single-CPU runner the pool ties the loop.
func BenchmarkPlannerBatch(b *testing.B) {
	const instances = 64
	qs := make([]*model.Query, instances)
	for i := range qs {
		qs[i] = benchQuery(b, 9, 60000+int64(i))
	}
	ctx := context.Background()

	b.Run("sequential-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := core.Optimize(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("batch", func(b *testing.B) {
		p := planner.New(planner.Config{CacheCapacity: -1})
		for i := 0; i < b.N; i++ {
			out := p.OptimizeBatch(ctx, qs)
			for _, r := range out {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}
