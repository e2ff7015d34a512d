package exec

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"serviceordering/internal/core"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/sim"
)

func mustWallClockQuery(t *testing.T, services []model.Service, transfer [][]float64) *model.Query {
	t.Helper()
	q, err := model.NewQuery(services, transfer)
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}
	return q
}

// passthroughQuery has unit selectivities so tuple counts are exact.
func passthroughQuery(t *testing.T) *model.Query {
	t.Helper()
	return mustWallClockQuery(t,
		[]model.Service{
			{Name: "a", Cost: 1, Selectivity: 1},
			{Name: "b", Cost: 0.5, Selectivity: 1},
			{Name: "c", Cost: 0.25, Selectivity: 1},
		},
		[][]float64{
			{0, 0.5, 1},
			{0.5, 0, 0.25},
			{1, 0.25, 0},
		})
}

// threadFixture is a pipeline whose middle service dominates; threading
// it visibly raises throughput.
func threadFixture(t *testing.T, threads int) *model.Query {
	t.Helper()
	return mustWallClockQuery(t,
		[]model.Service{
			{Name: "light", Cost: 0.1, Selectivity: 1},
			{Name: "heavy", Cost: 2, Selectivity: 1, Threads: threads},
			{Name: "tail", Cost: 0.1, Selectivity: 1},
		},
		[][]float64{
			{0, 0.05, 0.05},
			{0.05, 0, 0.05},
			{0.05, 0.05, 0},
		})
}

// countsConfig runs without sleeping: tuple counts only.
func countsConfig(tuples int) WallClockConfig {
	return WallClockConfig{Tuples: tuples, BlockSize: 8, QueueBlocks: 4}
}

func runWC(t *testing.T, q *model.Query, plan model.Plan, cfg WallClockConfig) *WallClockReport {
	t.Helper()
	rep, err := RunWallClock(context.Background(), q, plan, cfg)
	if err != nil {
		t.Fatalf("RunWallClock(%v): %v", plan, err)
	}
	return rep
}

func TestRunWallClockPassthroughCounts(t *testing.T) {
	t.Parallel()
	rep := runWC(t, passthroughQuery(t), model.Plan{0, 1, 2}, countsConfig(200))
	if rep.TuplesOut != 200 {
		t.Errorf("TuplesOut = %d, want 200", rep.TuplesOut)
	}
	for pos, st := range rep.Stages {
		if st.Position != pos || st.Service != pos || st.TuplesIn != 200 || st.TuplesOut != 200 {
			t.Errorf("stage %d = %+v, want service %d with 200/200", pos, st, pos)
		}
	}
}

// The backend filters with sim's FilterDeterministic rule: the service's
// j-th tuple yields floor((j+1)σ) − floor(jσ) copies, however the tuples
// are split into calls and whichever goroutines issue them.
func TestWallClockBackendFilter(t *testing.T) {
	t.Parallel()
	for _, sigma := range []float64{0, 0.3, 0.5, 1, 1.7, 3} {
		q := mustWallClockQuery(t, []model.Service{{Cost: 0, Selectivity: sigma}}, [][]float64{{0}})
		wq, plan := wallClockQuery(q, model.Plan{0})

		b := newWallClockBackend(wq, plan, 0)
		for j := 0; j < 200; j++ {
			res, err := b.Call(context.Background(), "0", []Tuple{Tuple(j)})
			if err != nil {
				t.Fatalf("Call: %v", err)
			}
			want := int(math.Floor(float64(j+1)*sigma) - math.Floor(float64(j)*sigma))
			if len(res.Tuples) != want {
				t.Fatalf("sigma %v: tuple %d yielded %d copies, want %d", sigma, j, len(res.Tuples), want)
			}
			for _, c := range res.Tuples {
				if c != Tuple(j) {
					t.Fatalf("sigma %v: tuple %d copied as %d", sigma, j, c)
				}
			}
		}

		const workers, calls, block = 4, 50, 7
		b = newWallClockBackend(wq, plan, 0)
		var (
			wg  sync.WaitGroup
			mu  sync.Mutex
			out int
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := 0; c < calls; c++ {
					res, err := b.Call(context.Background(), "0", Tuples(block))
					if err != nil {
						t.Errorf("Call: %v", err)
						return
					}
					mu.Lock()
					out += len(res.Tuples)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if want := int(math.Floor(workers * calls * block * sigma)); out != want {
			t.Errorf("sigma %v: concurrent calls emitted %d tuples, want %d", sigma, out, want)
		}
	}

	b := newWallClockBackend(passthroughQuery(t), model.Plan{0, 1, 2}, 0)
	for _, name := range []string{"a", "-1", "3"} {
		if _, err := b.Call(context.Background(), name, Tuples(1)); err == nil {
			t.Errorf("unknown service %q accepted", name)
		}
	}
}

// A call sleeps (c*k + t_next*out)*unit/m and reports that as Processing;
// cancelling ctx cuts the sleep short.
func TestWallClockBackendSleep(t *testing.T) {
	t.Parallel()
	q := threadFixture(t, 2)
	q.SinkTransfer = []float64{0.4, 0.4, 0.4}
	b := newWallClockBackend(q, model.Plan{0, 1, 2}, time.Millisecond)
	res, err := b.Call(context.Background(), "1", Tuples(4))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	ms := float64(time.Millisecond)
	if want := time.Duration((2*4 + 0.05*4) * ms / 2); res.Processing != want {
		t.Errorf("heavy: Processing = %v, want %v", res.Processing, want)
	}
	if res, _ = b.Call(context.Background(), "2", Tuples(4)); res.Processing != time.Duration((0.1*4+0.4*4)*ms) {
		t.Errorf("last stage: Processing = %v, want its sink transfer charged", res.Processing)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Call(ctx, "1", Tuples(1000)); err != context.Canceled {
		t.Errorf("cancelled call: err = %v, want context.Canceled", err)
	}
}

func TestRunWallClockFilterRealizesSelectivity(t *testing.T) {
	t.Parallel()
	q := mustWallClockQuery(t,
		[]model.Service{{Cost: 0, Selectivity: 0.5}, {Cost: 0, Selectivity: 0.7}},
		[][]float64{{0, 0}, {0, 0}})
	if rep := runWC(t, q, model.Plan{0, 1}, countsConfig(4000)); rep.TuplesOut != 1400 { // floor(floor(4000*0.5)*0.7)
		t.Errorf("TuplesOut = %d, want 1400", rep.TuplesOut)
	}
}

func TestRunWallClockDeterministicFiltering(t *testing.T) {
	t.Parallel()
	q := mustWallClockQuery(t,
		[]model.Service{{Cost: 0, Selectivity: 0.7}, {Cost: 0, Selectivity: 0.4}},
		[][]float64{{0, 0}, {0, 0}})
	for _, overHTTP := range []bool{false, true} {
		cfg := countsConfig(1000)
		cfg.HTTP = overHTTP
		first, again := runWC(t, q, model.Plan{0, 1}, cfg), runWC(t, q, model.Plan{0, 1}, cfg)
		if first.TuplesOut != again.TuplesOut {
			t.Errorf("http=%v: reruns gave %d and %d tuples", overHTTP, first.TuplesOut, again.TuplesOut)
		}
		if first.TuplesOut != 280 { // floor(floor(1000*0.7)*0.4)
			t.Errorf("http=%v: TuplesOut = %d, want 280", overHTTP, first.TuplesOut)
		}
	}
}

// Deliberately not parallel: asserts wall-clock ratios that co-running
// timed tests would distort.
func TestRunWallClockTimedMatchesPrediction(t *testing.T) {
	q := passthroughQuery(t)
	// Coarse unit: timer quantization must be small against one cost
	// unit. Bottleneck: stage b at 0.5 + 0.5 = 1 unit per tuple.
	cfg := WallClockConfig{Tuples: 80, BlockSize: 8, QueueBlocks: 4, UnitDuration: time.Millisecond}
	rep := runWC(t, q, model.Plan{2, 1, 0}, cfg)
	if want := time.Duration(q.Cost(model.Plan{2, 1, 0}) * float64(time.Millisecond)); rep.PredictedPeriod != want {
		t.Fatalf("PredictedPeriod = %v, want %v", rep.PredictedPeriod, want)
	}
	// Real sleeps only ever overshoot; the measured period must be at
	// least about the prediction and within a loose factor of it.
	ratio := float64(rep.MeasuredPeriod) / float64(rep.PredictedPeriod)
	if ratio < 0.8 || ratio > 3 {
		t.Errorf("measured/predicted = %.2f (measured %v, predicted %v)", ratio, rep.MeasuredPeriod, rep.PredictedPeriod)
	}
	for _, st := range rep.Stages {
		if st.Busy <= 0 {
			t.Errorf("stage %d reported no busy time", st.Position)
		}
	}
}

// Deliberately not parallel: compares wall-clock makespans.
func TestRunWallClockPlanOrderingVisible(t *testing.T) {
	// Service heavy is slow: first it costs 8.1 units per tuple, after
	// the filter only 0.8.
	q := mustWallClockQuery(t,
		[]model.Service{
			{Name: "filter", Cost: 0.2, Selectivity: 0.1},
			{Name: "heavy", Cost: 8, Selectivity: 1},
		},
		[][]float64{{0, 0.1}, {0.1, 0}})
	// Blocks of 40 keep the calls few, so timer overshoot (about 1ms per
	// sleep on a loaded box) stays small against the modeled work.
	cfg := WallClockConfig{Tuples: 120, BlockSize: 40, QueueBlocks: 4, UnitDuration: 100 * time.Microsecond}
	good := runWC(t, q, model.Plan{0, 1}, cfg)
	bad := runWC(t, q, model.Plan{1, 0}, cfg)
	// The model predicts 10x; scheduling noise shrinks it, but the gap
	// must stay unmistakable.
	if float64(bad.Makespan) < 2*float64(good.Makespan) {
		t.Errorf("bad plan %v not clearly slower than good plan %v", bad.Makespan, good.Makespan)
	}
}

func TestRunWallClockHTTPMatchesInProc(t *testing.T) {
	t.Parallel()
	for _, q := range []*model.Query{
		mustWallClockQuery(t,
			[]model.Service{{Cost: 0, Selectivity: 0.6}, {Cost: 0, Selectivity: 1.5}, {Cost: 0, Selectivity: 0.9}},
			[][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}),
		threadFixture(t, 3),
	} {
		cfg := countsConfig(600)
		inproc := runWC(t, q, model.Plan{0, 1, 2}, cfg)
		cfg.HTTP = true
		overHTTP := runWC(t, q, model.Plan{0, 1, 2}, cfg)
		if inproc.TuplesOut != overHTTP.TuplesOut {
			t.Errorf("transports disagree: inproc %d, http %d", inproc.TuplesOut, overHTTP.TuplesOut)
		}
		for i := range inproc.Stages {
			in, h := inproc.Stages[i], overHTTP.Stages[i]
			if in.TuplesIn != h.TuplesIn || in.TuplesOut != h.TuplesOut {
				t.Errorf("stage %d: inproc %d/%d, http %d/%d", i, in.TuplesIn, in.TuplesOut, h.TuplesIn, h.TuplesOut)
			}
		}
	}
}

// The source is a pipeline stage of its own in the copy the Executor runs,
// which keeps Eq. (1)'s cost; the report still lists only the plan's
// services.
func TestRunWallClockSourceAndSink(t *testing.T) {
	t.Parallel()
	q := passthroughQuery(t)
	q.SourceTransfer = []float64{0.1, 0.2, 0.3}
	q.SinkTransfer = []float64{0.2, 0.4, 0.6}
	for _, plan := range []model.Plan{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		wq, wplan := wallClockQuery(q, plan)
		if err := wplan.Validate(wq); err != nil {
			t.Fatalf("plan %v: copy's plan invalid: %v", plan, err)
		}
		if got, want := wq.Cost(wplan), q.Cost(plan); got != want {
			t.Errorf("plan %v: copy costs %v, want %v", plan, got, want)
		}
	}

	rep := runWC(t, q, model.Plan{2, 0, 1}, countsConfig(200))
	if rep.TuplesOut != 200 || len(rep.Stages) != 3 {
		t.Fatalf("TuplesOut = %d over %d stages, want 200 over 3", rep.TuplesOut, len(rep.Stages))
	}
	for pos, st := range rep.Stages {
		if st.Position != pos || st.Service != []int{2, 0, 1}[pos] || st.TuplesIn != 200 {
			t.Errorf("stage %d = %+v", pos, st)
		}
	}
}

// A source-bound plan runs at the source term's pace: without its own
// stage the source cost would vanish from the makespan. Deliberately not
// parallel: asserts a wall-clock ratio.
func TestRunWallClockSourceBound(t *testing.T) {
	q := mustWallClockQuery(t,
		[]model.Service{{Name: "a", Cost: 0.1, Selectivity: 1}, {Name: "b", Cost: 0.1, Selectivity: 1}},
		[][]float64{{0, 0.1}, {0.1, 0}})
	q.SourceTransfer = []float64{1, 1}
	cfg := WallClockConfig{Tuples: 80, BlockSize: 8, QueueBlocks: 4, UnitDuration: time.Millisecond}
	rep := runWC(t, q, model.Plan{0, 1}, cfg)
	ratio := float64(rep.MeasuredPeriod) / float64(rep.PredictedPeriod)
	if ratio < 0.8 || ratio > 3 {
		t.Errorf("measured/predicted = %.2f (measured %v, predicted %v)", ratio, rep.MeasuredPeriod, rep.PredictedPeriod)
	}
}

func TestRunWallClockThreadedStage(t *testing.T) {
	t.Parallel()
	q := threadFixture(t, 3)
	for _, overHTTP := range []bool{false, true} {
		cfg := countsConfig(500)
		cfg.HTTP = overHTTP
		rep := runWC(t, q, model.Plan{0, 1, 2}, cfg)
		if rep.TuplesOut != 500 || rep.Stages[1].TuplesIn != 500 || rep.Stages[1].TuplesOut != 500 {
			t.Errorf("http=%v: TuplesOut %d, threaded stage %+v", overHTTP, rep.TuplesOut, rep.Stages[1])
		}
	}
}

func TestRunWallClockThreadedPredictedPeriod(t *testing.T) {
	t.Parallel()
	q := threadFixture(t, 4)
	plan := model.Plan{0, 1, 2}
	// Eq. (1) with the divisor: heavy contributes (2 + 0.05)/4.
	if got, want := q.Cost(plan), (2+0.05)/4; math.Abs(got-want) > 1e-12 {
		t.Fatalf("threaded cost model: got %v, want %v", got, want)
	}
	cfg := countsConfig(64)
	cfg.UnitDuration = time.Microsecond
	rep := runWC(t, q, plan, cfg)
	if want := time.Duration(q.Cost(plan) * float64(time.Microsecond)); rep.PredictedPeriod != want {
		t.Errorf("PredictedPeriod = %v, want %v", rep.PredictedPeriod, want)
	}
}

// Deliberately not parallel: compares wall-clock makespans.
func TestRunWallClockThreadsRaiseThroughput(t *testing.T) {
	run := func(threads int) time.Duration {
		cfg := WallClockConfig{Tuples: 96, BlockSize: 8, QueueBlocks: 4, UnitDuration: 500 * time.Microsecond}
		return runWC(t, threadFixture(t, threads), model.Plan{0, 1, 2}, cfg).Makespan
	}
	single, quad := run(1), run(4)
	// The model predicts 4x on the dominating stage; require a clear win
	// to stay robust against scheduler noise.
	if float64(quad) > 0.6*float64(single) {
		t.Errorf("4 threads gave %v, single %v: no clear speedup", quad, single)
	}
}

// Deliberately not parallel: bounds cancellation latency in wall-clock.
func TestRunWallClockContextCancellation(t *testing.T) {
	for _, overHTTP := range []bool{false, true} {
		cfg := WallClockConfig{Tuples: 100000, BlockSize: 16, QueueBlocks: 4, UnitDuration: 100 * time.Microsecond, HTTP: overHTTP}
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		if _, err := RunWallClock(ctx, passthroughQuery(t), model.Plan{0, 1, 2}, cfg); err == nil {
			t.Fatalf("http=%v: run survived cancellation", overHTTP)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("http=%v: cancellation took %v", overHTTP, elapsed)
		}
	}
}

func TestRunWallClockValidation(t *testing.T) {
	t.Parallel()
	q := passthroughQuery(t)
	ctx := context.Background()
	plan := model.Plan{0, 1, 2}
	if _, err := RunWallClock(ctx, q, model.Plan{0, 1}, countsConfig(10)); err == nil {
		t.Errorf("short plan accepted")
	}
	bad := q.Clone()
	bad.Services[1].Selectivity = -1
	if _, err := RunWallClock(ctx, bad, plan, countsConfig(10)); err == nil {
		t.Errorf("invalid query accepted")
	}
	for name, mutate := range map[string]func(*WallClockConfig){
		"zero tuples":     func(c *WallClockConfig) { c.Tuples = 0 },
		"zero block size": func(c *WallClockConfig) { c.BlockSize = 0 },
		"zero queue":      func(c *WallClockConfig) { c.QueueBlocks = 0 },
		"negative unit":   func(c *WallClockConfig) { c.UnitDuration = -time.Second },
	} {
		cfg := countsConfig(10)
		mutate(&cfg)
		if _, err := RunWallClock(ctx, q, plan, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// The exec–sim–model differential over pinned seeds of four instance
// families: at unit 0 the wall-clock run on the Executor emits exactly the
// per-stage tuple counts of sim.Run under FilterDeterministic, and both
// price the plan at q.Cost(plan). sim models single-threaded stages only,
// so the threaded family is out of scope.
func TestWallClockMatchesSimAndModel(t *testing.T) {
	t.Parallel()
	families := []struct {
		name string
		set  func(*gen.Params)
	}{
		{"plain", func(*gen.Params) {}},
		{"sink-source", func(p *gen.Params) { p.WithSource, p.WithSink = true, true }},
		{"precedence", func(p *gen.Params) { p.PrecedenceEdges = 3 }},
		{"proliferative", func(p *gen.Params) { p.ProliferativeFraction = 0.3 }},
	}
	const tuples = 1000
	compared := 0
	for _, fam := range families {
		for _, seed := range []int64{101, 202, 303, 404, 505} {
			p := gen.Default(6, seed)
			fam.set(&p)
			q, err := p.Generate()
			if err != nil {
				t.Fatalf("%s/%d: Generate: %v", fam.name, seed, err)
			}
			opt, err := core.Optimize(q)
			if err != nil {
				t.Fatalf("%s/%d: Optimize: %v", fam.name, seed, err)
			}
			reversed := make(model.Plan, len(opt.Plan))
			for i, s := range opt.Plan {
				reversed[len(reversed)-1-i] = s
			}
			for _, plan := range []model.Plan{opt.Plan, reversed} {
				if plan.Validate(q) != nil {
					continue // the reversed order breaks a precedence edge
				}
				simCfg := sim.DefaultConfig()
				simCfg.Tuples = tuples
				want, err := sim.Run(q, plan, simCfg)
				if err != nil {
					t.Fatalf("%s/%d %v: sim.Run: %v", fam.name, seed, plan, err)
				}
				got := runWC(t, q, plan, WallClockConfig{Tuples: tuples, BlockSize: 16, QueueBlocks: 4})
				if got.TuplesOut != want.TuplesOut {
					t.Errorf("%s/%d %v: TuplesOut exec %d, sim %d", fam.name, seed, plan, got.TuplesOut, want.TuplesOut)
				}
				for i, st := range got.Stages {
					ws := want.Stages[i]
					if st.Service != ws.Service || st.TuplesIn != ws.TuplesIn || st.TuplesOut != ws.TuplesOut {
						t.Errorf("%s/%d %v stage %d: exec %d/%d, sim %d/%d", fam.name, seed, plan, i, st.TuplesIn, st.TuplesOut, ws.TuplesIn, ws.TuplesOut)
					}
				}
				cost := q.Cost(plan)
				wq, wplan := wallClockQuery(q, plan)
				if want.PredictedBottleneck != cost || wq.Cost(wplan) != cost {
					t.Errorf("%s/%d %v: sim predicts %v, exec's copy %v, model %v", fam.name, seed, plan, want.PredictedBottleneck, wq.Cost(wplan), cost)
				}
				compared++
			}
		}
	}
	if compared < 30 {
		t.Errorf("only %d plans compared", compared)
	}
}
