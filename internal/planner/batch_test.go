package planner

import (
	"context"
	"sync/atomic"
	"testing"

	"serviceordering/internal/core"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

func TestOptimizeBatchOrderAndCorrectness(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	const n = 24
	qs := make([]*model.Query, n)
	want := make([]float64, n)
	for i := range qs {
		qs[i] = testQuery(t, gen.Default(4+i%4, 7000+int64(i)))
		res, err := core.Optimize(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Cost
	}

	out := p.OptimizeBatch(context.Background(), qs)
	if len(out) != n {
		t.Fatalf("batch returned %d results, want %d", len(out), n)
	}
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("instance %d failed: %v", i, r.Err)
		}
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		if r.Cost != want[i] {
			t.Fatalf("instance %d cost %v, want %v", i, r.Cost, want[i])
		}
		if err := r.Plan.Validate(qs[i]); err != nil {
			t.Fatalf("instance %d plan invalid: %v", i, err)
		}
	}
}

func TestOptimizeBatchDedupsIdenticalInstances(t *testing.T) {
	t.Parallel()
	var searches atomic.Int64
	p := New(Config{OnSearch: func(Signature) { searches.Add(1) }})
	q := testQuery(t, gen.Default(7, 1234))
	qs := make([]*model.Query, 40)
	for i := range qs {
		qs[i] = q
	}
	out := p.OptimizeBatch(context.Background(), qs)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("instance %d failed: %v", i, r.Err)
		}
		if r.Cost != out[0].Cost {
			t.Fatalf("instance %d cost %v, want %v", i, r.Cost, out[0].Cost)
		}
	}
	// Cache plus singleflight must collapse 40 identical instances far
	// below one search each; with any interleaving at least one runs and
	// the cache serves every instance scheduled after the first finishes.
	if got := searches.Load(); got >= int64(len(qs)) {
		t.Fatalf("%d searches for %d identical instances, want deduplication", got, len(qs))
	}
}

func TestOptimizeBatchPerInstanceErrors(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	good := testQuery(t, gen.Default(4, 9))
	bad := good.Clone()
	bad.Transfer[0][1] = -1 // invalid
	out := p.OptimizeBatch(context.Background(), []*model.Query{good, bad, good})
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("valid instances failed: %v / %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil {
		t.Fatal("invalid instance did not report an error")
	}
}

func TestOptimizeBatchEmpty(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	if out := p.OptimizeBatch(context.Background(), nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
}

func TestOptimizeBatchCanceledContext(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qs := make([]*model.Query, 8)
	for i := range qs {
		qs[i] = testQuery(t, gen.Default(5, 300+int64(i)))
	}
	out := p.OptimizeBatch(ctx, qs)
	if len(out) != len(qs) {
		t.Fatalf("canceled batch returned %d results, want %d", len(out), len(qs))
	}
	for i, r := range out {
		if r.Err == nil {
			t.Fatalf("instance %d succeeded under a canceled context", i)
		}
	}
}
