package planner

import (
	"context"
	"testing"

	"serviceordering/internal/gen"
)

// warmHitAllocBudget is the pinned allocation budget for a warm-hit
// Planner.Optimize: exactly one allocation is inherent (the caller-owned
// plan returned by fromCanonical); the second is headroom for rare pool
// refills after a GC. Everything else on the path — raw serialization,
// memo probe, plan-cache probe, latency recording, the Result itself — is
// allocation-free. Raising this number means the warm path regressed.
const warmHitAllocBudget = 2

// TestOptimizeWarmHitAllocs pins the warm-hit allocation budget on the
// clock-store plan cache.
func TestOptimizeWarmHitAllocs(t *testing.T) {
	t.Run("clock", func(t *testing.T) {
		p := New(Config{})
		q := testQuery(t, gen.Default(10, 424242))
		ctx := context.Background()
		if _, err := p.Optimize(ctx, q); err != nil {
			t.Fatal(err)
		}
		warm, err := p.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Cached {
			t.Fatal("second request not served from cache; the measurement below would time a search")
		}
		allocs := testing.AllocsPerRun(300, func() {
			res, err := p.Optimize(ctx, q)
			if err != nil || !res.Cached {
				t.Fatalf("warm hit failed mid-measurement: err=%v cached=%v", err, res.Cached)
			}
		})
		if allocs > warmHitAllocBudget {
			t.Errorf("warm-hit Optimize allocates %.1f/op, budget %d", allocs, warmHitAllocBudget)
		}
	})
}

// TestOptimizeWarmHitAllocsLargerInstance guards the budget where slices
// are bigger (n = 14): the warm path must not
// pick up size-dependent allocations.
func TestOptimizeWarmHitAllocsLargerInstance(t *testing.T) {
	p := New(Config{})
	q := testQuery(t, gen.Default(14, 77))
	ctx := context.Background()
	if _, err := p.Optimize(ctx, q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(300, func() {
		res, err := p.Optimize(ctx, q)
		if err != nil || !res.Cached {
			t.Fatalf("warm hit failed mid-measurement: err=%v cached=%v", err, res.Cached)
		}
	})
	if allocs > warmHitAllocBudget {
		t.Errorf("warm-hit Optimize (n=14) allocates %.1f/op, budget %d", allocs, warmHitAllocBudget)
	}
}

// TestResponseFragmentPresence: every successful Optimize outcome carries
// the pre-serialized fragment, and hits share the recorded bytes rather
// than rebuilding them.
func TestResponseFragmentPresence(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	q := testQuery(t, gen.Default(7, 31337))
	ctx := context.Background()
	miss, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(miss.ResponseFragment) == 0 {
		t.Fatal("miss result has no response fragment")
	}
	hit, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if string(hit.ResponseFragment) != string(miss.ResponseFragment) {
		t.Fatalf("hit fragment %q differs from miss fragment %q", hit.ResponseFragment, miss.ResponseFragment)
	}
	want := string(appendResultFragment(nil, miss.Cost, miss.Optimal, miss.Signature, miss.Tier))
	if got := string(miss.ResponseFragment); got != want {
		t.Fatalf("fragment %q, want %q", got, want)
	}
}
