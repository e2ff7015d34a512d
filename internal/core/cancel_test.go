package core_test

import (
	"testing"
	"time"

	"serviceordering/internal/core"
	"serviceordering/internal/gen"
)

// ablationOpts returns options that disable every pruning rule, forcing a
// full-tree enumeration (~10M nodes at n=10). The cancel tests need a
// search guaranteed to run long enough to cross many poll points.
func ablationOpts() core.Options {
	return core.Options{
		DisableIncumbentPruning: true,
		DisableClosure:          true,
		DisableDominance:        true,
	}
}

// TestCancelAbortsSearch pins the Options.Cancel contract: a closed
// channel unwinds the run at the next poll point (every 1024 expansions)
// and the truncated result reports Optimal == false. This is the
// mechanism behind the serving stack's client-disconnect propagation.
func TestCancelAbortsSearch(t *testing.T) {
	t.Parallel()
	q, err := gen.Default(10, 424).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	close(cancel) // canceled before the first node: maximal truncation
	opts := ablationOpts()
	opts.Cancel = cancel
	res, err := core.OptimizeWithOptions(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Fatal("canceled search claimed an optimality proof")
	}
	// The unpruned tree holds ~9.9M nodes; a canceled run must stop within
	// a few poll intervals of the start, not enumerate it.
	if res.Stats.NodesExpanded > 64*1024 {
		t.Fatalf("canceled search expanded %d nodes: cancellation did not abort promptly",
			res.Stats.NodesExpanded)
	}
}

// TestCancelMidSearchSequential closes the cancel channel while the
// search is running — the mid-search client-disconnect case — and
// requires a prompt, non-optimal return.
func TestCancelMidSearchSequential(t *testing.T) {
	t.Parallel()
	q, err := gen.Default(11, 424).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	opts := ablationOpts()
	opts.Cancel = cancel
	type outcome struct {
		res core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := core.OptimizeWithOptions(q, opts)
		done <- outcome{res, err}
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Optimal {
			t.Fatal("canceled search claimed an optimality proof")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sequential search did not honor cancellation")
	}
}
