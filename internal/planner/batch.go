package planner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"serviceordering/internal/model"
)

// This file implements batch optimization: many instances fanned across a
// worker pool, each result written into its input position. Deduplication
// across the batch is free — identical instances resolve to the same
// signature, so the plan cache and the singleflight group collapse their
// searches exactly as they do for concurrent single requests.

// BatchResult pairs one instance's outcome with its position in the input
// slice and, when the instance failed, its error (a failed instance never
// fails the batch).
type BatchResult struct {
	Result

	// Index is the instance's position in the input slice.
	Index int

	// Err is the per-instance failure, if any; Result is then zero.
	Err error
}

// OptimizeBatch optimizes every query on a pool of GOMAXPROCS workers and
// returns the outcomes indexed as the input. It blocks until
// every instance is done. Instances not yet started when ctx is canceled
// report ctx's error without running; running ones see the cancellation
// as a single Optimize does.
func (p *Planner) OptimizeBatch(ctx context.Context, qs []*model.Query) []BatchResult {
	workers := runtime.GOMAXPROCS(0)
	out := make([]BatchResult, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(qs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				// Optimize reports a canceled ctx before doing any work.
				res, err := p.Optimize(ctx, qs[i])
				out[i] = BatchResult{Result: res, Index: i, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}
