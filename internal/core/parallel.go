package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"serviceordering/internal/domtable"
	"serviceordering/internal/model"
)

// This file implements parallel branch-and-bound: workers claim tasks from
// a shared cost-ordered list and explore their subtrees concurrently,
// publishing incumbents through an atomically readable global bound. All
// pruning rules remain sound under concurrency:
//
//   - rho only decreases, so a Lemma 1 prune against a stale (larger)
//     bound is merely conservative;
//   - the Lemma 3 root rule ("no plan starting with service a can beat
//     rho") and the pair rule ("no plan sharing the pair prefix can beat
//     rho") only ever skip tasks that come LATER in the sorted order than
//     the closure that justified them, which is exactly the set the
//     sequential search would skip (taskMarks keeps that order: tasks
//     are claimed in order but finish in any order);
//   - V-jumps deeper than the task root are entirely local to one worker.
//
// Two mechanisms keep workers busy and budgets honest:
//
//   - Work splitting: on instances large enough for subtree skew to
//     matter (n >= splitMinServices), tasks are three-service prefixes
//     rather than whole root pairs, so a root pair whose subtree dominates
//     the search is explored by many workers at once instead of
//     serializing the run behind a single straggler. Each pair's depth-2
//     node is evaluated once during task generation (closure, strong
//     lower bound), mirroring what the sequential search does before
//     expanding children.
//   - A shared node budget: Options.NodeLimit is a single atomic pool
//     workers draw allowance from in budgetChunk blocks, so a parallel
//     run expands at most NodeLimit nodes in total regardless of worker
//     count; no worker aborts while budget remains unspent elsewhere.
//
// The result cost is deterministic (the optimum); the identity of the
// returned plan may differ across runs when multiple optimal plans exist.

// testHookClaim, when non-nil, runs after a worker claims task i and, with
// i = -1, as the worker leaves its claim loop. Tests use it to force
// claim/check interleavings; it is nil in production.
var testHookClaim func(i int64)

// splitMinServices is the instance size at which the parallel search
// decomposes root pairs into triple tasks. Below it, subtrees are small
// enough that pair granularity keeps workers busy.
const splitMinServices = 10

// sharedIncumbent is the cross-worker bound: lock-free reads of rho on
// the search hot path, mutex-serialized updates.
type sharedIncumbent struct {
	bits atomic.Uint64 // Float64bits(rho)

	mu   sync.Mutex
	plan model.Plan
}

func newSharedIncumbent() *sharedIncumbent {
	si := &sharedIncumbent{}
	si.bits.Store(math.Float64bits(math.Inf(1)))
	return si
}

func (si *sharedIncumbent) load() float64 {
	return math.Float64frombits(si.bits.Load())
}

// tryUpdate installs the plan if its cost improves the bound, reporting
// whether it did. The plan is copied under the lock, so callers may pass
// (and afterwards reuse) a scratch buffer.
func (si *sharedIncumbent) tryUpdate(cost float64, plan model.Plan) bool {
	si.mu.Lock()
	defer si.mu.Unlock()
	if cost >= si.load() {
		return false
	}
	si.bits.Store(math.Float64bits(cost))
	si.plan = append(si.plan[:0], plan...)
	return true
}

func (si *sharedIncumbent) snapshot() (model.Plan, float64) {
	si.mu.Lock()
	defer si.mu.Unlock()
	return si.plan, si.load()
}

// taskMarks holds, per service (the Lemma 3 root rule) or per root pair
// (the pair rule), the smallest index of a task whose jump fired the rule,
// or math.MaxInt64 while none has. A jump justifies skipping only the
// tasks after its own, and a later task can fire between an earlier
// task's claim and its check, so the check compares indices rather than
// reading a flag.
type taskMarks []atomic.Int64

func newTaskMarks(n int) taskMarks {
	m := make(taskMarks, n)
	for k := range m {
		m[k].Store(math.MaxInt64)
	}
	return m
}

// mark records that task i fired the rule for slot k.
func (m taskMarks) mark(k int, i int64) {
	for {
		cur := m[k].Load()
		if cur <= i || m[k].CompareAndSwap(cur, i) {
			return
		}
	}
}

// skips reports whether a task before i fired the rule for slot k.
func (m taskMarks) skips(k int, i int64) bool {
	return m[k].Load() < i
}

// parTask is one unit of parallel work: the subtree of root pair
// pairs[pair], either whole (child < 0) or restricted to third service
// child.
type parTask struct {
	pair  int32
	child int32
}

// OptimizeParallel runs the branch-and-bound search with the given number
// of workers (0 = GOMAXPROCS). Workers claim tasks in cost order and share
// the incumbent bound and, when NodeLimit is set, a single node-budget
// pool. Tracer is ignored (recorders are single-threaded — trace with the
// sequential optimizer).
func OptimizeParallel(q *model.Query, opts Options, workers int) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, fmt.Errorf("core: invalid query: %w", err)
	}
	if q.N() > MaxServices {
		return Result{}, fmt.Errorf("core: exact optimization supports at most %d services, got %d", MaxServices, q.N())
	}
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if workers < 0 {
		return Result{}, fmt.Errorf("core: workers = %d, want >= 0", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts.Tracer = nil

	start := time.Now()
	if q.N() == 1 {
		p := model.Plan{0}
		res := Result{Plan: p, Cost: q.Cost(p), Optimal: true}
		res.Stats.Elapsed = time.Since(start)
		return res, nil
	}

	var total Stats
	shared := newSharedIncumbent()
	if opts.InitialIncumbent != nil {
		if err := opts.InitialIncumbent.Validate(q); err != nil {
			return Result{}, fmt.Errorf("core: initial incumbent: %w", err)
		}
		shared.tryUpdate(q.Cost(opts.InitialIncumbent), opts.InitialIncumbent)
		total.IncumbentUpdates++
	}

	var sharedBudget *atomic.Int64
	if opts.NodeLimit > 0 {
		sharedBudget = new(atomic.Int64)
		sharedBudget.Store(opts.NodeLimit)
		opts.NodeLimit = 0 // workers draw from the pool instead
	}
	// The wall-clock deadline is shared verbatim: every worker checks it
	// against the same instant, so TimeLimit bounds the whole run (the
	// sequential search arms it inside run(), which workers bypass).
	var deadline time.Time
	hasDeadline := opts.TimeLimit > 0
	if hasDeadline {
		deadline = start.Add(opts.TimeLimit)
	}

	pr := newPrep(q)
	split := workers > 1 && q.N() >= splitMinServices

	// One dominance table serves the whole run: workers publish their
	// committed (mask, last) bounds through it, so a subtree one worker
	// starts extending prunes the equivalent prefixes of every other
	// worker with no locks on the probe path.
	dom, domBand := newDomTable(q.N(), opts)

	// Tasks index pr.taken, the pairs popped off the heap in cost order.
	// Every pop happens here, before any worker starts, so the workers
	// share the prep read-only.
	if split {
		gen := newSearch(pr, opts)
		gen.shared = shared
		gen.dom, gen.domBand = dom, domBand
		gen.rho = shared.load()
		gen.buildTripleTasks()
		mergeStats(&total, gen.stats)
	} else {
		for p, ok := pr.popPair(); ok; p, ok = pr.popPair() {
			pr.tasks = append(pr.tasks, parTask{pair: int32(len(pr.taken)), child: -1})
			pr.taken = append(pr.taken, p)
		}
	}
	pairs, tasks := pr.taken, pr.tasks

	var (
		nextTask  atomic.Int64
		anyAbort  atomic.Bool
		deadFirst = newTaskMarks(q.N())
		pairDead  = newTaskMarks(len(pairs))
		wg        sync.WaitGroup
		statsMu   sync.Mutex
	)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newSearch(pr, opts)
			s.shared = shared
			s.dom, s.domBand = dom, domBand
			s.sharedBudget = sharedBudget
			s.deadline, s.hasDeadline = deadline, hasDeadline
			s.rho = shared.load()
			for {
				i := nextTask.Add(1) - 1
				if i >= int64(len(tasks)) || s.aborted {
					break
				}
				if testHookClaim != nil {
					testHookClaim(i)
				}
				t := tasks[i]
				p := pairs[t.pair]
				if deadFirst.skips(p.a, i) || (t.child >= 0 && pairDead.skips(int(t.pair), i)) {
					continue
				}
				s.refreshRho()
				// Lemma 1 termination: this and all later tasks start from
				// prefixes at least as expensive as the incumbent.
				if !opts.DisableIncumbentPruning && p.cost >= s.rho {
					break
				}
				if t.child < 0 {
					s.stats.PairsTried++
					if ret := s.runPair(p.a, p.b); ret == 1 {
						deadFirst.mark(p.a, i)
					}
					continue
				}
				ret := s.runTriple(p.a, p.b, int(t.child))
				if ret <= 2 {
					// Lemma 3 jump past the triple root: the remaining
					// (higher-transfer) triples of this pair are pruned,
					// and with the bottleneck at position 0 so is every
					// later pair starting with p.a.
					pairDead.mark(int(t.pair), i)
					if ret == 1 {
						deadFirst.mark(p.a, i)
					}
				}
			}
			if testHookClaim != nil {
				testHookClaim(-1)
			}
			if s.aborted {
				anyAbort.Store(true)
			}
			statsMu.Lock()
			mergeStats(&total, s.stats)
			statsMu.Unlock()
		}()
	}
	wg.Wait()

	total.Elapsed = time.Since(start)
	if dom != nil {
		total.DominanceOccupancy = dom.Occupancy()
	}
	// Every worker has returned, so the table and the prep have no user
	// left.
	domtable.Put(dom)
	pr.release()
	plan, cost := shared.snapshot()
	if plan == nil {
		return Result{Optimal: false, Stats: total}, nil
	}
	return Result{Plan: plan, Cost: cost, Optimal: !anyAbort.Load(), Stats: total}, nil
}

// buildTripleTasks pops root pairs in cost order, appends each live one to
// s.taken, evaluates its depth-2 node and appends to s.tasks one task per
// feasible third service, in the expansion-policy order dfs would
// use. Pairs closed by Lemma 2 at depth 2 contribute their incumbent (and
// Lemma 3 root prune) here and produce no tasks; the strong-lower-bound
// extension prunes whole pairs the same way the sequential search would
// before expanding children. The receiver is a throwaway search whose
// stats the caller merges.
func (s *search) buildTripleTasks() {
	for p, ok := s.popPair(); ok; p, ok = s.popPair() {
		// Lemma 1 over pairs in ascending cost: everything from here on
		// starts at or above the incumbent, so it stays in the heap. (rho
		// can still improve while workers run; the claim loop re-checks.)
		if !s.opts.DisableIncumbentPruning && p.cost >= s.rho {
			break
		}
		if s.deadFirst[p.a] {
			continue
		}
		pi := int32(len(s.taken))
		s.taken = append(s.taken, p)
		s.stats.PairsTried++
		s.prefix = append(s.prefix[:0], p.a, p.b)
		s.placed = 1<<uint(p.a) | 1<<uint(p.b)
		ps := s.pairState(p.a, p.b)
		eps, bpos := s.epsilonPos(ps, 2)
		rem := s.remaining()
		if !s.opts.DisableClosure {
			if _, closed := s.closureBar(eps, ps, rem); closed {
				s.stats.Closures++
				if eps < s.rho {
					s.commitIncumbent(eps, s.completePlan())
				}
				if !s.opts.DisableVPruning && bpos < 1 {
					s.stats.VJumps++
					s.stats.LevelsSkipped++
					s.deadFirst[p.a] = true
				}
				continue
			}
		}
		if s.opts.StrongLowerBound && !s.opts.DisableIncumbentPruning {
			if lb := s.completionLB(ps, rem); lb >= s.rho {
				s.stats.StrongLBPrunes++
				continue
			}
		}
		for _, c32 := range s.order(p.b) {
			c := int(c32)
			if c == p.a || !s.prec.CanPlace(c, s.placed) {
				continue
			}
			s.tasks = append(s.tasks, parTask{pair: pi, child: int32(c)})
		}
	}
}

// mergeStats accumulates worker-local counters into the run total.
func mergeStats(total *Stats, st Stats) {
	total.NodesExpanded += st.NodesExpanded
	total.PairsTried += st.PairsTried
	total.IncumbentPrunes += st.IncumbentPrunes
	total.Closures += st.Closures
	total.VJumps += st.VJumps
	total.LevelsSkipped += st.LevelsSkipped
	total.StrongLBPrunes += st.StrongLBPrunes
	total.DominancePrunes += st.DominancePrunes
	total.IncumbentUpdates += st.IncumbentUpdates
	total.NodeLimitReached = total.NodeLimitReached || st.NodeLimitReached
}
