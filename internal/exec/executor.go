package exec

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"serviceordering/internal/model"
)

// Executor runs optimized plans against one Backend. It is safe for
// concurrent use; circuit breakers, latency windows, and counters are
// shared across requests (a service melting under one request sheds calls
// from all of them), while retry and hedge budgets are strictly per
// request.
type Executor struct {
	backend Backend
	rb      ReplicaBackend // non-nil when backend exposes replicas
	opts    Options

	residual ResidualPlanner

	executions   atomic.Int64
	degraded     atomic.Int64
	calls        atomic.Int64
	attempts     atomic.Int64
	retries      atomic.Int64
	breakerOpens atomic.Int64

	hedgeLaunched   atomic.Int64
	hedgeWon        atomic.Int64
	hedgeCanceled   atomic.Int64
	hedgeSuppressed atomic.Int64
	hedgeSat        atomic.Bool

	failoverAttempted  atomic.Int64
	failoverSucceeded  atomic.Int64
	failoverInfeasible atomic.Int64

	bmu      sync.Mutex
	breakers map[string]*breaker

	lmu sync.Mutex
	lat map[string]*latWindow

	fmu            sync.Mutex
	failoverActive map[string]int
}

// New builds an Executor over backend. Zero Options fields take the
// package defaults.
func New(backend Backend, opts Options) *Executor {
	opts = opts.withDefaults()
	e := &Executor{
		backend:        backend,
		opts:           opts,
		residual:       defaultResidualPlanner,
		breakers:       make(map[string]*breaker),
		lat:            make(map[string]*latWindow),
		failoverActive: make(map[string]int),
	}
	if rb, ok := backend.(ReplicaBackend); ok {
		e.rb = rb
	}
	return e
}

// SetResidualPlanner installs the failover residual-query solver in place
// of the built-in branch-and-bound solve (the serve layer wires a
// plan-cache-backed planner here, so residual plans share the cache and
// the adaptive cost overlay). Call it, with a non-nil fn, before the first
// Execute.
func (e *Executor) SetResidualPlanner(fn ResidualPlanner) { e.residual = fn }

// callFailure is a permanent per-stage failure: the typed reason plus the
// underlying error.
type callFailure struct {
	reason Reason
	err    error
}

func (cf *callFailure) Error() string { return string(cf.reason) + ": " + cf.err.Error() }

// failoverCapture records the first failover-eligible stage failure of a
// run and collects the tuples diverted from the failed stage's input for
// the rescue pipeline. Only the failed stage's goroutine appends to buf;
// the pipeline WaitGroup orders those appends before Execute reads them.
type failoverCapture struct {
	st  *stageRun
	cf  *callFailure
	buf []Tuple
}

func (fo *failoverCapture) degraded() *Degraded {
	return &Degraded{Service: fo.st.name, Position: fo.st.pos, Reason: fo.cf.reason, Err: fo.cf.err.Error()}
}

// runState is the per-pipeline shared state: the retry and hedge budgets,
// the first permanent failure (first-wins — cascading cancellations after
// it are effects, not causes), and the failover capture when this pipeline
// may rescue instead of degrade.
type runState struct {
	budget atomic.Int64
	hedges atomic.Int64

	// failover marks a pipeline that may claim a residual rescue instead
	// of degrading; rescue pipelines themselves run with it off (one
	// failover per request, no recursion).
	failover bool

	mu  sync.Mutex
	deg *Degraded
	fo  *failoverCapture
}

func (r *runState) takeRetry() bool { return r.budget.Add(-1) >= 0 }

func (r *runState) takeHedge() bool { return r.hedges.Add(-1) >= 0 }

func (r *runState) giveHedge() { r.hedges.Add(1) }

func (r *runState) fail(st *stageRun, cf *callFailure) {
	r.mu.Lock()
	if r.deg == nil {
		r.deg = &Degraded{Service: st.name, Position: st.pos, Reason: cf.reason, Err: cf.err.Error()}
	}
	r.mu.Unlock()
}

// claimFailover atomically claims the run's single failover slot. It
// returns nil when failover is off, the failure is a deadline (rescuing
// past an expired deadline is pointless), or another stage already failed
// or claimed.
func (r *runState) claimFailover(st *stageRun, cf *callFailure) *failoverCapture {
	if !r.failover || cf.reason == ReasonDeadline {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deg != nil || r.fo != nil {
		return nil
	}
	r.fo = &failoverCapture{st: st, cf: cf}
	return r.fo
}

func (r *runState) degradedResult() *Degraded {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deg
}

func (r *runState) captured() *failoverCapture {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fo
}

// stageRun is one stage's runtime state; owned by its goroutine.
type stageRun struct {
	name string
	pos  int // position in the ORIGINAL plan (reporting identity)
	br   *breaker

	tuplesIn, tuplesOut int64
	calls, retries      int64
	failures, spikes    int64
	busy                time.Duration

	hedgeLaunched, hedgeWon, hedgeCanceled int64
	hedgeSeq                               uint64 // replica rotation counter
}

// Execute runs plan over q, streaming input through the plan's services.
// It returns an error only for invalid inputs or a canceled caller; every
// backend-side failure mode instead yields a Result, possibly carrying a
// Degraded marker (see the package comment for the escalation order).
func (e *Executor) Execute(ctx context.Context, q *model.Query, plan model.Plan, input []Tuple) (*Result, error) {
	if err := validatePlanInput(q, plan); err != nil {
		return nil, err
	}
	start := time.Now()
	n := len(plan)
	res := &Result{TuplesIn: int64(len(input)), Output: []Tuple{}, Stages: make([]StageReport, n)}
	for pos, s := range plan {
		res.Stages[pos] = StageReport{Service: q.Services[s].Name, Position: pos}
	}
	if len(input) == 0 {
		// Early termination at its earliest: an empty input stream runs no
		// goroutines and calls no backends.
		e.executions.Add(1)
		res.Elapsed = time.Since(start)
		return res, nil
	}

	if e.opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.Deadline)
		defer cancel()
	}

	run := &runState{failover: e.opts.Failover && n > 1}
	run.budget.Store(int64(e.opts.RetryBudget))
	run.hedges.Store(int64(e.opts.HedgeBudget))

	stages := make([]*stageRun, n)
	for pos, s := range plan {
		stages[pos] = &stageRun{name: q.Services[s].Name, pos: pos, br: e.breakerFor(q.Services[s].Name)}
	}

	res.Output = e.runPipeline(ctx, run, stages, input)

	for pos, st := range stages {
		collectStage(&res.Stages[pos], st)
		res.Retries += st.retries
		res.Hedges.Launched += st.hedgeLaunched
		res.Hedges.Won += st.hedgeWon
		res.Hedges.Canceled += st.hedgeCanceled
	}
	if cerr := ctx.Err(); errors.Is(cerr, context.Canceled) {
		// The caller walked away; nobody will read a partial result. (An
		// internal failure cancels only the pipeline context, never ctx, so
		// this is unambiguous.)
		return nil, cerr
	}
	res.Degraded = run.degradedResult()
	if res.Degraded == nil {
		if fo := run.captured(); fo != nil {
			e.rescue(ctx, q, plan, fo, res)
		}
	}
	if res.Degraded == nil && ctx.Err() != nil {
		// Deadline expired between calls (parked on a queue or in a backoff
		// sleep): no single stage observed it, the pipeline did.
		res.Degraded = &Degraded{Service: "", Position: -1, Reason: ReasonDeadline, Err: ctx.Err().Error()}
	}
	res.TuplesOut = int64(len(res.Output))
	res.Elapsed = time.Since(start)
	e.executions.Add(1)
	if res.Degraded != nil {
		e.degraded.Add(1)
	}
	return res, nil
}

// collectStage copies a stageRun's account into its report slot.
func collectStage(r *StageReport, st *stageRun) {
	r.TuplesIn, r.TuplesOut = st.tuplesIn, st.tuplesOut
	r.Calls, r.Retries = st.calls, st.retries
	r.Failures, r.Spikes, r.Hedges = st.failures, st.spikes, st.hedgeLaunched
	r.BusyProcessing = st.busy
}

// runPipeline streams input through stages over bounded block channels and
// returns every tuple that completed all of them. It is the shared engine
// under both the main Execute pipeline and a failover rescue.
func (e *Executor) runPipeline(ctx context.Context, run *runState, stages []*stageRun, input []Tuple) []Tuple {
	execCtx, cancelExec := context.WithCancel(ctx)
	defer cancelExec()

	n := len(stages)
	// chans[i] feeds stage i; chans[n] feeds the sink. Bounded capacity is
	// the credit: a stage outrunning its successor parks on the send.
	chans := make([]chan []Tuple, n+1)
	for i := range chans {
		chans[i] = make(chan []Tuple, e.opts.QueueBlocks)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // source: chunk the input into blocks
		defer wg.Done()
		defer close(chans[0])
		for off := 0; off < len(input); off += e.opts.BlockSize {
			end := off + e.opts.BlockSize
			if end > len(input) {
				end = len(input)
			}
			if !sendBlock(execCtx, chans[0], input[off:end:end]) {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.runStage(execCtx, cancelExec, run, stages[i], chans[i], chans[i+1])
		}(i)
	}

	// The sink is this goroutine: always draining, so the pipeline can
	// never deadlock on a full final queue.
	var out []Tuple
	for blk := range chans[n] {
		out = append(out, blk...)
	}
	wg.Wait()
	return out
}

// runStage consumes input blocks, calls the backend, and forwards
// surviving tuples in full blocks (plus a final partial flush). On a
// permanent call failure it either claims the run's failover slot — then
// diverts the failed block and all remaining input to the rescue buffer
// while the rest of the pipeline finishes the tuples already past it — or
// records the typed degrade, cancels the pipeline (stopping upstream
// production and in-flight work), and drains its input so no upstream
// sender is left parked.
func (e *Executor) runStage(ctx context.Context, cancel context.CancelFunc, run *runState, st *stageRun, in <-chan []Tuple, out chan<- []Tuple) {
	defer close(out)
	var buf []Tuple
	failed := false
	var divert *failoverCapture
	for blk := range in {
		if failed || len(blk) == 0 {
			continue
		}
		if divert != nil {
			divert.buf = append(divert.buf, blk...)
			continue
		}
		survivors, proc, cf := e.call(ctx, run, st, blk)
		if cf != nil {
			if fo := run.claimFailover(st, cf); fo != nil {
				divert = fo
				divert.buf = append(divert.buf, blk...)
				continue
			}
			failed = true
			run.fail(st, cf) // first-wins: cancellation echoes lose to the cause
			cancel()
			continue
		}
		st.tuplesIn += int64(len(blk))
		st.tuplesOut += int64(len(survivors))
		st.calls++
		st.busy += proc
		buf = append(buf, survivors...)
		for len(buf) >= e.opts.BlockSize {
			send := make([]Tuple, e.opts.BlockSize)
			copy(send, buf)
			buf = buf[:copy(buf, buf[e.opts.BlockSize:])]
			if !sendBlock(ctx, out, send) {
				failed = true
				break
			}
		}
	}
	if !failed && len(buf) > 0 {
		sendBlock(ctx, out, buf) // flush the partial final block
	}
}

// sendBlock delivers blk unless the pipeline is canceled first.
func sendBlock(ctx context.Context, out chan<- []Tuple, blk []Tuple) bool {
	select {
	case out <- blk:
		return true
	case <-ctx.Done():
		return false
	}
}

// call performs one guarded backend call: breaker admission, per-call
// timeout, an optional hedged attempt when the call runs past the hedge
// delay, and retries against the request budget with jittered exponential
// backoff. A nil callFailure means success; a non-nil one is permanent
// for this request.
func (e *Executor) call(ctx context.Context, run *runState, st *stageRun, blk []Tuple) ([]Tuple, time.Duration, *callFailure) {
	for attempt := 0; ; attempt++ {
		if err := st.br.allow(time.Now()); err != nil {
			return nil, 0, &callFailure{reason: ReasonBreakerOpen, err: err}
		}
		e.attempts.Add(1)
		delay := e.hedgeDelayFor(st.name)
		cr, wall, err := e.attempt(ctx, run, st, blk, delay)
		if err == nil {
			st.br.success()
			e.calls.Add(1)
			thr := delay
			if thr <= 0 {
				thr = e.opts.CallTimeout / 2
			}
			if wall > thr {
				st.spikes++
			}
			proc := cr.Processing
			if proc <= 0 {
				proc = wall
			}
			return cr.Tuples, proc, nil
		}
		if ctx.Err() != nil {
			// The pipeline's own context ended — the call was aborted, not
			// failed: the breaker is not charged, and a probe slot this call
			// held is released. (The recorded reason only ever surfaces for
			// a deadline; a caller cancellation becomes Execute's error, and
			// an internal cancellation loses first-wins to its cause.)
			st.br.abortProbe()
			return nil, 0, &callFailure{reason: ReasonDeadline, err: ctx.Err()}
		}
		st.failures++
		if st.br.failure(time.Now()) {
			e.breakerOpens.Add(1)
		}
		if !run.takeRetry() {
			return nil, 0, &callFailure{reason: ReasonRetryBudget, err: err}
		}
		st.retries++
		e.retries.Add(1)
		if !e.backoff(ctx, st.name, attempt) {
			st.br.abortProbe()
			return nil, 0, &callFailure{reason: ReasonDeadline, err: ctx.Err()}
		}
	}
}

// armResult is one racing arm's outcome inside a hedged attempt.
type armResult struct {
	cr    CallResult
	err   error
	hedge bool
}

// attempt performs one logical call attempt. With a non-positive hedge
// delay it is a plain guarded call; otherwise the primary races a hedged
// replica attempt launched after delay — first success wins and the loser
// is canceled. The attempt fails only when every launched arm failed;
// the returned wall time is measured from the primary's start to the
// winning response.
func (e *Executor) attempt(ctx context.Context, run *runState, st *stageRun, blk []Tuple, delay time.Duration) (CallResult, time.Duration, error) {
	start := time.Now()
	pctx, pcancel := context.WithTimeout(ctx, e.opts.CallTimeout)
	defer pcancel()
	if delay <= 0 {
		cr, err := e.backend.Call(pctx, st.name, blk)
		wall := time.Since(start)
		if err == nil {
			e.recordLatency(st.name, wall)
		}
		return cr, wall, err
	}

	// Buffered so a losing arm's goroutine never blocks after the attempt
	// returns (no leak with hedges canceled mid-flight).
	results := make(chan armResult, 2)
	go func() {
		cr, err := e.backend.Call(pctx, st.name, blk)
		results <- armResult{cr: cr, err: err}
	}()

	hcancel := context.CancelFunc(func() {})
	defer func() { hcancel() }()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	timerLive := true

	inflight := 1
	var firstErr error
	for {
		var r armResult
		if timerLive {
			select {
			case r = <-results:
			case <-timer.C:
				timerLive = false
				if e.tryLaunchHedge(run, st) {
					hcancel = e.launchHedgeArm(ctx, st, blk, results)
					inflight++
				}
				continue
			}
		} else {
			r = <-results
		}
		inflight--
		if r.err == nil {
			if r.hedge {
				st.hedgeWon++
				e.hedgeWon.Add(1)
			} else if inflight > 0 {
				// The primary won with the hedge still in flight: the
				// deferred cancels abandon it.
				st.hedgeCanceled++
				e.hedgeCanceled.Add(1)
			}
			wall := time.Since(start)
			e.recordLatency(st.name, wall)
			return r.cr, wall, nil
		}
		if firstErr == nil {
			firstErr = r.err
		}
		if inflight == 0 {
			return CallResult{}, time.Since(start), firstErr
		}
	}
}

// launchHedgeArm fires the hedged attempt against the service's next
// replica under its own call timeout and returns the arm's cancel func
// (the caller cancels it when either arm settles the attempt).
func (e *Executor) launchHedgeArm(ctx context.Context, st *stageRun, blk []Tuple, results chan<- armResult) context.CancelFunc {
	hctx, cancel := context.WithTimeout(ctx, e.opts.CallTimeout)
	replica := e.hedgeReplica(st)
	go func() {
		cr, err := e.rb.CallReplica(hctx, st.name, replica, blk)
		results <- armResult{cr: cr, err: err, hedge: true}
	}()
	return cancel
}

// hedgeBurst is the launch allowance before the global rate cap engages —
// a cold executor may hedge immediately instead of dividing zero by zero.
const hedgeBurst = 8

// tryLaunchHedge spends the per-request hedge budget and checks the global
// rate cap; true means the caller launches a hedged attempt.
func (e *Executor) tryLaunchHedge(run *runState, st *stageRun) bool {
	if !run.takeHedge() {
		run.giveHedge()
		e.hedgeSuppressed.Add(1)
		return false
	}
	if rate := e.opts.HedgeRateCap; rate > 0 {
		launched := e.hedgeLaunched.Load()
		if launched >= hedgeBurst && float64(launched+1) > rate*float64(e.attempts.Load()) {
			run.giveHedge()
			e.hedgeSuppressed.Add(1)
			e.hedgeSat.Store(true)
			return false
		}
	}
	e.hedgeLaunched.Add(1)
	e.hedgeSat.Store(false)
	st.hedgeLaunched++
	return true
}

// hedgeReplica rotates through the service's non-primary replicas.
func (e *Executor) hedgeReplica(st *stageRun) int {
	n := e.rb.Replicas(st.name)
	if n < 2 {
		return 0
	}
	st.hedgeSeq++
	return 1 + int(st.hedgeSeq-1)%(n-1)
}

// hedgeDelayFor resolves the service's hedge delay: negative means no
// hedging for this call (disabled, no replica backend, fewer than two
// replicas, or not enough latency samples for the quantile estimate).
func (e *Executor) hedgeDelayFor(name string) time.Duration {
	if e.rb == nil || e.opts.HedgeDelay < 0 || e.opts.HedgeBudget == 0 {
		return -1
	}
	if e.rb.Replicas(name) < 2 {
		return -1
	}
	if e.opts.HedgeDelay > 0 {
		return e.opts.HedgeDelay
	}
	d, ok := e.latQuantile(name, hedgeQuantile)
	if !ok {
		return -1
	}
	// Clamp under the call timeout so a hedge still has room to win, and
	// above a floor so a microsecond-fast service does not hedge every
	// scheduling wobble.
	if hi := e.opts.CallTimeout / 2; d > hi {
		d = hi
	}
	if lo := 100 * time.Microsecond; d < lo {
		d = lo
	}
	return d
}

// latWindowSize and latMinSamples shape the per-service latency window the
// quantile hedge delay is estimated from.
const (
	latWindowSize = 64
	latMinSamples = 8
)

// saltJitter keeps the backoff jitter stream independent from the mock
// backend's filtering hashes and faultinject's decision salts.
const saltJitter uint64 = 0x7fb5d329728ea185

// latWindow is a fixed-size ring of recent successful-call latencies.
type latWindow struct {
	samples [latWindowSize]time.Duration
	n, next int
}

func (w *latWindow) add(d time.Duration) {
	w.samples[w.next] = d
	w.next = (w.next + 1) % latWindowSize
	if w.n < latWindowSize {
		w.n++
	}
}

// recordLatency feeds one successful call's wall latency into the
// service's window.
func (e *Executor) recordLatency(name string, d time.Duration) {
	e.lmu.Lock()
	w, ok := e.lat[name]
	if !ok {
		w = &latWindow{}
		e.lat[name] = w
	}
	w.add(d)
	e.lmu.Unlock()
}

// latQuantile estimates the service's latency quantile from its window;
// false until latMinSamples samples have been observed.
func (e *Executor) latQuantile(name string, q float64) (time.Duration, bool) {
	e.lmu.Lock()
	defer e.lmu.Unlock()
	w, ok := e.lat[name]
	if !ok || w.n < latMinSamples {
		return 0, false
	}
	buf := make([]time.Duration, w.n)
	copy(buf, w.samples[:w.n])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := int(q * float64(len(buf)))
	if idx >= len(buf) {
		idx = len(buf) - 1
	}
	return buf[idx], true
}

// backoff sleeps base<<attempt jittered to [50%, 150%] and capped at
// RetryMax; false when the context ended first. The jitter factor is a
// pure function of (seed, service, attempt) — the same schedule replays
// under a fixed seed regardless of request interleaving.
func (e *Executor) backoff(ctx context.Context, service string, attempt int) bool {
	d := e.opts.RetryBase
	for i := 0; i < attempt && d < e.opts.RetryMax; i++ {
		d <<= 1
	}
	if d > e.opts.RetryMax {
		d = e.opts.RetryMax
	}
	d = time.Duration(float64(d) * backoffJitter(e.opts.JitterSeed, service, attempt))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// backoffJitter maps (seed, service, attempt) to [0.5, 1.5) through the
// same hash family as the mock backend and faultinject streams.
func backoffJitter(seed int64, service string, attempt int) float64 {
	return 0.5 + unitHash(mix3(seed, hashString(service), uint64(attempt)^saltJitter))
}

// breakerFor returns (creating on first use) the service's breaker.
func (e *Executor) breakerFor(name string) *breaker {
	e.bmu.Lock()
	defer e.bmu.Unlock()
	b, ok := e.breakers[name]
	if !ok {
		b = newBreaker(e.opts.BreakerThreshold, e.opts.BreakerCooldown)
		e.breakers[name] = b
	}
	return b
}

// Stats snapshots the executor's counters and per-service breaker states.
func (e *Executor) Stats() Stats {
	s := Stats{
		Executions:      e.executions.Load(),
		DegradedResults: e.degraded.Load(),
		Calls:           e.calls.Load(),
		Retries:         e.retries.Load(),
		BreakerOpens:    e.breakerOpens.Load(),
		Hedges: HedgeStats{
			Launched:   e.hedgeLaunched.Load(),
			Won:        e.hedgeWon.Load(),
			Canceled:   e.hedgeCanceled.Load(),
			Suppressed: e.hedgeSuppressed.Load(),
			Saturated:  e.hedgeSat.Load(),
		},
		Failovers: FailoverStats{
			Attempted:  e.failoverAttempted.Load(),
			Succeeded:  e.failoverSucceeded.Load(),
			Infeasible: e.failoverInfeasible.Load(),
		},
	}
	e.fmu.Lock()
	for name, n := range e.failoverActive {
		if n > 0 {
			s.Failovers.Active = append(s.Failovers.Active, name)
		}
	}
	e.fmu.Unlock()
	sort.Strings(s.Failovers.Active)
	e.bmu.Lock()
	names := make([]string, 0, len(e.breakers))
	for name := range e.breakers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Breakers = append(s.Breakers, e.breakers[name].status(name))
	}
	e.bmu.Unlock()
	return s
}
