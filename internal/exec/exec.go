// Package exec is the streaming executor: it runs an optimized plan as a
// pipeline of real, per-service calls against a pluggable Backend, with
// the fault tolerance a decentralized deployment needs. It is the one
// execution engine: a serving node executes /v1/execute requests on it,
// and RunWallClock runs the paper's pipeline on it against modeled costs
// slept in wall-clock time (experiment F8, dqchoreo, the facade's
// Execute), while internal/sim stays the independent discrete-event
// oracle for Eq. (1). Tuples flow through the plan's services in blocks
// over bounded queues (credit-based backpressure, exactly the sim
// pipeline's discipline), and every call is guarded by a timeout, a
// bounded retry budget, and a per-service circuit breaker.
//
// Failure semantics, in order of escalation:
//
//   - A call that exceeds the service's hedge delay (a fixed Options value
//     or a latency-quantile estimate) launches one hedged attempt against a
//     replica of the same service when the backend exposes replicas
//     (ReplicaBackend); first success wins and the loser is canceled.
//     Hedges spend a per-request budget and a global rate cap, so tail
//     latency is cut without more than ~2x-ing backend load. A hedge fires
//     on slowness only — a fast failure goes straight to the retry ladder.
//   - A failed call is retried with exponential backoff and jitter, paying
//     from a per-request retry budget (never per call, so one flapping
//     service cannot multiply the request's worst case by the plan length).
//     Jitter is a pure function of (seed, service, attempt), so a fixed
//     seed replays the exact same schedule.
//   - Consecutive failures open the service's circuit breaker; while open,
//     calls are shed without touching the backend, and after a cooldown a
//     single half-open probe decides between closing and re-opening.
//   - When a stage fails past the budget (or is shed by an open breaker)
//     and Options.Failover is set, the executor re-solves the residual
//     query instead of giving up: tuples not yet past the failed stage are
//     diverted, the unexecuted suffix is re-optimized with the failed
//     service deferred to the end (precedence-constrained, solved in
//     microseconds), and the diverted tuples are re-run through the new
//     suffix with a fresh failover retry budget. A rescue that completes
//     yields the full, correct answer — not a degraded one.
//   - Only when failover is disabled, infeasible (the failed service must
//     precede an unexecuted one), or itself fails does the request degrade:
//     upstream stages stop, in-flight work drains, and the caller receives
//     every tuple that completed ALL stages plus a typed Degraded marker
//     naming the stage, service, and reason. A degraded result is a subset
//     of the true answer — never a wrong one.
//
// The end-to-end deadline propagates through every stage via
// context.Context; per-call timeouts nest under it. A stage whose input
// ends with zero surviving tuples closes its output immediately, so an
// empty intermediate result terminates the remaining plan suffix without
// invoking its backends.
//
// Execution reports (per-stage tuple counts, busy times, and
// attempt/failure/spike tallies) convert to adapt.Report via
// Result.Report, which is how the serve layer feeds drift detection —
// including reliability drift — from real observations rather than
// synthetic /v1/observe payloads.
package exec

import (
	"context"
	"fmt"
	"sort"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/model"
)

// Tuple is an opaque row identifier flowing through the pipeline. Backends
// decide a tuple's fate from its identity (the deterministic mock hashes
// it); the executor only moves tuples and counts them.
type Tuple uint64

// Tuples builds the canonical input stream 0..n-1.
func Tuples(n int) []Tuple {
	in := make([]Tuple, n)
	for i := range in {
		in[i] = Tuple(i)
	}
	return in
}

// ResidualPlanner re-solves a residual query during plan-aware failover.
// The sub-query holds only the unexecuted services (the failed one
// precedence-constrained to the end); the returned plan must be a valid
// ordering of sub's services. The serve layer installs a planner-backed
// implementation (Executor.SetResidualPlanner) so residual plans hit the
// plan cache and the adaptive overlay; standalone executors default to a
// direct branch-and-bound solve.
type ResidualPlanner func(ctx context.Context, sub *model.Query) (model.Plan, error)

// Options configures an Executor. The zero value selects the defaults
// noted on each field.
type Options struct {
	// BlockSize is the number of tuples per backend call (0 = 64): the
	// paper's block-transfer unit realized as the call granularity.
	BlockSize int

	// QueueBlocks bounds each stage's input queue in blocks (0 = 4). A
	// full queue stalls the upstream sender — credit-based backpressure,
	// the same discipline internal/sim models.
	QueueBlocks int

	// CallTimeout bounds each backend call (0 = 1s). A timed-out call is
	// a failed call: retried, charged to the breaker.
	CallTimeout time.Duration

	// RetryBudget is the number of retries one Execute request may spend
	// across ALL its calls (0 = 8, negative = no retries). Budgeting per
	// request rather than per call keeps the worst case additive.
	RetryBudget int

	// RetryBase and RetryMax shape the backoff: attempt k sleeps
	// base<<k, jittered to [50%, 150%], capped at RetryMax
	// (defaults 2ms and 250ms).
	RetryBase time.Duration
	RetryMax  time.Duration

	// BreakerThreshold is the consecutive-failure count that opens a
	// service's circuit breaker (0 = 5, negative disables breakers).
	// BreakerCooldown is how long an open breaker sheds before admitting
	// a half-open probe (0 = 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Deadline, when positive, bounds each Execute end to end (nested
	// under the caller's context). On expiry the request degrades with
	// ReasonDeadline rather than erroring.
	Deadline time.Duration

	// JitterSeed seeds the backoff jitter stream (0 = 1). Jitter is a
	// pure function of (seed, service, attempt) — like faultinject's
	// decision streams — so chaos runs replay byte for byte.
	JitterSeed int64

	// HedgeDelay is how long a call may run before a hedged attempt is
	// launched against a replica (negative disables hedging; 0 derives
	// the delay per service from its observed 0.95-quantile latency, once
	// at least 8 latency samples are in). Hedging additionally requires
	// the backend to implement ReplicaBackend and report >= 2 replicas
	// for the service.
	HedgeDelay time.Duration

	// HedgeBudget is the number of hedged attempts one Execute request
	// may launch (0 = 2, negative disables).
	HedgeBudget int

	// HedgeRateCap bounds hedges globally to this fraction of all call
	// attempts (0 = 0.25, negative = uncapped), after an initial burst
	// allowance. The cap is what keeps hedging from more than ~2x-ing
	// backend load under a pathological latency regime.
	HedgeRateCap float64

	// Failover enables plan-aware failover: a stage failing past the
	// retry budget (or shed by an open breaker) triggers a residual
	// replan and rescue instead of immediate degradation. Off by
	// default: a rescue re-invokes backends, which callers must opt
	// into.
	Failover bool

	// FailoverRetryBudget is the fresh retry budget a rescue pipeline
	// runs under (0 = 4, negative = no rescue retries).
	FailoverRetryBudget int
}

// Defaults for Options' zero fields.
const (
	DefaultBlockSize           = 64
	DefaultQueueBlocks         = 4
	DefaultCallTimeout         = time.Second
	DefaultRetryBudget         = 8
	DefaultRetryBase           = 2 * time.Millisecond
	DefaultRetryMax            = 250 * time.Millisecond
	DefaultBreakerThreshold    = 5
	DefaultBreakerCooldown     = time.Second
	DefaultHedgeBudget         = 2
	DefaultHedgeRateCap        = 0.25
	DefaultFailoverRetryBudget = 4
)

// hedgeQuantile is the latency quantile the adaptive hedge delay tracks
// when Options.HedgeDelay is 0.
const hedgeQuantile = 0.95

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.QueueBlocks <= 0 {
		o.QueueBlocks = DefaultQueueBlocks
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = DefaultCallTimeout
	}
	switch {
	case o.RetryBudget == 0:
		o.RetryBudget = DefaultRetryBudget
	case o.RetryBudget < 0:
		o.RetryBudget = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = DefaultRetryBase
	}
	if o.RetryMax <= 0 {
		o.RetryMax = DefaultRetryMax
	}
	switch {
	case o.BreakerThreshold == 0:
		o.BreakerThreshold = DefaultBreakerThreshold
	case o.BreakerThreshold < 0:
		o.BreakerThreshold = 0 // disabled
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = 1
	}
	switch {
	case o.HedgeBudget == 0:
		o.HedgeBudget = DefaultHedgeBudget
	case o.HedgeBudget < 0:
		o.HedgeBudget = 0 // disabled
	}
	if o.HedgeRateCap == 0 {
		o.HedgeRateCap = DefaultHedgeRateCap
	}
	switch {
	case o.FailoverRetryBudget == 0:
		o.FailoverRetryBudget = DefaultFailoverRetryBudget
	case o.FailoverRetryBudget < 0:
		o.FailoverRetryBudget = 0
	}
	return o
}

// Reason is the typed cause of a degraded result.
type Reason string

const (
	// ReasonRetryBudget: the stage's call failed and the request's retry
	// budget was already spent.
	ReasonRetryBudget Reason = "retry-budget-exhausted"

	// ReasonBreakerOpen: the service's circuit breaker shed the call.
	ReasonBreakerOpen Reason = "breaker-open"

	// ReasonDeadline: the end-to-end execution deadline expired mid-plan.
	ReasonDeadline Reason = "deadline-exceeded"
)

// Degraded marks a partial result: the named stage failed permanently, so
// the output holds only tuples that completed every stage before the
// failure took effect — a subset of the true answer, never a wrong one.
type Degraded struct {
	// Service is the failed service's name; Position its plan position.
	Service  string `json:"service"`
	Position int    `json:"position"`

	// Reason is the typed cause; Err the underlying error text.
	Reason Reason `json:"reason"`
	Err    string `json:"error,omitempty"`
}

func (d *Degraded) String() string {
	return fmt.Sprintf("degraded at stage %d (%s): %s: %s", d.Position, d.Service, d.Reason, d.Err)
}

// FailoverReport records one plan-aware failover attempt: which stage
// failed, what the residual replan produced, and whether the rescue
// completed. A Rescued report means the result is the full answer despite
// the mid-run failure; a non-rescued one accompanies a Degraded marker.
type FailoverReport struct {
	// Service is the failed service's name; Position its original plan
	// position; Reason the typed failure that triggered the failover.
	Service  string `json:"service"`
	Position int    `json:"position"`
	Reason   Reason `json:"reason"`

	// Infeasible is set when no residual plan exists (the failed service
	// must precede an unexecuted one); the request then degrades exactly
	// as it would without failover.
	Infeasible bool `json:"infeasible,omitempty"`

	// ResidualPlan lists the rescue pipeline's services in execution
	// order (the failed service deferred to the end).
	ResidualPlan []string `json:"residualPlan,omitempty"`

	// Rescued is true when the rescue pipeline completed cleanly: the
	// result carries the full answer, not a degraded subset.
	Rescued bool `json:"rescued"`
}

// HedgeReport tallies one request's hedged attempts.
type HedgeReport struct {
	// Launched counts hedges fired; Won those whose replica answered
	// first; Canceled those abandoned because the primary won.
	Launched int64 `json:"launched"`
	Won      int64 `json:"won"`
	Canceled int64 `json:"canceled"`
}

// StageReport is one stage's execution account.
type StageReport struct {
	// Service is the service's name; Position its plan position.
	Service  string `json:"service"`
	Position int    `json:"position"`

	// TuplesIn and TuplesOut count tuples through successful calls only
	// (a failed block's tuples are neither).
	TuplesIn  int64 `json:"tuplesIn"`
	TuplesOut int64 `json:"tuplesOut"`

	// Calls counts successful backend calls, Retries the retry attempts
	// this stage charged to the request budget.
	Calls   int64 `json:"calls"`
	Retries int64 `json:"retries"`

	// Failures counts failed call attempts (errors and timeouts, not
	// aborts); Spikes counts successful calls whose wall latency
	// exceeded the hedge threshold; Hedges counts hedged attempts this
	// stage launched. These feed the adaptive loop's reliability
	// estimates.
	Failures int64 `json:"failures,omitempty"`
	Spikes   int64 `json:"spikes,omitempty"`
	Hedges   int64 `json:"hedges,omitempty"`

	// BusyProcessing is the total processing time across successful
	// calls: the backend's own measure when it reports one (virtual time
	// for simulated backends), wall time otherwise.
	BusyProcessing time.Duration `json:"busyProcessingNanos"`
}

// Result is one Execute outcome.
type Result struct {
	// TuplesIn is the input count; TuplesOut the tuples that completed
	// every stage; Output their identities, in arrival order (rescued
	// tuples follow the main pipeline's).
	TuplesIn  int64
	TuplesOut int64
	Output    []Tuple

	// Stages holds per-stage accounts in plan order.
	Stages []StageReport

	// Degraded is non-nil on a partial result (see Degraded).
	Degraded *Degraded

	// Failover is non-nil when a mid-run failure triggered plan-aware
	// failover; FailoverStages then holds the rescue pipeline's per-stage
	// accounts (positions refer to the ORIGINAL plan).
	Failover       *FailoverReport
	FailoverStages []StageReport

	// Hedges tallies this request's hedged attempts across all stages,
	// rescue included.
	Hedges HedgeReport

	// Retries is the total retry budget spent (rescue retries included);
	// Elapsed the wall time of the whole execution.
	Retries int64
	Elapsed time.Duration
}

// Report converts the execution into the adaptive loop's observation
// format: per-service tuple counts, busy processing times, and
// attempt/failure/spike tallies for every stage that processed at least
// one tuple or attempted at least one call (a stage that only failed still
// carries a reliability observation). Rescue stages report too. Transfer
// observations are deliberately absent — in-process hand-off time measures
// queueing, not the network transfer parameter the model prices — so
// transfer estimates stay anchored at the client-provided values.
func (r *Result) Report() *adapt.Report {
	rep := &adapt.Report{}
	appendStage := func(st StageReport) {
		attempts := st.Calls + st.Failures
		if st.TuplesIn == 0 && attempts == 0 {
			return
		}
		rep.Services = append(rep.Services, adapt.ServiceObservation{
			Name:           st.Service,
			TuplesIn:       st.TuplesIn,
			TuplesOut:      st.TuplesOut,
			BusyProcessing: st.BusyProcessing.Seconds(),
			Attempts:       attempts,
			Failures:       st.Failures,
			Spikes:         st.Spikes,
		})
	}
	for _, st := range r.Stages {
		appendStage(st)
	}
	for _, st := range r.FailoverStages {
		appendStage(st)
	}
	if len(rep.Services) == 0 {
		return nil // nothing flowed; the registry rejects empty reports
	}
	return rep
}

// BreakerStatus is one service's circuit-breaker snapshot.
type BreakerStatus struct {
	Service string `json:"service"`
	State   string `json:"state"` // closed | open | half-open
	Opens   int64  `json:"opens"` // closed->open transitions so far
}

// HedgeStats aggregates hedge activity across an Executor's lifetime.
type HedgeStats struct {
	// Launched / Won / Canceled mirror HedgeReport, summed over all
	// requests; Suppressed counts hedges the budget or rate cap blocked.
	Launched   int64 `json:"launched"`
	Won        int64 `json:"won"`
	Canceled   int64 `json:"canceled"`
	Suppressed int64 `json:"suppressed"`

	// Saturated is true while the global rate cap is blocking hedges
	// (set on a cap suppression, cleared by the next successful launch)
	// — the /v1/healthz hedge-rate-saturated signal.
	Saturated bool `json:"saturated,omitempty"`
}

// FailoverStats aggregates plan-aware failover activity.
type FailoverStats struct {
	// Attempted counts failovers triggered; Succeeded those whose rescue
	// completed cleanly; Infeasible those with no feasible residual plan.
	Attempted  int64 `json:"attempted"`
	Succeeded  int64 `json:"succeeded"`
	Infeasible int64 `json:"infeasible"`

	// Active lists services with a rescue currently in flight, sorted —
	// the /v1/healthz failover-active:<svc> signal.
	Active []string `json:"active,omitempty"`
}

// Stats snapshots an Executor's counters.
type Stats struct {
	// Executions counts completed Execute calls; DegradedResults the
	// subset that returned a Degraded marker.
	Executions      int64 `json:"executions"`
	DegradedResults int64 `json:"degradedResults"`

	// Calls counts successful backend calls, Retries all retry attempts,
	// BreakerOpens all closed->open transitions across services.
	Calls        int64 `json:"calls"`
	Retries      int64 `json:"retries"`
	BreakerOpens int64 `json:"breakerOpens"`

	// Hedges and Failovers aggregate the hedge and plan-aware-failover
	// ladders.
	Hedges    HedgeStats    `json:"hedges"`
	Failovers FailoverStats `json:"failovers"`

	// Breakers lists per-service breaker states, sorted by service name;
	// services never called are absent.
	Breakers []BreakerStatus `json:"breakers,omitempty"`
}

// OpenBreakers returns the names of services whose breaker is currently
// open, sorted (the health endpoint's degraded-readiness input).
func (s *Stats) OpenBreakers() []string {
	var open []string
	for _, b := range s.Breakers {
		if b.State == "open" {
			open = append(open, b.Service)
		}
	}
	sort.Strings(open)
	return open
}

// validatePlanInput checks the (query, plan) pair an Execute receives.
func validatePlanInput(q *model.Query, p model.Plan) error {
	if err := q.Validate(); err != nil {
		return fmt.Errorf("exec: invalid query: %w", err)
	}
	if err := p.Validate(q); err != nil {
		return fmt.Errorf("exec: invalid plan: %w", err)
	}
	return nil
}
