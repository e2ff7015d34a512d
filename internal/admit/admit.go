// Package admit implements the serving front door's overload survival:
// a concurrency limiter with a bounded, cost-aware admission queue.
//
// The planner's cost asymmetry drives the design. A warm request (memo or
// plan-cache hit) costs microseconds; a cold optimize costs a
// branch-and-bound search — three to four orders of magnitude more. Under
// overload the two must not share fate: shedding one cold request frees
// as much capacity as shedding a thousand warm ones, so the queue sheds
// cold work first and admits warm work longest. Per-tenant fairness comes
// from a weighted token scheme: under pressure each active tenant's
// in-flight + queued occupancy is capped at its fair share of total
// capacity (with a configurable burst floor), so one tenant's stampede
// cannot starve the rest.
//
// Every shed is typed (Reason) and carries a Retry-After estimate derived
// from the observed per-class service-time EWMA and the current backlog,
// so clients back off proportionally to the real drain time instead of
// guessing.
package admit

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// Class labels the expected cost of a request, decided by the caller
// before admission (the serve layer probes the planner's memo and plan
// cache without side effects).
type Class int

const (
	// Warm requests hit resident state (query memo or plan cache): they
	// cost microseconds and are shed last.
	Warm Class = iota
	// Cold requests need an optimize (or are unclassifiable, which the
	// caller must treat conservatively): they are shed first and may only
	// occupy a bounded fraction of the queue.
	Cold
)

func (c Class) String() string {
	if c == Warm {
		return "warm"
	}
	return "cold"
}

// Reason is the typed cause of a shed, surfaced verbatim in 429 bodies
// and /v1/stats counters.
type Reason string

const (
	// ReasonQueueFull: the queue is at capacity and held no cold waiter
	// to displace.
	ReasonQueueFull Reason = "queue-full"
	// ReasonColdShed: a cold request hit the cold occupancy bound (or was
	// displaced from the queue by an arriving warm request).
	ReasonColdShed Reason = "cold-shed"
	// ReasonTenantOverShare: the tenant exceeded its fair-share token cap
	// while the node was under pressure.
	ReasonTenantOverShare Reason = "tenant-over-share"
	// ReasonWaitTimeout: the request waited MaxWait in the queue without
	// reaching a slot.
	ReasonWaitTimeout Reason = "wait-timeout"
)

// ShedError reports a refused admission. RetryAfter is the controller's
// backlog-drain estimate — never zero, so clients always get a concrete
// backoff.
type ShedError struct {
	Reason     Reason
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admit: shed (%s), retry after %s", e.Reason, e.RetryAfter)
}

// Options configures a Controller. The zero value of any field selects
// its default.
type Options struct {
	// MaxConcurrent is the number of requests served simultaneously
	// (default 2×GOMAXPROCS is a sensible serving value, but this package
	// takes no runtime dependency — the default here is 8).
	MaxConcurrent int

	// MaxQueue bounds the total number of waiters; arrivals beyond it are
	// shed rather than queued (bounded queue = bounded latency). Default
	// 4×MaxConcurrent.
	MaxQueue int

	// ColdQueueFrac is the fraction of MaxQueue that cold requests may
	// occupy, in (0, 1]. Default 0.5: even a pure cold stampede leaves
	// half the queue for warm traffic.
	ColdQueueFrac float64

	// MaxWait bounds the time a request may spend queued before it is
	// shed with ReasonWaitTimeout. Default 250ms.
	MaxWait time.Duration

	// TenantBurst is the occupancy floor every tenant keeps even when its
	// fair share computes lower — small tenants are never starved to
	// zero. Default 2.
	TenantBurst int
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 8
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxConcurrent
	}
	if o.ColdQueueFrac <= 0 || o.ColdQueueFrac > 1 {
		o.ColdQueueFrac = 0.5
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 250 * time.Millisecond
	}
	if o.TenantBurst <= 0 {
		o.TenantBurst = 2
	}
	return o
}

// Stats is a point-in-time snapshot of the controller's counters,
// JSON-shaped for the /v1/stats endpoint.
type Stats struct {
	Admitted       int64 `json:"admitted"`
	AdmittedQueued int64 `json:"admittedQueued"` // admitted after waiting
	Inflight       int   `json:"inflight"`
	Queued         int   `json:"queued"`

	ShedQueueFull         int64   `json:"shedQueueFull"`
	ShedCold              int64   `json:"shedCold"`
	ShedTenant            int64   `json:"shedTenantOverShare"`
	ShedTimeout           int64   `json:"shedWaitTimeout"`
	ColdDisplaced         int64   `json:"coldDisplaced"` // cold waiters evicted by arriving warm
	WarmServiceEWMAMicros float64 `json:"warmServiceEwmaMicros"`
	ColdServiceEWMAMicros float64 `json:"coldServiceEwmaMicros"`
}

// Sheds is the total number of refused admissions.
func (s Stats) Sheds() int64 {
	return s.ShedQueueFull + s.ShedCold + s.ShedTenant + s.ShedTimeout
}

// waiter is one queued request. granted and shed are resolved under the
// controller mutex exactly once; ready is buffered so the resolver never
// blocks.
type waiter struct {
	class   Class
	tenant  string
	ready   chan struct{}
	granted bool
	shedFor Reason // set when displaced by a warm arrival
}

// Controller is the admission gate. All state is guarded by mu; the only
// blocking happens outside the lock, on a waiter's ready channel.
type Controller struct {
	opts    Options
	coldCap int // max cold waiters in queue

	mu       sync.Mutex
	inflight int
	queue    []*waiter      // FIFO within class; warm promoted first
	tenants  map[string]int // inflight + queued occupancy per tenant
	stats    Stats
	ewma     [2]float64 // per-class service time EWMA, seconds
}

// ewmaAlpha weights the service-time average toward recent completions;
// ~1/16 smooths per-request noise while tracking load shifts within a few
// dozen requests.
const ewmaAlpha = 1.0 / 16

// coldStartServicePriorSeconds prices Retry-After before ANY completion
// has been observed (both class EWMAs still zero): 10ms, the order of a
// cold optimize at planning-tier sizes. The exact value matters little —
// with a near-empty queue the [1s, 30s] clamp floor dominates — but it
// must be nonzero so a freshly booted node under an instant backlog
// still scales its estimate with queue depth rather than always
// answering the bare floor.
const coldStartServicePriorSeconds = 0.010

// New builds a Controller; nil Options fields take defaults.
func New(opts Options) *Controller {
	opts = opts.withDefaults()
	coldCap := int(math.Ceil(opts.ColdQueueFrac * float64(opts.MaxQueue)))
	if coldCap < 1 {
		coldCap = 1
	}
	return &Controller{
		opts:    opts,
		coldCap: coldCap,
		tenants: make(map[string]int),
	}
}

// Ticket is an admitted request's slot. Exactly one Release per Ticket.
type Ticket struct {
	c      *Controller
	class  Class
	tenant string
	start  time.Time
}

// Release returns the slot and feeds the observed service time into the
// class's EWMA (which prices future Retry-After estimates). Releasing a
// nil ticket — what an ungated caller holds — is a no-op.
func (t *Ticket) Release() {
	if t == nil {
		return
	}
	c := t.c
	elapsed := time.Since(t.start).Seconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight--
	c.tenantDone(t.tenant)
	if c.ewma[t.class] == 0 {
		c.ewma[t.class] = elapsed
	} else {
		c.ewma[t.class] += ewmaAlpha * (elapsed - c.ewma[t.class])
	}
	c.promote()
}

// Acquire admits the request (possibly after queueing), sheds it with a
// *ShedError, or returns ctx.Err() when the caller's context ends first.
// tenant may be empty (all anonymous traffic shares one bucket).
func (c *Controller) Acquire(ctx context.Context, class Class, tenant string) (*Ticket, error) {
	c.mu.Lock()

	// Fair-share gate, applied only under pressure (a free slot and an
	// empty queue means capacity is not contended and tenants may burst)
	// and only when at least two tenants are active — a lone tenant may
	// use the whole node, and its overload reads as queue-full/cold-shed,
	// the more actionable signal.
	underPressure := c.inflight >= c.opts.MaxConcurrent || len(c.queue) > 0
	if underPressure && len(c.tenants) >= 2 && c.tenants[tenant] >= c.tenantCap() {
		c.stats.ShedTenant++
		retry := c.retryAfterLocked(class)
		c.mu.Unlock()
		return nil, &ShedError{Reason: ReasonTenantOverShare, RetryAfter: retry}
	}

	if c.inflight < c.opts.MaxConcurrent && len(c.queue) == 0 {
		c.inflight++
		c.tenants[tenant]++
		c.stats.Admitted++
		c.mu.Unlock()
		return &Ticket{c: c, class: class, tenant: tenant, start: time.Now()}, nil
	}

	// Queue admission, cost-aware. Cold requests respect the cold
	// occupancy bound; when the queue is full an arriving warm request
	// displaces the youngest cold waiter rather than being refused.
	if class == Cold && c.coldQueued() >= c.coldCap {
		c.stats.ShedCold++
		retry := c.retryAfterLocked(class)
		c.mu.Unlock()
		return nil, &ShedError{Reason: ReasonColdShed, RetryAfter: retry}
	}
	if len(c.queue) >= c.opts.MaxQueue {
		if class == Cold {
			c.stats.ShedCold++
			retry := c.retryAfterLocked(class)
			c.mu.Unlock()
			return nil, &ShedError{Reason: ReasonColdShed, RetryAfter: retry}
		}
		if !c.displaceColdLocked() {
			c.stats.ShedQueueFull++
			retry := c.retryAfterLocked(class)
			c.mu.Unlock()
			return nil, &ShedError{Reason: ReasonQueueFull, RetryAfter: retry}
		}
	}

	w := &waiter{class: class, tenant: tenant, ready: make(chan struct{}, 1)}
	c.queue = append(c.queue, w)
	c.tenants[tenant]++
	retryIfTimeout := c.retryAfterLocked(class)
	c.mu.Unlock()

	timer := time.NewTimer(c.opts.MaxWait)
	defer timer.Stop()
	select {
	case <-w.ready:
		return c.resolveSignaled(w, retryIfTimeout)
	case <-timer.C:
		return c.resolveExpired(w, retryIfTimeout, &ShedError{Reason: ReasonWaitTimeout, RetryAfter: retryIfTimeout})
	case <-ctx.Done():
		return c.resolveExpired(w, retryIfTimeout, ctx.Err())
	}
}

// resolveSignaled handles a waiter whose ready channel fired: either a
// slot was granted or a warm arrival displaced it.
func (c *Controller) resolveSignaled(w *waiter, retry time.Duration) (*Ticket, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.granted {
		c.stats.Admitted++
		c.stats.AdmittedQueued++
		return &Ticket{c: c, class: w.class, tenant: w.tenant, start: time.Now()}, nil
	}
	// Displaced: the displacer already removed us from the queue and
	// decremented our tenant count.
	c.stats.ShedCold++
	return nil, &ShedError{Reason: w.shedFor, RetryAfter: retry}
}

// resolveExpired handles timeout or context expiry racing a grant: if the
// promoter got there first the slot is ours and the expiry is moot.
func (c *Controller) resolveExpired(w *waiter, retry time.Duration, failure error) (*Ticket, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.granted {
		c.stats.Admitted++
		c.stats.AdmittedQueued++
		return &Ticket{c: c, class: w.class, tenant: w.tenant, start: time.Now()}, nil
	}
	if w.shedFor != "" {
		c.stats.ShedCold++
		return nil, &ShedError{Reason: w.shedFor, RetryAfter: retry}
	}
	c.removeLocked(w)
	c.tenantDone(w.tenant)
	if _, ok := failure.(*ShedError); ok {
		c.stats.ShedTimeout++
	}
	return nil, failure
}

// promote fills free slots from the queue, warm waiters first (cost-aware
// ordering: the cheap work that keeps hit rates up drains ahead of
// expensive cold optimizes), FIFO within a class. Caller holds mu.
func (c *Controller) promote() {
	for c.inflight < c.opts.MaxConcurrent && len(c.queue) > 0 {
		idx := -1
		for i, w := range c.queue {
			if w.class == Warm {
				idx = i
				break
			}
		}
		if idx < 0 {
			idx = 0 // no warm waiter: oldest cold
		}
		w := c.queue[idx]
		c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
		w.granted = true
		c.inflight++
		// Tenant occupancy carries over from queued to inflight: no
		// decrement/increment pair needed.
		w.ready <- struct{}{}
	}
}

// displaceColdLocked evicts the youngest cold waiter to make room for an
// arriving warm request, reporting whether one was found. Caller holds mu.
func (c *Controller) displaceColdLocked() bool {
	for i := len(c.queue) - 1; i >= 0; i-- {
		if c.queue[i].class == Cold {
			w := c.queue[i]
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			c.tenantDone(w.tenant)
			w.shedFor = ReasonColdShed
			c.stats.ColdDisplaced++
			w.ready <- struct{}{}
			return true
		}
	}
	return false
}

func (c *Controller) removeLocked(w *waiter) {
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

func (c *Controller) coldQueued() int {
	n := 0
	for _, w := range c.queue {
		if w.class == Cold {
			n++
		}
	}
	return n
}

func (c *Controller) tenantDone(tenant string) {
	if n := c.tenants[tenant] - 1; n > 0 {
		c.tenants[tenant] = n
	} else {
		delete(c.tenants, tenant)
	}
}

// tenantCap is each active tenant's occupancy token budget under
// pressure: an equal split of total capacity across tenants active right
// now, floored at TenantBurst. Caller holds mu.
func (c *Controller) tenantCap() int {
	capacity := c.opts.MaxConcurrent + c.opts.MaxQueue
	active := len(c.tenants)
	if active < 1 {
		active = 1
	}
	share := capacity / active
	if share < c.opts.TenantBurst {
		share = c.opts.TenantBurst
	}
	return share
}

// retryAfterLocked estimates how long until the present backlog drains
// enough to admit a request of the given class: (waiters ahead + the
// request itself) spread over MaxConcurrent servers, priced at the
// class-weighted observed service time. Clamped to [1s, 30s] — whole
// seconds are what Retry-After headers carry, and unbounded estimates
// would tell clients to go away forever on a transient spike. Caller
// holds mu.
func (c *Controller) retryAfterLocked(class Class) time.Duration {
	// Price the backlog by the mix actually queued, falling back to the
	// requesting class's EWMA, then to the cold-start prior before any
	// completions have been observed.
	svc := c.ewma[class]
	if svc == 0 {
		svc = c.ewma[Cold]
	}
	if svc == 0 {
		svc = coldStartServicePriorSeconds
	}
	backlog := float64(len(c.queue)+c.inflight+1) / float64(c.opts.MaxConcurrent)
	d := time.Duration(backlog * svc * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// Stats snapshots the counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Inflight = c.inflight
	s.Queued = len(c.queue)
	s.WarmServiceEWMAMicros = c.ewma[Warm] * 1e6
	s.ColdServiceEWMAMicros = c.ewma[Cold] * 1e6
	return s
}
