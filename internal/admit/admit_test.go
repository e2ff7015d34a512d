package admit

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func shedReason(t *testing.T, err error) Reason {
	t.Helper()
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("want *ShedError, got %v", err)
	}
	if se.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %v below the 1s floor", se.RetryAfter)
	}
	return se.Reason
}

// TestAdmitUncontended: below capacity everything is admitted
// immediately, regardless of class or tenant.
func TestAdmitUncontended(t *testing.T) {
	c := New(Options{MaxConcurrent: 4})
	ctx := context.Background()
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		class := Warm
		if i%2 == 1 {
			class = Cold
		}
		tk, err := c.Acquire(ctx, class, "t")
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	s := c.Stats()
	if s.Admitted != 4 || s.Inflight != 4 || s.Sheds() != 0 {
		t.Fatalf("stats = %+v, want 4 admitted, 4 inflight, 0 sheds", s)
	}
	for _, tk := range tickets {
		tk.Release()
	}
	if s := c.Stats(); s.Inflight != 0 {
		t.Fatalf("inflight %d after releases, want 0", s.Inflight)
	}
	var ungated *Ticket
	ungated.Release() // an ungated caller's nil ticket: no-op, no panic
}

// TestQueueThenPromote: with slots full, an arrival queues and is
// admitted when a slot frees.
func TestQueueThenPromote(t *testing.T) {
	c := New(Options{MaxConcurrent: 1, MaxQueue: 4, MaxWait: 5 * time.Second})
	ctx := context.Background()
	first, err := c.Acquire(ctx, Warm, "")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		tk, err := c.Acquire(ctx, Warm, "")
		if tk != nil {
			tk.Release()
		}
		done <- err
	}()
	// Wait until the second request is queued, then free the slot.
	for i := 0; c.Stats().Queued == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	first.Release()
	if err := <-done; err != nil {
		t.Fatalf("queued request not admitted: %v", err)
	}
	if s := c.Stats(); s.AdmittedQueued != 1 {
		t.Fatalf("AdmittedQueued = %d, want 1", s.AdmittedQueued)
	}
}

// TestColdShedFirst: cold waiters are capped at ColdQueueFrac of the
// queue; excess cold arrivals shed with cold-shed while warm arrivals
// still queue.
func TestColdShedFirst(t *testing.T) {
	c := New(Options{MaxConcurrent: 1, MaxQueue: 4, ColdQueueFrac: 0.5, MaxWait: 5 * time.Second})
	ctx := context.Background()
	holder, err := c.Acquire(ctx, Warm, "")
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Release()

	// Fill the cold allowance (ceil(0.5*4) = 2 cold waiters).
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, _ := c.Acquire(ctx, Cold, "")
			if tk != nil {
				tk.Release()
			}
		}()
	}
	waitQueued(t, c, 2)

	if _, err := c.Acquire(ctx, Cold, ""); shedReason(t, err) != ReasonColdShed {
		t.Fatalf("third cold should shed cold-shed, got %v", err)
	}
	// Warm still queues fine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk, err := c.Acquire(ctx, Warm, "")
		if err != nil {
			t.Errorf("warm acquire: %v", err)
		}
		if tk != nil {
			tk.Release()
		}
	}()
	waitQueued(t, c, 3)
	holder.Release()
	wg.Wait()
}

// TestWarmDisplacesCold: when the queue is full, an arriving warm request
// evicts the youngest cold waiter instead of being refused; the displaced
// cold request gets a cold-shed error.
func TestWarmDisplacesCold(t *testing.T) {
	c := New(Options{MaxConcurrent: 1, MaxQueue: 2, ColdQueueFrac: 1, MaxWait: 5 * time.Second})
	ctx := context.Background()
	holder, err := c.Acquire(ctx, Warm, "")
	if err != nil {
		t.Fatal(err)
	}

	coldErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			tk, err := c.Acquire(ctx, Cold, "")
			if tk != nil {
				tk.Release()
			}
			coldErrs <- err
		}()
	}
	waitQueued(t, c, 2)

	// Queue full of cold; a warm arrival displaces one.
	warmDone := make(chan error, 1)
	go func() {
		tk, err := c.Acquire(ctx, Warm, "")
		if tk != nil {
			tk.Release()
		}
		warmDone <- err
	}()
	// One cold waiter must be shed promptly, before any slot frees.
	select {
	case err := <-coldErrs:
		if shedReason(t, err) != ReasonColdShed {
			t.Fatalf("displaced cold got %v, want cold-shed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no cold waiter displaced")
	}
	holder.Release()
	if err := <-warmDone; err != nil {
		t.Fatalf("warm arrival not admitted: %v", err)
	}
	if err := <-coldErrs; err != nil {
		t.Fatalf("remaining cold waiter: %v", err)
	}
	if s := c.Stats(); s.ColdDisplaced != 1 {
		t.Fatalf("ColdDisplaced = %d, want 1", s.ColdDisplaced)
	}
}

// TestQueueFullWarm: a full queue with no cold waiters sheds warm
// arrivals with queue-full.
func TestQueueFullWarm(t *testing.T) {
	c := New(Options{MaxConcurrent: 1, MaxQueue: 1, MaxWait: 5 * time.Second})
	ctx := context.Background()
	holder, _ := c.Acquire(ctx, Warm, "")
	defer holder.Release()
	go func() {
		tk, _ := c.Acquire(ctx, Warm, "")
		if tk != nil {
			tk.Release()
		}
	}()
	waitQueued(t, c, 1)
	if _, err := c.Acquire(ctx, Warm, ""); shedReason(t, err) != ReasonQueueFull {
		t.Fatalf("want queue-full, got %v", err)
	}
}

// TestWaitTimeout: a queued request that never reaches a slot sheds with
// wait-timeout after MaxWait.
func TestWaitTimeout(t *testing.T) {
	c := New(Options{MaxConcurrent: 1, MaxQueue: 4, MaxWait: 20 * time.Millisecond})
	ctx := context.Background()
	holder, _ := c.Acquire(ctx, Warm, "")
	defer holder.Release()
	_, err := c.Acquire(ctx, Warm, "")
	if shedReason(t, err) != ReasonWaitTimeout {
		t.Fatalf("want wait-timeout, got %v", err)
	}
	if s := c.Stats(); s.Queued != 0 {
		t.Fatalf("timed-out waiter still queued: %+v", s)
	}
}

// TestContextCancelWhileQueued: the caller's context ending returns
// ctx.Err() (not a shed) and frees the queue slot.
func TestContextCancelWhileQueued(t *testing.T) {
	c := New(Options{MaxConcurrent: 1, MaxQueue: 4, MaxWait: 5 * time.Second})
	holder, _ := c.Acquire(context.Background(), Warm, "")
	defer holder.Release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, Warm, "")
		done <- err
	}()
	waitQueued(t, c, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if s := c.Stats(); s.Queued != 0 {
		t.Fatalf("canceled waiter still queued: %+v", s)
	}
}

// TestTenantFairShare: under pressure a tenant holding its full share is
// shed with tenant-over-share while other tenants still get in.
func TestTenantFairShare(t *testing.T) {
	// Capacity 2+2=4, two active tenants -> share 2 each (TenantBurst 1).
	c := New(Options{MaxConcurrent: 2, MaxQueue: 2, TenantBurst: 1, MaxWait: 5 * time.Second})
	ctx := context.Background()
	a1, err := c.Acquire(ctx, Warm, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Release()
	b1, err := c.Acquire(ctx, Warm, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Release()
	// Slots full; tenant a queues one more, reaching its share of 2.
	go func() {
		tk, _ := c.Acquire(ctx, Warm, "a")
		if tk != nil {
			tk.Release()
		}
	}()
	waitQueued(t, c, 1)
	if _, err := c.Acquire(ctx, Warm, "a"); shedReason(t, err) != ReasonTenantOverShare {
		t.Fatalf("tenant a over share: want tenant-over-share, got %v", err)
	}
	// Tenant b is under its share: it queues instead of shedding.
	done := make(chan error, 1)
	go func() {
		tk, err := c.Acquire(ctx, Warm, "b")
		if tk != nil {
			tk.Release()
		}
		done <- err
	}()
	waitQueued(t, c, 2)
	b1.Release()
	a1.Release()
	if err := <-done; err != nil {
		t.Fatalf("tenant b should be admitted: %v", err)
	}
}

// TestConcurrentStress hammers the controller from many goroutines with
// mixed classes and tenants under -race, then checks conservation: every
// acquire resolved exactly once, and the controller drains to zero.
func TestConcurrentStress(t *testing.T) {
	c := New(Options{MaxConcurrent: 4, MaxQueue: 8, MaxWait: 10 * time.Millisecond})
	var admitted, shed, canceled atomic.Int64
	var wg sync.WaitGroup
	tenants := []string{"a", "b", "c", ""}
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				class := Warm
				if (g+i)%3 == 0 {
					class = Cold
				}
				ctx := context.Background()
				if i%17 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Millisecond)
					defer cancel()
				}
				tk, err := c.Acquire(ctx, class, tenants[g%len(tenants)])
				switch {
				case err == nil:
					admitted.Add(1)
					time.Sleep(time.Duration(i%7) * 10 * time.Microsecond)
					tk.Release()
				case errors.As(err, new(*ShedError)):
					shed.Add(1)
				default:
					canceled.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Inflight != 0 || s.Queued != 0 {
		t.Fatalf("controller did not drain: %+v", s)
	}
	if got := admitted.Load(); got != s.Admitted {
		t.Fatalf("admitted %d, stats say %d", got, s.Admitted)
	}
	if got := shed.Load(); got != s.Sheds() {
		t.Fatalf("shed %d, stats say %d", got, s.Sheds())
	}
	if total := admitted.Load() + shed.Load() + canceled.Load(); total != 16*200 {
		t.Fatalf("acquire outcomes %d, want %d", total, 16*200)
	}
}

// TestRetryAfterTracksServiceTime: after slow completions the estimate
// scales with the observed EWMA and backlog.
func TestRetryAfterTracksServiceTime(t *testing.T) {
	c := New(Options{MaxConcurrent: 1, MaxQueue: 2, MaxWait: time.Millisecond})
	// Seed the cold EWMA at ~2s without sleeping: inject via Release path
	// is time-based, so set directly.
	c.mu.Lock()
	c.ewma[Cold] = 2.0
	c.inflight = 1 // pretend a request is being served
	c.mu.Unlock()
	c.mu.Lock()
	d := c.retryAfterLocked(Cold)
	c.mu.Unlock()
	// backlog = (0 queued + 1 inflight + 1 self) / 1 slot = 2; 2 * 2s = 4s.
	if d < 3*time.Second || d > 5*time.Second {
		t.Fatalf("RetryAfter %v, want ~4s", d)
	}
	c.mu.Lock()
	c.inflight = 0
	c.mu.Unlock()
}

// TestRetryAfterColdStartPrior pins the pre-observation service-time
// prior: on a controller that has completed nothing (both class EWMAs
// zero), Retry-After must be priced from coldStartServicePriorSeconds —
// clamp-floored near idle, but scaling with a deep instant backlog.
func TestRetryAfterColdStartPrior(t *testing.T) {
	if coldStartServicePriorSeconds != 0.010 {
		t.Fatalf("cold-start prior = %v, pinned at 0.010s; a deliberate change must update this test",
			coldStartServicePriorSeconds)
	}
	c := New(Options{MaxConcurrent: 1, MaxQueue: 500, MaxWait: time.Millisecond})

	// Near idle: backlog 1 slot, 1 * 10ms = 10ms, clamped to the 1s floor.
	c.mu.Lock()
	d := c.retryAfterLocked(Warm)
	c.mu.Unlock()
	if d != time.Second {
		t.Fatalf("idle cold-start RetryAfter = %v, want the 1s clamp floor", d)
	}

	// A deep backlog on the same fresh node must escape the floor and
	// scale with the prior: (199 queued + 1 inflight + 1 self) / 1 slot
	// * 10ms ≈ 2.01s.
	c.mu.Lock()
	c.inflight = 1
	for i := 0; i < 199; i++ {
		c.queue = append(c.queue, &waiter{class: Warm, ready: make(chan struct{}, 1)})
	}
	d = c.retryAfterLocked(Warm)
	c.queue = nil
	c.inflight = 0
	c.mu.Unlock()
	if d < 1900*time.Millisecond || d > 2200*time.Millisecond {
		t.Fatalf("backlogged cold-start RetryAfter = %v, want ~2.01s from the 10ms prior", d)
	}
}

func waitQueued(t *testing.T, c *Controller, n int) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if c.Stats().Queued >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d (now %d)", n, c.Stats().Queued)
}

// The String/Error forms land in logs and 429 bodies verbatim — pin them.
func TestShedErrorAndClassStrings(t *testing.T) {
	if Warm.String() != "warm" || Cold.String() != "cold" {
		t.Fatalf("class strings: %q / %q", Warm, Cold)
	}
	e := &ShedError{Reason: ReasonQueueFull, RetryAfter: 2 * time.Second}
	if got := e.Error(); got != "admit: shed (queue-full), retry after 2s" {
		t.Fatalf("ShedError.Error() = %q", got)
	}
}
