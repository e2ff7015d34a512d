package planner

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"serviceordering/internal/gen"
)

func TestOptimizeHitMatchesMissByteForByte(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	q := testQuery(t, gen.Default(8, 11))
	ctx := context.Background()

	miss, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cached {
		t.Fatal("first request reported Cached")
	}
	if p.Stats().Searches != 1 {
		t.Fatalf("miss path ran %d searches, want 1", p.Stats().Searches)
	}

	hit, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second request not served from cache")
	}
	if !reflect.DeepEqual(hit.Plan, miss.Plan) {
		t.Fatalf("hit plan %v differs from miss plan %v", hit.Plan, miss.Plan)
	}
	if hit.Cost != miss.Cost {
		t.Fatalf("hit cost %v differs from miss cost %v", hit.Cost, miss.Cost)
	}
	if !hit.Optimal {
		t.Fatal("hit lost the optimality proof")
	}
	if hit.Stats.NodesExpanded != 0 {
		t.Fatalf("cache hit expanded %d nodes, want 0", hit.Stats.NodesExpanded)
	}
	if hit.Signature != miss.Signature {
		t.Fatal("hit and miss resolved to different signatures")
	}

	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Searches != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 search", s)
	}
}

func TestOptimizeHitAcrossRelabeling(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	q := testQuery(t, gen.Default(7, 23))
	ctx := context.Background()

	miss, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	perm := []int{3, 1, 4, 6, 0, 2, 5}
	pq := permuteQuery(q, perm)
	hit, err := p.Optimize(ctx, pq)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("isomorphic relabeling missed the cache")
	}
	if hit.Cost != miss.Cost {
		t.Fatalf("relabeled hit cost %v, want %v", hit.Cost, miss.Cost)
	}
	if err := hit.Plan.Validate(pq); err != nil {
		t.Fatalf("relabeled hit plan invalid for its query: %v", err)
	}
	if got := pq.Cost(hit.Plan); got != miss.Cost {
		t.Fatalf("relabeled hit plan costs %v on its query, want %v", got, miss.Cost)
	}
}

func TestSingleflightCollapsesConcurrentRequests(t *testing.T) {
	t.Parallel()
	var searches atomic.Int64
	release := make(chan struct{})
	p := New(Config{
		OnSearch: func(Signature) {
			searches.Add(1)
			<-release // hold the leader so followers genuinely overlap
		},
	})
	q := testQuery(t, gen.Default(8, 31))

	const requests = 16
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	results := make([]Result, requests)
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.Optimize(context.Background(), q)
			if results[i].Shared {
				sharedCount.Add(1)
			}
		}(i)
	}

	// Wait until the leader is inside the search, give followers time to
	// pile onto the flight group, then release.
	for searches.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := searches.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d searches, want 1", requests, got)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if results[i].Cost != results[0].Cost {
			t.Fatalf("request %d cost %v, want %v", i, results[i].Cost, results[0].Cost)
		}
	}
	if sharedCount.Load() == 0 {
		t.Fatal("no request reported Shared; followers did not join the flight")
	}
	if s := p.Stats(); s.SharedWaits != sharedCount.Load() {
		t.Fatalf("stats.SharedWaits = %d, want %d", s.SharedWaits, sharedCount.Load())
	}
}

func TestEvictionRespectsCapacity(t *testing.T) {
	t.Parallel()
	// Capacity rounds up to one entry per shard.
	const capacity = cacheShardCount
	p := New(Config{CacheCapacity: capacity})
	ctx := context.Background()

	const distinct = 6 * capacity
	for seed := int64(0); seed < distinct; seed++ {
		q := testQuery(t, gen.Default(5, 40000+seed))
		if _, err := p.Optimize(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Entries > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", s.Entries, capacity)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions recorded after overfilling the cache")
	}
	if s.Evictions < int64(distinct-capacity) {
		t.Fatalf("evictions = %d, want >= %d", s.Evictions, distinct-capacity)
	}
}

func TestCacheDisabled(t *testing.T) {
	t.Parallel()
	var searches atomic.Int64
	p := New(Config{
		CacheCapacity: -1,
		OnSearch:      func(Signature) { searches.Add(1) },
	})
	q := testQuery(t, gen.Default(6, 55))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := p.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("caching disabled but request served from cache")
		}
	}
	if got := searches.Load(); got != 3 {
		t.Fatalf("ran %d searches, want 3 (one per request)", got)
	}
}

func TestNonOptimalResultsAreNotCached(t *testing.T) {
	t.Parallel()
	p := New(Config{TimeLimit: time.Nanosecond})
	q := truncatedQuery(t)
	ctx := context.Background()

	res, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal || res.Tier != TierExact {
		t.Fatalf("tier %q optimal %v, want an unproven exact answer from the time limit", res.Tier, res.Optimal)
	}
	again, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("truncated (non-optimal) result was cached")
	}
}

func TestOptimizeContextAlreadyCanceled(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	q := testQuery(t, gen.Default(5, 5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Optimize(ctx, q); err == nil {
		t.Fatal("canceled context did not fail the request")
	}
}

func TestOptimizeRejectsInvalidQuery(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	if _, err := p.Optimize(context.Background(), nil); err == nil {
		t.Fatal("nil query accepted")
	}
	q := testQuery(t, gen.Default(4, 2))
	q.Transfer[0][0] = 1 // corrupt: non-zero diagonal
	if _, err := p.Optimize(context.Background(), q); err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestMemoHitsCountByteIdenticalResubmissions(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	q := testQuery(t, gen.Default(6, 88))
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := p.Optimize(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.MemoHits != 3 {
		t.Fatalf("memo hits = %d, want 3", s.MemoHits)
	}
}

func TestFollowerHonorsOwnContext(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	searching := make(chan struct{})
	var once sync.Once
	p := New(Config{
		OnSearch: func(Signature) {
			once.Do(func() { close(searching) })
			<-release
		},
	})
	q := testQuery(t, gen.Default(8, 64))

	leaderDone := make(chan error, 1)
	go func() {
		_, err := p.Optimize(context.Background(), q)
		leaderDone <- err
	}()
	<-searching // leader is inside the search and will stay there

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := p.Optimize(ctx, q)
		followerDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the follower reach the flight wait
	cancel()

	select {
	case err := <-followerDone:
		if err == nil {
			t.Fatal("canceled follower returned success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower did not honor its own context while the leader searched")
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
}

func TestFollowerDoesNotInheritTruncatedResult(t *testing.T) {
	t.Parallel()
	// The leader's search truncates under a time limit so tight it trips
	// at the first clock poll; the follower must run a search of its own
	// rather than adopt the leader's unproven incumbent.
	searchStarted := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	p := New(Config{
		TimeLimit: time.Nanosecond,
		OnSearch: func(Signature) {
			if calls.Add(1) == 1 {
				close(searchStarted)
				<-release
			}
		},
	})
	q := truncatedQuery(t)

	leaderDone := make(chan Result, 1)
	go func() {
		res, err := p.Optimize(context.Background(), q)
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		leaderDone <- res
	}()
	<-searchStarted

	followerDone := make(chan Result, 1)
	go func() {
		res, err := p.Optimize(context.Background(), q)
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		followerDone <- res
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)

	leader := <-leaderDone
	follower := <-followerDone
	if leader.Optimal {
		t.Fatal("leader proved its query; the test needs a truncated search")
	}
	if follower.Shared {
		t.Fatal("follower shared a truncated (non-optimal) leader result")
	}
	if calls.Load() != 2 {
		t.Fatalf("searches = %d, want 2 (leader + follower fallback)", calls.Load())
	}
}

// TestSearchStatsAccumulate pins the production search counters: a cold
// search adds its nodes to SearchNodes, a cache hit adds nothing, and
// HitRate reflects the lookup mix.
func TestSearchStatsAccumulate(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	q := testQuery(t, gen.Default(8, 11))
	ctx := context.Background()

	// Fresh planner: zero lookups must yield a 0 hit rate, never NaN —
	// dqserve serializes this straight into /v1/stats JSON.
	if fresh := p.Stats().HitRate(); fresh != 0 {
		t.Fatalf("fresh hit rate = %v, want exactly 0", fresh)
	}

	if _, err := p.Optimize(ctx, q); err != nil {
		t.Fatal(err)
	}
	afterMiss := p.Stats()
	if afterMiss.SearchNodes <= 0 {
		t.Fatalf("cold search recorded %d nodes, want > 0", afterMiss.SearchNodes)
	}
	if afterMiss.HitRate() != 0 {
		t.Fatalf("hit rate %v after one miss, want 0", afterMiss.HitRate())
	}

	if _, err := p.Optimize(ctx, q); err != nil {
		t.Fatal(err)
	}
	afterHit := p.Stats()
	if afterHit.SearchNodes != afterMiss.SearchNodes {
		t.Fatalf("cache hit changed SearchNodes: %d -> %d", afterMiss.SearchNodes, afterHit.SearchNodes)
	}
	if afterHit.HitRate() != 0.5 {
		t.Fatalf("hit rate %v after 1 hit / 1 miss, want 0.5", afterHit.HitRate())
	}
}

// TestLatencyQuantilesSurface pins the Stats view of the latency
// histogram: all-zero on a fresh planner (the values serialize straight
// into /v1/stats JSON, so NaN is forbidden), positive and ordered once
// requests have flowed.
func TestLatencyQuantilesSurface(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	fresh := p.Stats()
	if fresh.OptimizeP50Micros != 0 || fresh.OptimizeP90Micros != 0 || fresh.OptimizeP99Micros != 0 {
		t.Fatalf("fresh quantiles non-zero: %+v", fresh)
	}

	ctx := context.Background()
	q := testQuery(t, gen.Default(8, 2026))
	for i := 0; i < 32; i++ {
		if _, err := p.Optimize(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.OptimizeP50Micros <= 0 {
		t.Fatalf("p50 = %v after 32 requests, want > 0", s.OptimizeP50Micros)
	}
	if s.OptimizeP50Micros > s.OptimizeP90Micros || s.OptimizeP90Micros > s.OptimizeP99Micros {
		t.Fatalf("quantiles out of order: p50=%v p90=%v p99=%v",
			s.OptimizeP50Micros, s.OptimizeP90Micros, s.OptimizeP99Micros)
	}

	// A failed request must not be recorded: the histogram's total
	// observation count stays put across a canceled Optimize.
	histTotal := func() int64 {
		var total int64
		for i := range p.lat.buckets {
			total += p.lat.buckets[i].Load()
		}
		return total
	}
	before := histTotal()
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.Optimize(canceled, q); err == nil {
		t.Fatal("canceled request succeeded")
	}
	if after := histTotal(); after != before {
		t.Fatalf("failed request was recorded: histogram count %d -> %d", before, after)
	}
}

// TestDominanceStatsSurface pins the planner-level view of the dominance
// table: a search hard enough for the table to fire accumulates
// DominancePrunes and reports the run's occupancy.
func TestDominanceStatsSurface(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	if _, err := p.Optimize(context.Background(), truncatedQuery(t)); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.DominancePrunes <= 0 {
		t.Fatalf("DominancePrunes = %d after a hard search, want > 0", st.DominancePrunes)
	}
	if st.DominanceOccupancy <= 0 || st.DominanceOccupancy > 1 {
		t.Fatalf("DominanceOccupancy = %v, want in (0, 1]", st.DominanceOccupancy)
	}
}
