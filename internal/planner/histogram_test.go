package planner

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestHistBucketContainsValue: every duration lands in a bucket whose
// reported upper bound covers it and whose predecessor's bound does not
// overshoot it. The containment check runs on durations within float64's
// exact integer range (2^52 ns ≈ 52 days — far beyond any real request);
// the full int64 range is covered by the in-range and monotonicity
// properties below.
func TestHistBucketContainsValue(t *testing.T) {
	t.Parallel()
	check := func(d time.Duration) {
		t.Helper()
		b := histBucket(d)
		if b < 0 || b >= histBucketCount {
			t.Fatalf("duration %v mapped to out-of-range bucket %d", d, b)
		}
		if float64(d) > histBucketUpperNanos(b) {
			t.Fatalf("duration %v above its bucket %d upper bound %v", d, b, histBucketUpperNanos(b))
		}
		if b > 0 && float64(d) <= histBucketUpperNanos(b-1)-1 {
			t.Fatalf("duration %v fits bucket %d already (upper %v)", d, b-1, histBucketUpperNanos(b-1))
		}
	}
	for _, d := range []time.Duration{0, 1, 7, 8, 9, 15, 16, 17, 100, 999,
		time.Microsecond, 42 * time.Microsecond, time.Millisecond,
		time.Second, time.Hour, 1 << 52} {
		check(d)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		check(time.Duration(rng.Int63n(1 << 52)))
	}
	// Extremes stay in range and clamp sanely.
	for _, d := range []time.Duration{math.MaxInt64, math.MaxInt64 - 1, 1<<62 + 12345} {
		if b := histBucket(d); b < 0 || b >= histBucketCount {
			t.Fatalf("duration %v mapped to out-of-range bucket %d", d, b)
		}
	}
	if histBucket(-time.Second) != 0 {
		t.Fatal("negative duration did not clamp to bucket 0")
	}
	// Bucket index is monotone in the duration over the full range.
	for i := 0; i < 100000; i++ {
		u, v := rng.Int63(), rng.Int63()
		if u > v {
			u, v = v, u
		}
		if histBucket(time.Duration(u)) > histBucket(time.Duration(v)) {
			t.Fatalf("bucket index not monotone: bucket(%d) > bucket(%d)", u, v)
		}
	}
}

// TestHistBucketMonotonic: upper bounds strictly increase across every
// reachable bucket (indices above histBucket(MaxInt64) are dead padding).
func TestHistBucketMonotonic(t *testing.T) {
	t.Parallel()
	prev := -1.0
	for b := 0; b <= histBucket(time.Duration(math.MaxInt64)); b++ {
		u := histBucketUpperNanos(b)
		if u <= prev {
			t.Fatalf("bucket %d upper %v <= bucket %d upper %v", b, u, b-1, prev)
		}
		prev = u
	}
}

// TestHistQuantiles records a known trimodal distribution and checks the
// quantiles land on the right modes within the documented ~12.5% bucket
// resolution.
func TestHistQuantiles(t *testing.T) {
	t.Parallel()
	var h latencyHist
	for i := 0; i < 600; i++ {
		h.observe(100 * time.Microsecond)
	}
	for i := 0; i < 350; i++ {
		h.observe(1 * time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		h.observe(20 * time.Millisecond)
	}
	q := h.quantiles(0.50, 0.90, 0.99)
	within := func(got, want float64) bool { return got >= want && got <= want*1.15 }
	if !within(q[0], 100) {
		t.Errorf("p50 = %vµs, want ~100µs (upper-bounded within 15%%)", q[0])
	}
	if !within(q[1], 1000) {
		t.Errorf("p90 = %vµs, want ~1000µs", q[1])
	}
	if !within(q[2], 20000) {
		t.Errorf("p99 = %vµs, want ~20000µs", q[2])
	}
}

// TestHistQuantilesEmpty: a fresh histogram reports zeros (never NaN —
// the values are serialized into /v1/stats JSON).
func TestHistQuantilesEmpty(t *testing.T) {
	t.Parallel()
	var h latencyHist
	for _, v := range h.quantiles(0.5, 0.9, 0.99) {
		if v != 0 {
			t.Fatalf("fresh histogram quantile = %v, want 0", v)
		}
	}
}

// TestHistConcurrent exercises the lock-free recording path from many
// goroutines under -race, with quantile snapshots racing the writers, and
// verifies no observation was lost.
func TestHistConcurrent(t *testing.T) {
	t.Parallel()
	var h latencyHist
	const (
		writers    = 8
		perWriter  = 20000
		totalCount = writers * perWriter
	)
	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	readerWG.Add(1)
	go func() { // concurrent snapshots must never panic or return NaN
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, v := range h.quantiles(0.5, 0.99) {
				if math.IsNaN(v) {
					t.Error("quantile snapshot produced NaN under concurrency")
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.observe(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
			}
		}(int64(w))
	}
	writersWG.Wait()
	close(stop)
	readerWG.Wait()

	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total != totalCount {
		t.Fatalf("histogram holds %d observations, want %d (lost updates)", total, totalCount)
	}
}
