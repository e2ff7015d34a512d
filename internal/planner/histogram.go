package planner

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latencyHist is a fixed-bucket, lock-free latency histogram: recording is
// one atomic increment on the request path (no mutex, no allocation), and
// quantiles are computed on demand from a snapshot of the bucket counters.
//
// Buckets are log-spaced with histSubCount linear sub-buckets per power of
// two (an HDR-style layout), so a reported quantile is at most one
// sub-bucket width — 1/histSubCount of an octave, i.e. ~12.5% — above the
// true value. Durations below histSubCount nanoseconds get exact unit
// buckets; the top bucket covers everything up to ~292 years, so no
// observation is ever dropped.
//
// Quantile snapshots race benignly with concurrent recording: each counter
// is read atomically, but the set of reads is not a consistent cut. The
// resulting quantile error is bounded by the observations that landed
// mid-snapshot — noise on a monitoring endpoint, never corruption.
const (
	histSubBits  = 3
	histSubCount = 1 << histSubBits // linear sub-buckets per octave

	// histBucketCount covers every possible index produced by histBucket:
	// the largest is (63-histSubBits)<<histSubBits + (histSubCount-1) +
	// histSubCount = 495 for histSubBits = 3.
	histBucketCount = 512
)

type latencyHist struct {
	buckets [histBucketCount]atomic.Int64
}

// observe records one duration. Negative durations (clock steps) clamp to
// zero rather than corrupting an index.
func (h *latencyHist) observe(d time.Duration) {
	h.buckets[histBucket(d)].Add(1)
}

// histBucket maps a duration to its bucket index.
func histBucket(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	v := uint64(d)
	if v < histSubCount {
		return int(v)
	}
	exp := uint(bits.Len64(v)) - 1 - histSubBits
	return int(exp)<<histSubBits + int((v>>exp)&(histSubCount-1)) + histSubCount
}

// histBucketUpperNanos returns the upper bound of bucket i in nanoseconds
// — the conservative value quantiles report. Computed in float64 so the
// top buckets (whose exact bounds exceed uint64) saturate instead of
// wrapping.
func histBucketUpperNanos(i int) float64 {
	if i < histSubCount {
		return float64(i)
	}
	i -= histSubCount
	exp := uint(i >> histSubBits)
	m := uint64(i & (histSubCount - 1))
	lower := (histSubCount + m) << exp
	return float64(lower) + float64(uint64(1)<<exp)
}

// quantiles returns the latencies at the given ascending quantile points,
// in microseconds (upper bucket bounds). With no recorded observations it
// returns zeros — /v1/stats serializes these values, and encoding/json
// rejects NaN outright.
func (h *latencyHist) quantiles(qs ...float64) []float64 {
	var counts [histBucketCount]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	out := make([]float64, len(qs))
	if total == 0 {
		return out
	}
	var cum int64
	bucket := 0
	for qi, q := range qs {
		target := int64(q * float64(total))
		if target < 1 {
			target = 1
		}
		for bucket < histBucketCount && cum+counts[bucket] < target {
			cum += counts[bucket]
			bucket++
		}
		if bucket >= histBucketCount {
			bucket = histBucketCount - 1
		}
		out[qi] = histBucketUpperNanos(bucket) / 1e3
	}
	return out
}
