// Package hist provides the fixed log-bucketed latency histograms
// behind the observability layer's p50/p90/p99 surfaces. It is a leaf
// package — no binpart imports — so both internal/obs (stage spans) and
// internal/cache (disk probes) can record into the same bucket layout
// and their snapshots merge bucket-exactly.
//
// The layout is one bucket per power of two of nanoseconds: a recorded
// duration d lands in bucket bits.Len64(d), so bucket i covers
// [2^(i-1), 2^i) ns and its reported upper bound is 2^i ns. 64 buckets
// cover every int64 duration; there is no configuration, which is what
// makes merges across workers trivially exact. Quantiles are resolved
// to a bucket upper bound — deterministic, bucket-exact, and within 2x
// of the true value, which is the right precision for spotting a p99
// three orders of magnitude above the p50.
//
// Histogram is the live, concurrency-safe accumulator: recording is two
// atomic adds and allocates nothing, so it can sit on cache hot paths. Snapshot is the frozen value type that travels through
// stats tables, manifests, and /metrics.
package hist

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count: one per power of two of
// nanoseconds, covering every representable duration.
const NumBuckets = 64

// Histogram is a live log-bucketed latency accumulator. The zero value
// is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64 // total nanoseconds recorded
}

// Record adds one duration. Negative durations clamp to zero. The call
// is two atomic adds and never allocates.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.counts[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
}

// bucketOf maps a nanosecond value to its bucket index: the value's bit
// length, so bucket i covers [2^(i-1), 2^i).
func bucketOf(ns uint64) int {
	b := bits.Len64(ns)
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// BucketUpperNs is the inclusive upper bound reported for bucket i, in
// nanoseconds: 2^i - 1 (the largest value whose bit length is i).
func BucketUpperNs(i int) uint64 {
	if i >= NumBuckets-1 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Snapshot freezes the histogram into a value. Concurrent recorders may
// race individual buckets; each bucket read is atomic, so a snapshot
// taken mid-run is a consistent-enough lower bound per bucket.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.SumNs = h.sum.Load()
	return s
}

// Snapshot is a frozen histogram: the serializable, mergeable value
// behind stats tables, manifests, and /metrics.
type Snapshot struct {
	Counts [NumBuckets]uint64 `json:"counts"`
	Count  uint64             `json:"count"`
	SumNs  uint64             `json:"sum_ns"`
}

// Empty reports whether nothing was recorded.
func (s Snapshot) Empty() bool { return s.Count == 0 }

// Merge adds other into s bucket-by-bucket. Because every histogram
// shares the one fixed layout, merging worker snapshots is exactly the
// histogram of the concatenated samples.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Count += other.Count
	s.SumNs += other.SumNs
	return s
}

// Observe adds one duration to a frozen snapshot: the path used when a
// histogram is rebuilt from recorded spans rather than accumulated live.
func (s *Snapshot) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	s.Counts[bucketOf(ns)]++
	s.Count++
	s.SumNs += ns
}

// QuantileNs resolves quantile q (0 < q <= 1) to the upper bound of the
// bucket holding the q-th sample, in nanoseconds. An empty snapshot
// reports 0.
func (s Snapshot) QuantileNs(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	// The q-th sample by rank, ceiling: q=0.5 of 4 samples is rank 2.
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			return BucketUpperNs(i)
		}
	}
	return BucketUpperNs(NumBuckets - 1)
}

// QuantileUS is QuantileNs in integer microseconds (rounding up below a
// microsecond so a nonzero latency never reports as 0).
func (s Snapshot) QuantileUS(q float64) int64 {
	ns := s.QuantileNs(q)
	if ns == 0 {
		return 0
	}
	us := ns / 1e3
	if us == 0 {
		us = 1
	}
	if us > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(us)
}

// QuantileSeconds is QuantileNs in float seconds, for /metrics.
func (s Snapshot) QuantileSeconds(q float64) float64 {
	return float64(s.QuantileNs(q)) / 1e9
}
