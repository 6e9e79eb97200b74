// Package hdrhist is a fixed-bucket, HDR-style latency histogram for
// hot-path recording: log-linear buckets (32 sub-buckets per power of
// two, ≤3.2% relative quantile error), a flat array of atomic
// counters, and zero allocations per Record. Both the serving side
// (per-endpoint latency, ingest publish lag — /metrics) and the
// journal (fsync latency) record into the same structure, so their
// summaries are directly comparable.
//
// Values are int64 and unit-agnostic; the serving stack records
// nanoseconds. Negative values clamp to 0; values beyond ~4.6×10¹⁸
// clamp into the top bucket.
package hdrhist

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits fixes the resolution: 2^subBits sub-buckets per power of
	// two, so a bucket's width is at most value/2^subBits — quantiles
	// are exact to 1/32 ≈ 3.2%.
	subBits  = 5
	subCount = 1 << subBits // 32

	// maxShift bounds the geometric range; with subBits=5 the top
	// finite bucket starts at 2^(maxShift+subBits) = 2^62.
	maxShift   = 62 - subBits
	numBuckets = (maxShift+1)*subCount + subCount
)

// bucketIndex maps a value onto its log-linear bucket: values below
// subCount index linearly; above, the top subBits+1 significant bits
// select (exponent, sub-bucket). The mapping is monotone and
// contiguous: bucket b covers [lowerBound(b), lowerBound(b+1)).
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	e := bits.Len64(u) - (subBits + 1)
	if e <= 0 {
		return int(u)
	}
	if e > maxShift {
		e = maxShift
		return numBuckets - 1
	}
	return e<<subBits + int(u>>uint(e))
}

// bucketUpper is the largest value mapping into bucket idx — the value
// quantiles report, so reported quantiles never understate latency.
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	// Buckets ≥ subCount encode idx = e<<subBits + sub with
	// sub ∈ [subCount, 2·subCount), so idx>>subBits reads e one high
	// (sub's top bit folds in); recover e and sub explicitly.
	e := uint(idx>>subBits) - 1
	sub := uint64(idx&(subCount-1)) | subCount
	return int64((sub+1)<<e - 1)
}

// Histogram is the concurrent recorder. The zero value is NOT ready;
// use New (the bucket array is held out-of-line so copying a parent
// struct by value cannot tear counters).
type Histogram struct {
	counts *[numBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// New returns an empty histogram (~15 KB, fixed).
func New() *Histogram {
	return &Histogram{counts: new([numBuckets]atomic.Int64)}
}

// Record adds one observation. Safe for any number of concurrent
// callers; never allocates.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// RecordSince records the nanoseconds elapsed since t0.
func (h *Histogram) RecordSince(t0 time.Time) { h.Record(int64(time.Since(t0))) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Summary is the JSON-able digest of a histogram at one point in time.
// Quantiles are bucket upper bounds (never understated, ≤3.2% over).
type Summary struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P90Ns  int64 `json:"p90_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
	MaxNs  int64 `json:"max_ns"`
}

// Snapshot copies the live counters into a point-in-time Summary.
// Concurrent Records during the copy may land on either side; the
// result is a consistent-enough digest for metrics, not a barrier.
func (h *Histogram) Snapshot() Summary {
	var counts [numBuckets]int64
	var total int64
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		total += c
	}
	s := Summary{Count: total, MaxNs: h.max.Load()}
	if total == 0 {
		return s
	}
	s.MeanNs = h.sum.Load() / total
	// One cumulative sweep answers all four quantiles.
	targets := [4]int64{
		quantileRank(total, 0.50),
		quantileRank(total, 0.90),
		quantileRank(total, 0.99),
		quantileRank(total, 0.999),
	}
	vals := [4]*int64{&s.P50Ns, &s.P90Ns, &s.P99Ns, &s.P999Ns}
	var cum int64
	ti := 0
	for i := 0; i < numBuckets && ti < len(targets); i++ {
		cum += counts[i]
		for ti < len(targets) && cum >= targets[ti] {
			*vals[ti] = bucketUpper(i)
			ti++
		}
	}
	// The max is exact; clamp the coarser top quantiles to it.
	for _, v := range vals {
		if *v > s.MaxNs {
			*v = s.MaxNs
		}
	}
	return s
}

// quantileRank is the 1-based rank holding quantile q of n samples.
func quantileRank(n int64, q float64) int64 {
	r := int64(q*float64(n)) + 1
	if r > n {
		r = n
	}
	return r
}
