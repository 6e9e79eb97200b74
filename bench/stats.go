package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of measurements of one quantity, in the unit its
// owner chose (the workloads keep latencies in milliseconds).
type samples []float64

// sorted returns an ascending copy.
func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// the nearest-rank rule: the smallest value with at least q·n values at
// or below it. It returns 0 for an empty sample.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median of an unsorted sample.
func median(v []float64) float64 { return samples(v).sorted().quantile(0.5) }

// fasterHalf is the mean of the better half of an unsorted sample: the
// lower half of latencies, the upper half of rates (the middle value of
// an odd count included). What a shared box does to a measurement has one
// sign — a neighbour, a collection or a compaction only ever makes a
// window slower — so the slower half holds the disturbance and the
// faster half what the server costs. Over forty runs of one seed the
// quartile spread of ten runs was a fifth to a third smaller than with
// the median or the mean of the middle half. A cost that is in every
// window is in the faster half too. It returns 0 for an empty sample.
func fasterHalf(v []float64, lowerIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := samples(v).sorted()
	if n := (len(s) + 1) / 2; lowerIsBetter {
		s = s[:n]
	} else {
		s = s[len(s)-n:]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// tailLadder is the set of percentiles a timing may be reported at.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it in a sample of n: a p99 quoted from
// 120 samples is one or two observations, a p99 from 1,200 is not. It
// returns 0.5 when even the median has fewer than ten beyond it.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		beyond := n - int(math.Ceil(q*float64(n)))
		if beyond >= 10 {
			best = q
		}
	}
	return best
}

// timing is the printable digest of one latency sample: the median, the
// highest percentile the sample supports, and the count.
type timing struct {
	N      int
	Median float64
	TailQ  float64
	Tail   float64
}

func digest(s samples) timing {
	srt := s.sorted()
	q := tailPercentile(len(srt))
	return timing{N: len(srt), Median: srt.quantile(0.5), TailQ: q, Tail: srt.quantile(q)}
}

func (t timing) String() string {
	return fmt.Sprintf("median %.4g  p%s %.4g  n=%d", t.Median, trimPct(t.TailQ), t.Tail, t.N)
}

// trimPct renders 0.999 as "99.9" and 0.5 as "50".
func trimPct(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1e6)/1e4)
}

// timed is one latency sample and when, from the start of its slice, it
// completed.
type timed struct {
	at time.Duration
	ms float64
}

func values(ts []timed) samples {
	out := make(samples, len(ts))
	for i, t := range ts {
		out[i] = t.ms
	}
	return out
}

// windows cuts the samples of a slice of length d into equal windows of
// about the given length — at least one — and returns the latencies of
// each, in time order. A request that finished after the deadline counts
// in the last window.
func windows(ts []timed, d, length time.Duration) []samples {
	k := int(d / length)
	if k < 1 {
		k = 1
	}
	out := make([]samples, k)
	for _, t := range ts {
		w := k - 1
		if d > 0 && t.at < d {
			w = int(int64(t.at) * int64(k) / int64(d))
		}
		out[w] = append(out[w], t.ms)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pairCounts accumulates the pairwise confusion counts of §VI-A2 the
// same way internal/eval does (the bench owns its scoring so that a
// change to the product's evaluator cannot move the yardstick; a test
// cross-checks the two).
type pairCounts struct {
	tp, samePred, sameTruth int64
}

type instance struct{ cluster, truth int }

// addName folds the instance pairs of one name into the counts.
func (pc *pairCounts) addName(ins []instance) {
	cells := make(map[instance]int64)
	byCluster := make(map[int]int64)
	byTruth := make(map[int]int64)
	for _, in := range ins {
		cells[in]++
		byCluster[in.cluster]++
		byTruth[in.truth]++
	}
	for _, k := range cells {
		pc.tp += k * (k - 1) / 2
	}
	for _, k := range byCluster {
		pc.samePred += k * (k - 1) / 2
	}
	for _, k := range byTruth {
		pc.sameTruth += k * (k - 1) / 2
	}
}

// add pools the counts of another library into pc.
func (pc *pairCounts) add(o pairCounts) {
	pc.tp += o.tp
	pc.samePred += o.samePred
	pc.sameTruth += o.sameTruth
}

// f1 is the micro pairwise F1: the harmonic mean of pair precision
// (tp / predicted-together) and pair recall (tp / truly-together).
func (pc pairCounts) f1() float64 {
	if pc.tp == 0 {
		return 0
	}
	p := float64(pc.tp) / float64(pc.samePred)
	r := float64(pc.tp) / float64(pc.sameTruth)
	return 2 * p * r / (p + r)
}
