// Package stats provides the small statistical toolkit the paper leans
// on: the standard-normal CDF, the central-limit approximation of the
// binomial tail used in the key observation of §IV-A (Eq. 1), and log-log
// histograms with least-squares power-law slope fits (Fig. 3).
package stats

import (
	"errors"
	"math"
	"sort"
)

// NormalCDF returns Φ(x), the standard normal cumulative distribution
// function, via the complementary error function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// BinomialTailCLT approximates Pr(X ≥ x) for X ~ Binom(N, p) with the
// continuity-corrected normal approximation of Eq. 1:
//
//	Pr(X ≥ x) ≈ 1 − Φ(((x − 0.5) − Np) / sqrt(Np(1−p)))
//
// This is the quantity the paper evaluates at na·nb/N² to argue that
// frequent co-occurrence of two independent names is a vanishing-
// probability event.
func BinomialTailCLT(n int, p float64, x int) float64 {
	if n <= 0 || p <= 0 {
		if x <= 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		return 1
	}
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	if sd == 0 {
		if float64(x) <= mean {
			return 1
		}
		return 0
	}
	z := ((float64(x) - 0.5) - mean) / sd
	return 1 - NormalCDF(z)
}

// CoOccurrenceTail is the §IV-A instantiation: the probability that two
// independently appearing names with na and nb papers (out of N total)
// co-occur in at least x papers.
func CoOccurrenceTail(na, nb, total, x int) float64 {
	if total <= 0 {
		return 0
	}
	p := (float64(na) / float64(total)) * (float64(nb) / float64(total))
	return BinomialTailCLT(total, p, x)
}

// BinomialTailExact computes Pr(X ≥ x) exactly by summation (stable in
// log space). It is used by tests to bound the CLT approximation error.
func BinomialTailExact(n int, p float64, x int) float64 {
	if x <= 0 {
		return 1
	}
	if x > n {
		return 0
	}
	lp := math.Log(p)
	lq := math.Log1p(-p)
	sum := 0.0
	for k := x; k <= n; k++ {
		lt := logChoose(n, k) + float64(k)*lp + float64(n-k)*lq
		sum += math.Exp(lt)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

func logChoose(n, k int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// Histogram counts occurrences of positive integer values:
// Counts[v] = number of observations equal to v.
type Histogram struct {
	Counts map[int]int
}

// NewHistogram builds a histogram from values; non-positive values are
// ignored (power-law plots are defined on v ≥ 1).
func NewHistogram(values []int) *Histogram {
	h := &Histogram{Counts: make(map[int]int)}
	for _, v := range values {
		if v > 0 {
			h.Counts[v]++
		}
	}
	return h
}

// Add increments the count of value v (v ≥ 1).
func (h *Histogram) Add(v int) {
	if v > 0 {
		h.Counts[v]++
	}
}

// Points returns the (value, count) pairs sorted by value.
func (h *Histogram) Points() (xs, ys []float64) {
	vals := make([]int, 0, len(h.Counts))
	for v := range h.Counts {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	xs = make([]float64, len(vals))
	ys = make([]float64, len(vals))
	for i, v := range vals {
		xs[i] = float64(v)
		ys[i] = float64(h.Counts[v])
	}
	return xs, ys
}

// ErrDegenerate is returned by fits with fewer than two distinct points.
var ErrDegenerate = errors.New("stats: need at least two distinct points")

// PowerLawFit fits log10(y) = slope·log10(x) + intercept by least squares
// over the histogram points, the estimator behind the slopes annotated in
// Fig. 3 (−1.677 for papers-per-name, −3.172 for pair frequencies).
func (h *Histogram) PowerLawFit() (slope, intercept float64, err error) {
	xs, ys := h.Points()
	if len(xs) < 2 {
		return 0, 0, ErrDegenerate
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		lx[i] = math.Log10(xs[i])
		ly[i] = math.Log10(ys[i])
	}
	return LinearFit(lx, ly)
}

// LinearFit returns the least-squares line y = slope·x + intercept.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, ErrDegenerate
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, ErrDegenerate
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}
