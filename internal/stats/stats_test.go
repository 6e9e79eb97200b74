package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	approx(t, NormalCDF(0), 0.5, 1e-12, "Φ(0)")
	approx(t, NormalCDF(1.96), 0.9750021, 1e-6, "Φ(1.96)")
	approx(t, NormalCDF(-1.96), 0.0249979, 1e-6, "Φ(-1.96)")
	approx(t, NormalCDF(3), 0.9986501, 1e-6, "Φ(3)")
}

func TestNormalCDFSymmetry(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 30 {
			return true
		}
		return math.Abs(NormalCDF(x)+NormalCDF(-x)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEquation2TailProbability(t *testing.T) {
	got := CoOccurrenceTail(500, 500, 500000, 3)
	approx(t, got, 2.3389e-3, 2e-5, "Pr(X≥3) (Eq. 2)")
}

func TestBinomialTailCLTAgainstExact(t *testing.T) {
	// For moderate Np the CLT approximation should be within a small
	// absolute error of the exact tail.
	cases := []struct {
		n int
		p float64
		x int
	}{
		{1000, 0.05, 60},
		{1000, 0.05, 40},
		{500, 0.2, 110},
		{2000, 0.01, 25},
	}
	for _, c := range cases {
		exact := BinomialTailExact(c.n, c.p, c.x)
		clt := BinomialTailCLT(c.n, c.p, c.x)
		if math.Abs(exact-clt) > 0.02 {
			t.Errorf("n=%d p=%g x=%d: exact=%g clt=%g", c.n, c.p, c.x, exact, clt)
		}
	}
}

func TestBinomialTailEdges(t *testing.T) {
	if got := BinomialTailCLT(0, 0.5, 0); got != 1 {
		t.Fatalf("Pr(X≥0) with n=0 = %g, want 1", got)
	}
	if got := BinomialTailCLT(10, 0, 1); got != 0 {
		t.Fatalf("p=0 tail = %g, want 0", got)
	}
	if got := BinomialTailExact(10, 0.3, 0); got != 1 {
		t.Fatalf("exact Pr(X≥0)=%g", got)
	}
	if got := BinomialTailExact(10, 0.3, 11); got != 0 {
		t.Fatalf("exact Pr(X≥11)=%g", got)
	}
	if got := CoOccurrenceTail(5, 5, 0, 1); got != 0 {
		t.Fatalf("empty corpus tail=%g", got)
	}
}

func TestBinomialTailMonotoneInX(t *testing.T) {
	prev := 1.1
	for x := 0; x <= 30; x++ {
		tail := BinomialTailCLT(1000, 0.01, x)
		if tail > prev+1e-12 {
			t.Fatalf("tail not monotone at x=%d: %g > %g", x, tail, prev)
		}
		prev = tail
	}
}

func TestHistogramPowerLawFit(t *testing.T) {
	// Construct an exact power law: count(v) = round(1000·v^-2).
	h := &Histogram{Counts: map[int]int{}}
	for v := 1; v <= 30; v++ {
		c := int(math.Round(1000 * math.Pow(float64(v), -2)))
		if c > 0 {
			h.Counts[v] = c
		}
	}
	slope, intercept, err := h.PowerLawFit()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, slope, -2, 0.08, "power-law slope")
	approx(t, intercept, 3, 0.1, "power-law intercept")
}

func TestHistogramIgnoresNonPositive(t *testing.T) {
	h := NewHistogram([]int{0, -3, 1, 1, 2})
	if h.Counts[1] != 2 || h.Counts[2] != 1 || len(h.Counts) != 2 {
		t.Fatalf("histogram=%v", h.Counts)
	}
	xs, ys := h.Points()
	if len(xs) != 2 || xs[0] != 1 || ys[0] != 2 {
		t.Fatalf("points=%v %v", xs, ys)
	}
}

func TestPowerLawFitDegenerate(t *testing.T) {
	h := NewHistogram([]int{5, 5, 5})
	if _, _, err := h.PowerLawFit(); err != ErrDegenerate {
		t.Fatalf("err=%v, want ErrDegenerate", err)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x+1
	slope, intercept, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, slope, 2, 1e-12, "slope")
	approx(t, intercept, 1, 1e-12, "intercept")

	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single-point fit should fail")
	}
	if _, _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Fatal("vertical line fit should fail")
	}
}
