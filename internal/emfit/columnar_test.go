package emfit

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file pins the columnar sufficient-statistics engine against a
// verbatim copy of the pre-refactor row-major implementation:
// referenceFit below IS the old Fit (per-sample logPDF switches,
// per-iteration binary searches, per-component weight sums), kept here
// as the ground truth the columnar engine must reproduce bit for bit —
// parameters, responsibilities, log-likelihood, and iteration count.

// referenceFitComponent is the pre-refactor fitComponent, unchanged.
func referenceFitComponent(spec FeatureSpec, xs []float64, w []float64) component {
	c := component{family: spec.Family, bins: spec.Bins}
	var sw float64
	for _, wj := range w {
		sw += wj
	}
	switch spec.Family {
	case Gaussian:
		if sw <= 0 {
			c.mu, c.sigma2 = 0, 1
			return c
		}
		var mean float64
		for j, x := range xs {
			mean += w[j] * x
		}
		mean /= sw
		var ss float64
		for j, x := range xs {
			d := x - mean
			ss += w[j] * d * d
		}
		c.mu = mean
		c.sigma2 = ss / sw
		if c.sigma2 < varianceFloor {
			c.sigma2 = varianceFloor
		}
	case Exponential:
		var sx float64
		for j, x := range xs {
			if x < 0 {
				x = 0
			}
			sx += w[j] * x
		}
		if sw <= 0 || sx <= 0 {
			c.lambda = lambdaMax
			return c
		}
		c.lambda = sw / sx
		if c.lambda < lambdaMin {
			c.lambda = lambdaMin
		}
		if c.lambda > lambdaMax {
			c.lambda = lambdaMax
		}
	case Multinomial:
		nb := len(spec.Bins) + 1
		counts := make([]float64, nb)
		for j, x := range xs {
			counts[binOf(spec.Bins, x)] += w[j]
		}
		c.logp = make([]float64, nb)
		denom := sw + float64(nb)
		for b := 0; b < nb; b++ {
			c.logp[b] = math.Log((counts[b] + 1) / denom)
		}
	case ZeroInflatedExponential:
		var swZero, swPos, sxPos float64
		for j, x := range xs {
			if x < zeroEps {
				swZero += w[j]
			} else {
				swPos += w[j]
				sxPos += w[j] * x
			}
		}
		pi0 := (swZero + 1) / (sw + 2)
		c.logPi0 = math.Log(pi0)
		c.logPi1 = math.Log(1 - pi0)
		if swPos <= 0 || sxPos <= 0 {
			c.lambda = lambdaMax
		} else {
			c.lambda = clamp(swPos/sxPos, lambdaMin, lambdaMax)
		}
	default:
		panic("emfit: unknown family " + spec.Family.String())
	}
	return c
}

// referenceSeed is the pre-refactor row-major seedResponsibilities.
func referenceSeed(x [][]float64, resp []float64) {
	n, m := len(x), len(x[0])
	mean := make([]float64, m)
	std := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			mean[i] += x[j][i]
		}
		mean[i] /= float64(n)
		for j := 0; j < n; j++ {
			d := x[j][i] - mean[i]
			std[i] += d * d
		}
		std[i] = math.Sqrt(std[i] / float64(n))
		if std[i] == 0 {
			std[i] = 1
		}
	}
	sums := make([]float64, n)
	order := make([]int, n)
	for j := 0; j < n; j++ {
		s := 0.0
		for i := 0; i < m; i++ {
			s += (x[j][i] - mean[i]) / std[i]
		}
		sums[j] = s
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return sums[order[a]] > sums[order[b]] })
	cut := n / 4
	if cut == 0 {
		cut = 1
	}
	for rank, j := range order {
		if rank < cut {
			resp[j] = 0.9
		} else {
			resp[j] = 0.1
		}
	}
}

// referenceFit is the pre-refactor row-major Fit, serial form (the old
// engine was bit-identical for every worker count, so serial is the
// full contract).
func referenceFit(x [][]float64, specs []FeatureSpec, opts Options) (*Model, []float64, error) {
	n := len(x)
	if n == 0 {
		return nil, nil, ErrNoData
	}
	m := len(specs)
	if opts.MaxIter <= 0 {
		opts.MaxIter = 100
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	resp := make([]float64, n)
	if opts.InitResp != nil {
		copy(resp, opts.InitResp)
	} else {
		referenceSeed(x, resp)
	}
	cols := make([][]float64, m)
	for i := 0; i < m; i++ {
		cols[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			cols[i][j] = x[j][i]
		}
	}
	wU := make([]float64, n)
	dens := make([]float64, n)
	post := make([]float64, n)
	model := &Model{Specs: specs}
	prevLL := math.Inf(-1)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		var sumResp float64
		for j := range resp {
			wU[j] = 1 - resp[j]
			sumResp += resp[j]
		}
		model.P = clamp(sumResp/float64(n), mixFloor, 1-mixFloor)
		model.matched = make([]component, m)
		model.unmatched = make([]component, m)
		for k := 0; k < 2*m; k++ {
			if k < m {
				model.matched[k] = referenceFitComponent(specs[k], cols[k], resp)
			} else {
				model.unmatched[k-m] = referenceFitComponent(specs[k-m], cols[k-m], wU)
			}
		}
		logP := math.Log(model.P)
		logQ := math.Log(1 - model.P)
		for j := 0; j < n; j++ {
			lm, lu := logP, logQ
			for i := 0; i < m; i++ {
				lm += model.matched[i].logPDF(x[j][i])
				lu += model.unmatched[i].logPDF(x[j][i])
			}
			mx := math.Max(lm, lu)
			den := mx + math.Log(math.Exp(lm-mx)+math.Exp(lu-mx))
			dens[j] = den
			post[j] = math.Exp(lm - den)
		}
		ll := 0.0
		for j := 0; j < n; j++ {
			if opts.Clamped != nil && opts.Clamped[j] {
				resp[j] = opts.InitResp[j]
			} else {
				resp[j] = post[j]
			}
			ll += dens[j]
		}
		model.LogLikelihood = ll
		model.Iterations = iter
		if ll-prevLL < opts.Tol*math.Abs(ll) && iter > 1 {
			break
		}
		prevLL = ll
	}
	return model, resp, nil
}

// randomMatrix draws an n×m matrix whose columns exercise every family's
// edge geometry: exact zeros (the ZIE atom), negatives (the Exponential
// clamp), values on and past multinomial bin edges, and smooth Gaussian
// mass.
func randomMatrix(rng *rand.Rand, n int, specs []FeatureSpec) [][]float64 {
	x := make([][]float64, n)
	for j := range x {
		row := make([]float64, len(specs))
		for i, sp := range specs {
			switch sp.Family {
			case Gaussian:
				row[i] = rng.NormFloat64()*0.4 + 0.3
			case Exponential:
				row[i] = rng.ExpFloat64() / 3
				if rng.Float64() < 0.1 {
					row[i] = -row[i] // exercises the x<0 clamp
				}
			case Multinomial:
				switch rng.Intn(4) {
				case 0:
					row[i] = sp.Bins[rng.Intn(len(sp.Bins))] // exactly on an edge
				case 1:
					row[i] = sp.Bins[len(sp.Bins)-1] + rng.Float64() // overflow bin
				default:
					row[i] = rng.Float64() * sp.Bins[len(sp.Bins)-1]
				}
			case ZeroInflatedExponential:
				if rng.Float64() < 0.4 {
					row[i] = 0 // the zero atom
				} else {
					row[i] = rng.ExpFloat64() / 5
				}
			}
		}
		x[j] = row
	}
	return x
}

func fourFamilySpecs() []FeatureSpec {
	return []FeatureSpec{
		{Name: "g", Family: Gaussian},
		{Name: "e", Family: Exponential},
		{Name: "m", Family: Multinomial, Bins: []float64{0.05, 0.2, 0.5, 1}},
		{Name: "z", Family: ZeroInflatedExponential},
	}
}

func modelsBitIdentical(t *testing.T, label string, ref, got *Model) {
	t.Helper()
	bits := math.Float64bits
	if bits(ref.P) != bits(got.P) {
		t.Fatalf("%s: P %v != reference %v", label, got.P, ref.P)
	}
	if bits(ref.LogLikelihood) != bits(got.LogLikelihood) {
		t.Fatalf("%s: LL %v != reference %v", label, got.LogLikelihood, ref.LogLikelihood)
	}
	if ref.Iterations != got.Iterations {
		t.Fatalf("%s: iterations %d != reference %d", label, got.Iterations, ref.Iterations)
	}
	sides := []struct {
		name     string
		ref, got []component
	}{
		{"matched", ref.matched, got.matched},
		{"unmatched", ref.unmatched, got.unmatched},
	}
	for _, s := range sides {
		for i := range s.ref {
			r, g := &s.ref[i], &s.got[i]
			if bits(r.mu) != bits(g.mu) || bits(r.sigma2) != bits(g.sigma2) ||
				bits(r.lambda) != bits(g.lambda) ||
				bits(r.logPi0) != bits(g.logPi0) || bits(r.logPi1) != bits(g.logPi1) {
				t.Fatalf("%s: %s[%d] scalar params differ: ref=%+v got=%+v", label, s.name, i, *r, *g)
			}
			if len(r.logp) != len(g.logp) {
				t.Fatalf("%s: %s[%d] logp length %d != %d", label, s.name, i, len(g.logp), len(r.logp))
			}
			for b := range r.logp {
				if bits(r.logp[b]) != bits(g.logp[b]) {
					t.Fatalf("%s: %s[%d] logp[%d] %v != %v", label, s.name, i, b, g.logp[b], r.logp[b])
				}
			}
		}
	}
}

// TestEMColumnarEquivalence: the columnar engine reproduces the
// row-major reference bit for bit — parameters, responsibilities, and
// iteration counts — on randomized matrices across all four families,
// with and without clamped semi-supervised labels, for several worker
// counts, through both the row-major wrapper and the feature-major
// FitMatrix entry.
func TestEMColumnarEquivalence(t *testing.T) {
	specs := fourFamilySpecs()
	for _, tc := range []struct {
		name    string
		n       int
		seed    int64
		clamped bool
	}{
		{"small-seeded", 37, 1, false},
		{"mid-seeded", 400, 2, false},
		{"mid-clamped", 400, 3, true},
		{"large-seeded", 2500, 4, false},
		{"large-clamped", 2500, 5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			x := randomMatrix(rng, tc.n, specs)
			opts := DefaultOptions()
			if tc.clamped {
				init := make([]float64, tc.n)
				cl := make([]bool, tc.n)
				for j := range init {
					init[j] = 0.5
					if rng.Float64() < 0.2 {
						cl[j] = true
						if rng.Float64() < 0.5 {
							init[j] = 0.95
						} else {
							init[j] = 0.05
						}
					}
				}
				opts.InitResp = init
				opts.Clamped = cl
			}
			ref, refResp, err := referenceFit(x, specs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 3} {
				o := opts
				o.Workers = workers
				model, resp, err := Fit(x, specs, o)
				if err != nil {
					t.Fatal(err)
				}
				label := tc.name + "/Fit"
				modelsBitIdentical(t, label, ref, model)
				for j := range refResp {
					if math.Float64bits(refResp[j]) != math.Float64bits(resp[j]) {
						t.Fatalf("%s workers=%d: resp[%d] %v != reference %v", label, workers, j, resp[j], refResp[j])
					}
				}
				// The feature-major entry point must agree too.
				mx := NewMatrix(len(specs), tc.n)
				for _, row := range x {
					mx.AppendRow(row)
				}
				model2, resp2, err := FitMatrix(mx, specs, o)
				if err != nil {
					t.Fatal(err)
				}
				modelsBitIdentical(t, tc.name+"/FitMatrix", ref, model2)
				for j := range refResp {
					if math.Float64bits(refResp[j]) != math.Float64bits(resp2[j]) {
						t.Fatalf("FitMatrix workers=%d: resp[%d] %v != reference %v", workers, j, resp2[j], refResp[j])
					}
				}
			}
		})
	}
}

// TestScorerMatchesLogOdds: the compiled Scorer is bit-identical to the
// interpreted LogOdds on every family and input geometry, via both the
// γ-slice and the matrix-row entry points.
func TestScorerMatchesLogOdds(t *testing.T) {
	specs := fourFamilySpecs()
	rng := rand.New(rand.NewSource(11))
	x := randomMatrix(rng, 600, specs)
	model, _, err := Fit(x, specs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	scorer := model.Scorer()
	probe := randomMatrix(rng, 500, specs)
	probe = append(probe,
		[]float64{0, 0, 0, 0},            // zero atoms, first bin
		[]float64{-1, -1, -1, 0},         // negative clamps
		[]float64{5, 9, 99, 7},           // overflow bin, heavy tails
		[]float64{0.05, 0.2, 0.5, 1e-13}, // on bin edges, sub-epsilon ZIE
	)
	mx := NewMatrix(len(specs), len(probe))
	for _, g := range probe {
		mx.AppendRow(g)
	}
	for j, g := range probe {
		want := model.LogOdds(g)
		if got := scorer.Score(g); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Score(%v)=%v, LogOdds=%v (bits differ)", g, got, want)
		}
		if got := scorer.ScoreRow(mx, j); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ScoreRow(row %d)=%v, LogOdds=%v (bits differ)", j, got, want)
		}
	}
}

func TestScorerPanicsOnWrongArity(t *testing.T) {
	x, _ := synthMixture(100, 0.5, 1)
	model, _, _ := Fit(x, twoSpecs(), DefaultOptions())
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-arity Scorer.Score did not panic")
		}
	}()
	model.Scorer().Score([]float64{1})
}

// TestAllocsEMIteration pins the steady-state allocation behavior of
// the columnar engine: after newFitState, EM iterations allocate
// NOTHING — no per-iteration component slices, bin searches, counts
// buffers, or closure headers. (The serial engine is the contract;
// worker pools add bounded goroutine-spawn allocations per parallel
// section, not per sample.)
func TestAllocsEMIteration(t *testing.T) {
	specs := fourFamilySpecs()
	rng := rand.New(rand.NewSource(99))
	x := randomMatrix(rng, 3000, specs)
	mx := NewMatrix(len(specs), len(x))
	for _, row := range x {
		mx.AppendRow(row)
	}
	st, err := newFitState(mx, specs, DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		st.iterate()
	})
	if avg != 0 {
		t.Fatalf("EM iteration allocates %.1f objects/iter, want 0", avg)
	}
}

// TestErrBadSample: NaN/Inf observations surface as the typed
// ErrBadSample with the poisoned cell's coordinates, from both entry
// points.
func TestErrBadSample(t *testing.T) {
	specs := twoSpecs()
	x := [][]float64{{1, 0.5}, {0.2, math.Inf(1)}}
	_, _, err := Fit(x, specs, DefaultOptions())
	var bad ErrBadSample
	if !errors.As(err, &bad) {
		t.Fatalf("Fit(Inf) err=%v, want ErrBadSample", err)
	}
	if bad.Row != 1 || bad.Col != 1 || !math.IsInf(bad.Value, 1) {
		t.Fatalf("ErrBadSample=%+v, want Row=1 Col=1 Value=+Inf", bad)
	}
	mx := NewMatrix(2, 2)
	mx.AppendRow([]float64{1, 0.5})
	mx.AppendRow([]float64{math.NaN(), 0.5})
	_, _, err = FitMatrix(mx, specs, DefaultOptions())
	if !errors.As(err, &bad) {
		t.Fatalf("FitMatrix(NaN) err=%v, want ErrBadSample", err)
	}
	if bad.Row != 1 || bad.Col != 0 {
		t.Fatalf("ErrBadSample=%+v, want Row=1 Col=0", bad)
	}
}
