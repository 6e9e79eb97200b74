package emfit

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzEMFit decodes arbitrary bytes into a training matrix — raw
// float64 bit patterns, so NaNs, ±Inf, subnormals, and negative zeros
// all appear — plus a ragged/empty-shape nibble, and asserts the
// engine's failure contract: malformed input always yields a typed
// error (ErrNoData, ErrBadSample, or a shape error), never a panic; and
// any successful fit yields finite parameters and responsibilities in
// [0,1] — no poisoned model escapes.
func FuzzEMFit(f *testing.F) {
	// Seeds: clean data in every family, a NaN cell, an Inf cell, a
	// ragged row, and an empty matrix.
	clean := make([]byte, 1+4*8*3)
	clean[0] = 3 // 3 rows
	for i := 0; i < 12; i++ {
		binary.LittleEndian.PutUint64(clean[1+8*i:], math.Float64bits(float64(i)/7))
	}
	f.Add(clean)
	nan := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint64(nan[1+8*5:], math.Float64bits(math.NaN()))
	f.Add(nan)
	inf := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint64(inf[1+8*2:], math.Float64bits(math.Inf(-1)))
	f.Add(inf)
	f.Add([]byte{2, 1, 2, 3}) // ragged tail
	f.Add([]byte{0})          // zero rows
	f.Add([]byte{})           // nothing at all

	specs := []FeatureSpec{
		{Name: "g", Family: Gaussian},
		{Name: "e", Family: Exponential},
		{Name: "m", Family: Multinomial, Bins: []float64{0.1, 0.5, 2}},
		{Name: "z", Family: ZeroInflatedExponential},
	}
	m := len(specs)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode: first byte = row count (mod 64), then float64 cells
		// row-major; missing bytes make the final row ragged on purpose.
		var x [][]float64
		if len(data) > 0 {
			n := int(data[0]) % 64
			data = data[1:]
			for j := 0; j < n; j++ {
				row := make([]float64, 0, m)
				for i := 0; i < m && len(data) >= 8; i++ {
					row = append(row, math.Float64frombits(binary.LittleEndian.Uint64(data)))
					data = data[8:]
				}
				x = append(x, row)
			}
		}
		opts := DefaultOptions()
		opts.MaxIter = 8 // keep the fuzz loop fast; convergence is pinned elsewhere
		model, resp, err := Fit(x, specs, opts)
		if err != nil {
			// Every failure must be a typed/deliberate error, and the
			// bad-cell report must point at a real bad cell.
			var bad ErrBadSample
			if errors.As(err, &bad) {
				if bad.Row < 0 || bad.Row >= len(x) || bad.Col < 0 || bad.Col >= m {
					t.Fatalf("ErrBadSample out of range: %+v", bad)
				}
				if v := x[bad.Row][bad.Col]; !badSample(v) {
					t.Fatalf("ErrBadSample points at usable cell %v: %+v", v, bad)
				}
			}
			return
		}
		if math.IsNaN(model.P) || model.P <= 0 || model.P >= 1 {
			t.Fatalf("poisoned mixing weight %v", model.P)
		}
		if math.IsNaN(model.LogLikelihood) {
			t.Fatalf("NaN log-likelihood")
		}
		for j, r := range resp {
			if math.IsNaN(r) || r < 0 || r > 1 {
				t.Fatalf("poisoned responsibility resp[%d]=%v", j, r)
			}
		}
		for i := range specs {
			if math.IsNaN(model.MatchedMean(i)) || math.IsNaN(model.UnmatchedMean(i)) {
				t.Fatalf("poisoned fitted mean for feature %d", i)
			}
		}
		// A fitted model must also score cleanly through both paths.
		g := make([]float64, m)
		for i := range g {
			g[i] = 0.25
		}
		if s := model.LogOdds(g); math.IsNaN(s) {
			t.Fatal("NaN LogOdds from fitted model")
		}
		if s := model.Scorer().Score(g); math.IsNaN(s) {
			t.Fatal("NaN compiled score from fitted model")
		}
	})
}
