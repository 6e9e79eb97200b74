package ensemble

import "math/rand"

// ForestConfig tunes a Random Forest.
type ForestConfig struct {
	Trees         int
	MaxDepth      int
	FeatureSubset int // features per tree (random subspace); 0 = sqrt(d)
	Seed          int64
}

// Forest is a bagged ensemble of decision trees (Breiman 2001).
type Forest struct {
	trees []*Tree
}

// TrainForest fits a Random Forest with bootstrap resampling and
// per-tree random feature subspaces.
func TrainForest(x [][]float64, y []bool, cfg ForestConfig) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 60
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 8
	}
	dims := 0
	if len(x) > 0 {
		dims = len(x[0])
	}
	sub := cfg.FeatureSubset
	if sub <= 0 && dims > 0 {
		sub = isqrt(dims)
		if sub < 1 {
			sub = 1
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{}
	n := len(x)
	for t := 0; t < cfg.Trees; t++ {
		// Bootstrap sample expressed as per-sample weights so ties keep
		// memory flat.
		w := make([]float64, n)
		for k := 0; k < n; k++ {
			w[rng.Intn(n)]++
		}
		var bx [][]float64
		var by []bool
		var bw []float64
		for i, wi := range w {
			if wi > 0 {
				bx = append(bx, x[i])
				by = append(by, y[i])
				bw = append(bw, wi)
			}
		}
		tcfg := TreeConfig{
			MaxDepth:        cfg.MaxDepth,
			MinsamplesSplit: 4,
			FeatureSubset:   sub,
			Seed:            rng.Int63(),
		}
		f.trees = append(f.trees, TrainTree(bx, by, bw, tcfg))
	}
	return f
}

// PredictProb averages the member trees' leaf probabilities.
func (f *Forest) PredictProb(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0.5
	}
	sum := 0.0
	for _, t := range f.trees {
		sum += t.PredictProb(x)
	}
	return sum / float64(len(f.trees))
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
