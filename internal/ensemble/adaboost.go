package ensemble

import "math"

// AdaConfig tunes AdaBoost.
type AdaConfig struct {
	Rounds int
	// StumpDepth is the depth of each weak learner (1 = decision stump).
	StumpDepth int
}

// AdaBoost is the discrete AdaBoost ensemble (Freund & Schapire 1997).
type AdaBoost struct {
	stumps []*Tree
	alphas []float64
}

// TrainAdaBoost fits weighted weak learners, reweighting misclassified
// samples each round.
func TrainAdaBoost(x [][]float64, y []bool, cfg AdaConfig) *AdaBoost {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 80
	}
	if cfg.StumpDepth <= 0 {
		cfg.StumpDepth = 1
	}
	n := len(x)
	ab := &AdaBoost{}
	if n == 0 {
		return ab
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	for round := 0; round < cfg.Rounds; round++ {
		stump := TrainTree(x, y, w, TreeConfig{MaxDepth: cfg.StumpDepth, MinsamplesSplit: 2})
		var err float64
		for i := range x {
			if Predict(stump, x[i]) != y[i] {
				err += w[i]
			}
		}
		if err >= 0.5 {
			break // weak learner no better than chance
		}
		if err < 1e-10 {
			// Perfect learner: take it with a large finite vote and stop.
			ab.stumps = append(ab.stumps, stump)
			ab.alphas = append(ab.alphas, 12)
			break
		}
		alpha := 0.5 * math.Log((1-err)/err)
		ab.stumps = append(ab.stumps, stump)
		ab.alphas = append(ab.alphas, alpha)
		var sum float64
		for i := range x {
			agree := Predict(stump, x[i]) == y[i]
			if agree {
				w[i] *= math.Exp(-alpha)
			} else {
				w[i] *= math.Exp(alpha)
			}
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	return ab
}

// PredictProb squashes the weighted-vote margin through a logistic link.
func (ab *AdaBoost) PredictProb(x []float64) float64 {
	if len(ab.stumps) == 0 {
		return 0.5
	}
	margin := 0.0
	for k, s := range ab.stumps {
		if Predict(s, x) {
			margin += ab.alphas[k]
		} else {
			margin -= ab.alphas[k]
		}
	}
	return sigmoid(2 * margin)
}
