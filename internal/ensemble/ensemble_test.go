package ensemble

import (
	"math"
	"math/rand"
	"testing"
)

// xorData is linearly inseparable; trees must carve it.
func xorData(n int, seed int64) (x [][]float64, y []bool) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b, rng.Float64()}) // third feature is noise
		y = append(y, (a > 0.5) != (b > 0.5))
	}
	return x, y
}

// diagonalData is separated by x0+x1 > 1 with label noise.
func diagonalData(n int, noise float64, seed int64) (x [][]float64, y []bool) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		lbl := a+b > 1
		if rng.Float64() < noise {
			lbl = !lbl
		}
		x = append(x, []float64{a, b})
		y = append(y, lbl)
	}
	return x, y
}

func accuracy(c Classifier, x [][]float64, y []bool) float64 {
	correct := 0
	for i := range x {
		if Predict(c, x[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

func TestTreeLearnsXOR(t *testing.T) {
	// Greedy Gini needs a reasonable sample to escape sliver splits on
	// uniform XOR; 1200 points suffice deterministically.
	x, y := xorData(1200, 1)
	tree := TrainTree(x, y, nil, TreeConfig{MaxDepth: 6, MinsamplesSplit: 4})
	tx, ty := xorData(300, 2)
	if acc := accuracy(tree, tx, ty); acc < 0.9 {
		t.Fatalf("tree XOR accuracy=%.3f, want ≥0.9", acc)
	}
	if tree.Depth() < 2 {
		t.Fatalf("XOR needs depth ≥2, got %d", tree.Depth())
	}
}

func TestStumpCannotLearnXOR(t *testing.T) {
	x, y := xorData(600, 3)
	stump := TrainTree(x, y, nil, TreeConfig{MaxDepth: 1, MinsamplesSplit: 2})
	if acc := accuracy(stump, x, y); acc > 0.72 {
		t.Fatalf("depth-1 stump accuracy=%.3f on XOR; depth limiting broken", acc)
	}
}

func TestTreeRespectsWeights(t *testing.T) {
	// Same point set; weights flip which class dominates a region.
	x := [][]float64{{0}, {0}, {0}, {1}}
	y := []bool{true, false, false, true}
	heavyTrue := TrainTree(x, y, []float64{10, 1, 1, 1}, TreeConfig{MaxDepth: 6, MinsamplesSplit: 4})
	if !Predict(heavyTrue, []float64{0}) {
		t.Fatal("weighted-true sample ignored")
	}
	heavyFalse := TrainTree(x, y, []float64{1, 10, 10, 1}, TreeConfig{MaxDepth: 6, MinsamplesSplit: 4})
	if Predict(heavyFalse, []float64{0}) {
		t.Fatal("weighted-false samples ignored")
	}
}

func TestTreeEmptyTraining(t *testing.T) {
	tree := TrainTree(nil, nil, nil, TreeConfig{MaxDepth: 6, MinsamplesSplit: 4})
	if p := tree.PredictProb([]float64{1, 2}); p != 0.5 {
		t.Fatalf("empty-tree prob=%v", p)
	}
}

func TestForestBeatsNoise(t *testing.T) {
	x, y := diagonalData(800, 0.1, 5)
	forest := TrainForest(x, y, ForestConfig{Trees: 40, MaxDepth: 6, Seed: 1})
	tx, ty := diagonalData(400, 0, 6)
	if acc := accuracy(forest, tx, ty); acc < 0.9 {
		t.Fatalf("forest accuracy=%.3f, want ≥0.9", acc)
	}
}

func TestForestProbabilitiesBounded(t *testing.T) {
	x, y := diagonalData(200, 0.2, 7)
	forest := TrainForest(x, y, ForestConfig{Trees: 15, MaxDepth: 4, Seed: 2})
	for _, xi := range x {
		p := forest.PredictProb(xi)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("prob=%v", p)
		}
	}
}

func TestAdaBoostLearnsXOR(t *testing.T) {
	x, y := xorData(1200, 8)
	// Stumps alone cannot express XOR; depth-2 weak learners can.
	ab := TrainAdaBoost(x, y, AdaConfig{Rounds: 60, StumpDepth: 2})
	tx, ty := xorData(300, 9)
	if acc := accuracy(ab, tx, ty); acc < 0.85 {
		t.Fatalf("adaboost accuracy=%.3f, want ≥0.85", acc)
	}
}

func TestAdaBoostDiagonal(t *testing.T) {
	x, y := diagonalData(600, 0.05, 10)
	ab := TrainAdaBoost(x, y, AdaConfig{Rounds: 80, StumpDepth: 1})
	tx, ty := diagonalData(300, 0, 11)
	if acc := accuracy(ab, tx, ty); acc < 0.88 {
		t.Fatalf("adaboost stumps accuracy=%.3f, want ≥0.88", acc)
	}
}

func TestGBDTAndXGBLearnXOR(t *testing.T) {
	x, y := xorData(1200, 12)
	tx, ty := xorData(300, 13)
	gbdt := TrainBoost(x, y, DefaultGBDTConfig())
	if acc := accuracy(gbdt, tx, ty); acc < 0.9 {
		t.Fatalf("gbdt accuracy=%.3f, want ≥0.9", acc)
	}
	xgb := TrainBoost(x, y, DefaultXGBConfig())
	if acc := accuracy(xgb, tx, ty); acc < 0.9 {
		t.Fatalf("xgb accuracy=%.3f, want ≥0.9", acc)
	}
}

func TestBoostProbabilitiesCalibratedDirection(t *testing.T) {
	x, y := diagonalData(800, 0.05, 14)
	gb := TrainBoost(x, y, DefaultXGBConfig())
	lo := gb.PredictProb([]float64{0.05, 0.05})
	hi := gb.PredictProb([]float64{0.95, 0.95})
	if !(lo < 0.5 && hi > 0.5 && hi > lo) {
		t.Fatalf("probabilities not ordered: lo=%.3f hi=%.3f", lo, hi)
	}
}

func TestBoostEmptyAndDegenerate(t *testing.T) {
	gb := TrainBoost(nil, nil, DefaultGBDTConfig())
	if p := gb.PredictProb([]float64{1}); p != 0.5 {
		t.Fatalf("empty boost prob=%v", p)
	}
	// Single-class training: probability stays at that side.
	x := [][]float64{{1}, {2}, {3}}
	y := []bool{true, true, true}
	gb = TrainBoost(x, y, DefaultGBDTConfig())
	if p := gb.PredictProb([]float64{2}); p < 0.9 {
		t.Fatalf("all-positive boost prob=%v", p)
	}
}

func TestAdaBoostPerfectLearnerStops(t *testing.T) {
	// Trivially separable data: the first stump is perfect.
	x := [][]float64{{0}, {0.1}, {0.9}, {1}}
	y := []bool{false, false, true, true}
	ab := TrainAdaBoost(x, y, AdaConfig{Rounds: 80, StumpDepth: 1})
	if len(ab.stumps) != 1 {
		t.Fatalf("stumps=%d, want 1 (perfect learner early-stop)", len(ab.stumps))
	}
	if acc := accuracy(ab, x, y); acc != 1 {
		t.Fatalf("accuracy=%v", acc)
	}
}
