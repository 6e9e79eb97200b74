// Package ensemble implements the supervised learners of the paper's
// baseline comparison (§VI-A3) from scratch: CART-style decision trees,
// Random Forests, AdaBoost, and gradient-boosted trees in two flavors —
// first-order with Newton leaves (GBDT, Friedman 2001) and second-order
// regularized (the XGBoost objective, Chen & Guestrin 2016).
//
// All learners consume dense float feature vectors with binary labels
// and expose probability predictions through the Classifier interface.
package ensemble

import (
	"math"
	"math/rand"
	"sort"
)

// Classifier predicts P(y=1 | x).
type Classifier interface {
	PredictProb(x []float64) float64
}

// Predict returns the hard label at the 0.5 threshold.
func Predict(c Classifier, x []float64) bool { return c.PredictProb(x) >= 0.5 }

// TreeConfig tunes a single decision tree.
type TreeConfig struct {
	MaxDepth        int // levels below the root; 0 means a stump decision is still allowed at depth 1
	MinsamplesSplit int // don't split nodes smaller than this
	// FeatureSubset > 0 samples that many candidate features at every
	// node (the Random Forest rule); 0 considers all features.
	FeatureSubset int
	Seed          int64
}

// node is one tree node; leaves carry the positive-class probability.
type node struct {
	feature  int
	thresh   float64
	left     *node
	right    *node
	leafProb float64
	isLeaf   bool
}

// Tree is a weighted binary classification tree. For binary targets,
// weighted-variance splitting is equivalent to weighted Gini splitting
// (both reduce p(1−p)), so one builder serves CART classification,
// AdaBoost stumps, and Random Forest members.
type Tree struct {
	root *node
}

// grower carries the immutable training state through recursion.
type grower struct {
	x        [][]float64
	y        []bool
	w        []float64
	minSplit int
	subset   int // features sampled per node; 0 = all
	rng      *rand.Rand
	allFeats []int
}

// TrainTree fits a tree on samples X with binary labels y and optional
// sample weights w (nil = uniform).
func TrainTree(x [][]float64, y []bool, w []float64, cfg TreeConfig) *Tree {
	if len(x) == 0 {
		return &Tree{root: &node{isLeaf: true, leafProb: 0.5}}
	}
	if w == nil {
		w = make([]float64, len(x))
		for i := range w {
			w[i] = 1
		}
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 6
	}
	if cfg.MinsamplesSplit < 2 {
		cfg.MinsamplesSplit = 2
	}
	dims := len(x[0])
	allFeats := make([]int, dims)
	for i := range allFeats {
		allFeats[i] = i
	}
	g := &grower{
		x: x, y: y, w: w,
		minSplit: cfg.MinsamplesSplit,
		allFeats: allFeats,
	}
	if cfg.FeatureSubset > 0 && cfg.FeatureSubset < dims {
		g.subset = cfg.FeatureSubset
		g.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	return &Tree{root: g.grow(idx, cfg.MaxDepth)}
}

// nodeFeatures returns the candidate features for one node.
func (g *grower) nodeFeatures() []int {
	if g.subset == 0 {
		return g.allFeats
	}
	perm := g.rng.Perm(len(g.allFeats))[:g.subset]
	sort.Ints(perm)
	return perm
}

func (g *grower) grow(idx []int, depth int) *node {
	var sw, swPos float64
	for _, i := range idx {
		sw += g.w[i]
		if g.y[i] {
			swPos += g.w[i]
		}
	}
	prob := 0.5
	if sw > 0 {
		prob = swPos / sw
	}
	leaf := &node{isLeaf: true, leafProb: prob}
	if depth <= 0 || len(idx) < g.minSplit || prob == 0 || prob == 1 {
		return leaf
	}
	feature, thresh, gain := bestSplit(g.x, g.y, g.w, idx, g.nodeFeatures())
	if gain <= 1e-12 {
		return leaf
	}
	var li, ri []int
	for _, i := range idx {
		if g.x[i][feature] <= thresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return leaf
	}
	return &node{
		feature: feature,
		thresh:  thresh,
		left:    g.grow(li, depth-1),
		right:   g.grow(ri, depth-1),
	}
}

// bestSplit scans every candidate feature/threshold for the largest
// weighted impurity reduction.
func bestSplit(x [][]float64, y []bool, w []float64, idx, feats []int) (feature int, thresh, gain float64) {
	var totW, totPos float64
	for _, i := range idx {
		totW += w[i]
		if y[i] {
			totPos += w[i]
		}
	}
	parent := gini(totPos, totW)
	best := -1.0
	feature = -1

	type sample struct {
		v   float64
		w   float64
		pos float64
	}
	buf := make([]sample, 0, len(idx))
	for _, f := range feats {
		buf = buf[:0]
		for _, i := range idx {
			s := sample{v: x[i][f], w: w[i]}
			if y[i] {
				s.pos = w[i]
			}
			buf = append(buf, s)
		}
		sort.Slice(buf, func(a, b int) bool { return buf[a].v < buf[b].v })
		var lw, lpos float64
		for k := 0; k+1 < len(buf); k++ {
			lw += buf[k].w
			lpos += buf[k].pos
			if buf[k].v == buf[k+1].v {
				continue
			}
			rw := totW - lw
			rpos := totPos - lpos
			if lw <= 0 || rw <= 0 {
				continue
			}
			g := parent - (lw/totW)*gini(lpos, lw) - (rw/totW)*gini(rpos, rw)
			if g > best {
				best = g
				feature = f
				thresh = (buf[k].v + buf[k+1].v) / 2
			}
		}
	}
	return feature, thresh, best
}

// gini returns the weighted Gini impurity 2p(1−p) of a node.
func gini(pos, total float64) float64 {
	if total <= 0 {
		return 0
	}
	p := pos / total
	return 2 * p * (1 - p)
}

// PredictProb implements Classifier.
func (t *Tree) PredictProb(x []float64) float64 {
	n := t.root
	for !n.isLeaf {
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.leafProb
}

// Depth returns the maximum depth of the tree (leaves at the root = 0).
func (t *Tree) Depth() int { return depthOf(t.root) }

func depthOf(n *node) int {
	if n == nil || n.isLeaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func sigmoid(z float64) float64 {
	if z > 36 {
		return 1
	}
	if z < -36 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}
