package eval

// Streaming clustering evaluation over name blocks.
//
// The labeled accuracy scenario scores corpora two orders of magnitude
// beyond the quick corpus, so the metrics layer must stream: one name
// block at a time, O(instances + cells) work per block, no O(n²) pair
// materialization, and no per-block allocation in steady state (the
// contingency scratch is reused across blocks).
//
// Every metric is derived from one per-block contingency table
// n_ct = |instances in predicted cluster c with ground-truth author t|,
// built over LABELED instances only. Instances with Truth < 0 (e.g.
// bib.UnknownAuthor slots of partially labeled corpora) carry no
// ground-truth signal; they are excluded from every metric — counted in
// Unlabeled, never zero-scored — so mixing unlabeled papers into a
// corpus can never move a score.
//
// In this system a predicted cluster is a network vertex (one name) and
// a ground-truth author has one name, so neither clusters nor truth
// identities ever span name blocks: per-block accumulation of the
// pairwise, B³ and purity sums is exact, not an approximation.

// cellKey is one (predicted cluster, truth author) contingency cell.
type cellKey struct{ c, t int }

// Accumulator folds name blocks into pairwise, B³ and purity sums.
// The zero value is ready to use. Not safe for concurrent use; shard
// accumulators and Merge them instead.
type Accumulator struct {
	// Pairs holds the pairwise confusion counts (labeled instances only).
	Pairs PairCounts
	// Unlabeled counts instances excluded for missing ground truth.
	Unlabeled int64

	instances int64   // labeled instances folded in
	blocks    int64   // blocks with ≥1 labeled instance
	b3p, b3r  float64 // Σ per-instance B³ precision / recall
	purity    int64   // Σ_blocks Σ_c max_t n_ct

	// Reused per-block scratch (cleared, not reallocated, between blocks).
	cells     map[cellKey]int64
	byCluster map[int]int64
	byTruth   map[int]int64
}

// AddBlock folds one name block of instances into the accumulator.
// Instances with Truth < 0 are excluded (counted in Unlabeled).
func (a *Accumulator) AddBlock(instances []Instance) {
	if a.cells == nil {
		a.cells = make(map[cellKey]int64)
		a.byCluster = make(map[int]int64)
		a.byTruth = make(map[int]int64)
	} else {
		clear(a.cells)
		clear(a.byCluster)
		clear(a.byTruth)
	}
	var n int64
	for _, in := range instances {
		if in.Truth < 0 {
			a.Unlabeled++
			continue
		}
		a.cells[cellKey{in.Cluster, in.Truth}]++
		a.byCluster[in.Cluster]++
		a.byTruth[in.Truth]++
		n++
	}
	if n == 0 {
		return
	}
	a.instances += n
	a.blocks++

	// Pairwise: the cell-counting identity of PairCounts.AddName, off the
	// shared contingency table.
	var tp, samePred, sameTruth int64
	for key, k := range a.cells {
		tp += choose2(k)
		// B³ per-instance sums: every instance of cell (c,t) has
		// precision n_ct/n_c and recall n_ct/n_t, so the cell contributes
		// n_ct²/n_c and n_ct²/n_t.
		a.b3p += float64(k*k) / float64(a.byCluster[key.c])
		a.b3r += float64(k*k) / float64(a.byTruth[key.t])
	}
	for _, k := range a.byCluster {
		samePred += choose2(k)
	}
	for _, k := range a.byTruth {
		sameTruth += choose2(k)
	}
	total := choose2(n)
	a.Pairs.TP += tp
	a.Pairs.FP += samePred - tp
	a.Pairs.FN += sameTruth - tp
	a.Pairs.TN += total - samePred - sameTruth + tp

	// Purity: majority truth per predicted cluster. max over t of n_ct
	// needs a per-cluster max; reuse byCluster's key set by scanning
	// cells (each cluster's max is the largest of its cells).
	for c := range a.byCluster {
		a.byCluster[c] = 0 // repurpose as per-cluster running max
	}
	for key, k := range a.cells {
		if k > a.byCluster[key.c] {
			a.byCluster[key.c] = k
		}
	}
	for _, m := range a.byCluster {
		a.purity += m
	}
}

// ClusterMetrics bundles every clustering measurement of one evaluation:
// the pairwise micro metrics of §VI-A2 plus B³ and cluster purity.
type ClusterMetrics struct {
	// Pairwise holds MicroA/P/R/F over instance pairs.
	Pairwise Metrics `json:"pairwise"`
	// B3P/B3R/B3F are the B-cubed per-instance precision/recall/F1.
	B3P float64 `json:"b3_precision"`
	B3R float64 `json:"b3_recall"`
	B3F float64 `json:"b3_f1"`
	// Purity is Σ_c max_t n_ct / N: the fraction of instances sitting in
	// the majority-truth class of their predicted cluster.
	Purity float64 `json:"purity"`
	// Instances/Blocks/Unlabeled describe evaluation coverage.
	Instances int64 `json:"instances"`
	Blocks    int64 `json:"blocks"`
	Unlabeled int64 `json:"unlabeled_excluded"`
}

// Metrics converts the accumulated sums into ClusterMetrics. Empty
// denominators yield 0, mirroring PairCounts.Metrics.
func (a *Accumulator) Metrics() ClusterMetrics {
	m := ClusterMetrics{
		Pairwise:  a.Pairs.Metrics(),
		Instances: a.instances,
		Blocks:    a.blocks,
		Unlabeled: a.Unlabeled,
	}
	if a.instances > 0 {
		m.B3P = a.b3p / float64(a.instances)
		m.B3R = a.b3r / float64(a.instances)
		m.Purity = float64(a.purity) / float64(a.instances)
	}
	if pr := m.B3P + m.B3R; pr > 0 {
		m.B3F = 2 * m.B3P * m.B3R / pr
	}
	return m
}
