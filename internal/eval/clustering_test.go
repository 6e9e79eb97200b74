package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestClusterMetricsTable drives the Accumulator through hand-computed
// clusterings, including every degenerate shape the streaming layer must
// survive: empty blocks, all-singletons, one-cluster, single instances,
// and unlabeled slots mixed with labeled ones.
func TestClusterMetricsTable(t *testing.T) {
	cases := []struct {
		name   string
		blocks [][]Instance
		want   ClusterMetrics
	}{
		{
			name: "perfect two clusters",
			blocks: [][]Instance{{
				{Cluster: 0, Truth: 10}, {Cluster: 0, Truth: 10},
				{Cluster: 1, Truth: 20}, {Cluster: 1, Truth: 20}, {Cluster: 1, Truth: 20},
			}},
			want: ClusterMetrics{
				Pairwise: Metrics{MicroA: 1, MicroP: 1, MicroR: 1, MicroF: 1},
				B3P:      1, B3R: 1, B3F: 1, Purity: 1,
				Instances: 5, Blocks: 1,
			},
		},
		{
			name: "all singletons, one true author",
			// Predicted apart, truly together: pairwise P undefined (0),
			// R=0. B³: precision 1 (each singleton cluster is pure),
			// recall 1/3 per instance. Purity 1 (singletons are pure).
			blocks: [][]Instance{{
				{Cluster: 0, Truth: 1}, {Cluster: 1, Truth: 1}, {Cluster: 2, Truth: 1},
			}},
			want: ClusterMetrics{
				Pairwise: Metrics{},
				B3P:      1, B3R: 1.0 / 3, B3F: 2 * 1 * (1.0 / 3) / (1 + 1.0/3),
				Purity:    1,
				Instances: 3, Blocks: 1,
			},
		},
		{
			name: "one cluster, three true authors",
			// Everything merged: pairwise P=0 (3 FP), R undefined → 0.
			// B³: precision 1/3 per instance, recall 1. Purity 1/3.
			blocks: [][]Instance{{
				{Cluster: 7, Truth: 1}, {Cluster: 7, Truth: 2}, {Cluster: 7, Truth: 3},
			}},
			want: ClusterMetrics{
				Pairwise: Metrics{},
				B3P:      1.0 / 3, B3R: 1, B3F: 2 * (1.0 / 3) * 1 / (1.0/3 + 1),
				Purity:    1.0 / 3,
				Instances: 3, Blocks: 1,
			},
		},
		{
			name: "known mixed 2x2",
			// Clusters {a,a,b,b}, truth {x,y,x,y}: TP=0 FP=2 FN=2 TN=2.
			// B³ per instance: own cell 1 of cluster size 2 → P=1/2; own
			// cell 1 of truth size 2 → R=1/2. Purity: max per cluster is
			// 1, so 2/4.
			blocks: [][]Instance{{
				{Cluster: 0, Truth: 1}, {Cluster: 0, Truth: 2},
				{Cluster: 1, Truth: 1}, {Cluster: 1, Truth: 2},
			}},
			want: ClusterMetrics{
				Pairwise: Metrics{MicroA: 1.0 / 3},
				B3P:      0.5, B3R: 0.5, B3F: 0.5, Purity: 0.5,
				Instances: 4, Blocks: 1,
			},
		},
		{
			name:   "empty block",
			blocks: [][]Instance{{}},
			want:   ClusterMetrics{},
		},
		{
			name:   "single instance",
			blocks: [][]Instance{{{Cluster: 3, Truth: 9}}},
			// One labeled instance: no pairs, but B³ and purity see a
			// perfectly pure singleton.
			want: ClusterMetrics{
				Pairwise: Metrics{},
				B3P:      1, B3R: 1, B3F: 1, Purity: 1,
				Instances: 1, Blocks: 1,
			},
		},
		{
			name: "unlabeled excluded not zero-scored",
			// The two unlabeled slots share cluster 0 with a labeled one;
			// if they were scored as truth "-1" they would manufacture FP
			// pairs. They must instead vanish: result identical to the
			// perfect 2-instance clustering.
			blocks: [][]Instance{{
				{Cluster: 0, Truth: 5}, {Cluster: 0, Truth: 5},
				{Cluster: 0, Truth: -1}, {Cluster: 9, Truth: -1},
			}},
			want: ClusterMetrics{
				Pairwise: Metrics{MicroA: 1, MicroP: 1, MicroR: 1, MicroF: 1},
				B3P:      1, B3R: 1, B3F: 1, Purity: 1,
				Instances: 2, Blocks: 1, Unlabeled: 2,
			},
		},
		{
			name: "all unlabeled block",
			blocks: [][]Instance{{
				{Cluster: 0, Truth: -1}, {Cluster: 1, Truth: -1},
			}},
			want: ClusterMetrics{Unlabeled: 2},
		},
		{
			name: "two blocks accumulate",
			blocks: [][]Instance{
				{{Cluster: 0, Truth: 1}, {Cluster: 0, Truth: 1}}, // 1 TP
				{{Cluster: 0, Truth: 1}, {Cluster: 1, Truth: 2}}, // 1 TN
			},
			want: ClusterMetrics{
				Pairwise: Metrics{MicroA: 1, MicroP: 1, MicroR: 1, MicroF: 1},
				B3P:      1, B3R: 1, B3F: 1, Purity: 1,
				Instances: 4, Blocks: 2,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var acc Accumulator
			for _, blk := range tc.blocks {
				acc.AddBlock(blk)
			}
			got := acc.Metrics()
			if got.Pairwise != tc.want.Pairwise {
				t.Errorf("pairwise=%+v want %+v", got.Pairwise, tc.want.Pairwise)
			}
			if !approx(got.B3P, tc.want.B3P) || !approx(got.B3R, tc.want.B3R) || !approx(got.B3F, tc.want.B3F) {
				t.Errorf("B3 P/R/F = %v/%v/%v want %v/%v/%v",
					got.B3P, got.B3R, got.B3F, tc.want.B3P, tc.want.B3R, tc.want.B3F)
			}
			if !approx(got.Purity, tc.want.Purity) {
				t.Errorf("purity=%v want %v", got.Purity, tc.want.Purity)
			}
			if got.Instances != tc.want.Instances || got.Blocks != tc.want.Blocks || got.Unlabeled != tc.want.Unlabeled {
				t.Errorf("coverage inst/blocks/unlabeled = %d/%d/%d want %d/%d/%d",
					got.Instances, got.Blocks, got.Unlabeled,
					tc.want.Instances, tc.want.Blocks, tc.want.Unlabeled)
			}
		})
	}
}

// bruteClusterMetrics recomputes B³ and purity instance by instance over
// labeled instances of one block.
func bruteClusterMetrics(blocks [][]Instance) (b3p, b3r, purity float64, n int64) {
	var psum, rsum float64
	var puritySum int64
	for _, blk := range blocks {
		var labeled []Instance
		for _, in := range blk {
			if in.Truth >= 0 {
				labeled = append(labeled, in)
			}
		}
		for _, a := range labeled {
			var cell, csize, tsize int64
			for _, b := range labeled {
				if b.Cluster == a.Cluster && b.Truth == a.Truth {
					cell++
				}
				if b.Cluster == a.Cluster {
					csize++
				}
				if b.Truth == a.Truth {
					tsize++
				}
			}
			psum += float64(cell) / float64(csize)
			rsum += float64(cell) / float64(tsize)
		}
		clusters := map[int]map[int]int64{}
		for _, in := range labeled {
			if clusters[in.Cluster] == nil {
				clusters[in.Cluster] = map[int]int64{}
			}
			clusters[in.Cluster][in.Truth]++
		}
		for _, byTruth := range clusters {
			var max int64
			for _, k := range byTruth {
				if k > max {
					max = k
				}
			}
			puritySum += max
		}
		n += int64(len(labeled))
	}
	if n == 0 {
		return 0, 0, 0, 0
	}
	return psum / float64(n), rsum / float64(n), float64(puritySum) / float64(n), n
}

// Property: the streaming cell sums agree with per-instance brute force,
// including pairwise counts (filtered brute force) and unlabeled mixing.
func TestAccumulatorMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blocks := make([][]Instance, 1+rng.Intn(4))
		var pairWant PairCounts
		for b := range blocks {
			n := rng.Intn(30)
			blk := make([]Instance, n)
			for i := range blk {
				blk[i] = Instance{Cluster: rng.Intn(5), Truth: rng.Intn(6) - 1} // -1 = unlabeled, mixed in
			}
			blocks[b] = blk
			// Pairwise pairs never cross blocks: brute-force each block's
			// labeled subset separately and sum.
			var labeled []Instance
			for _, in := range blk {
				if in.Truth >= 0 {
					labeled = append(labeled, in)
				}
			}
			bf := bruteForce(labeled)
			pairWant.TP += bf.TP
			pairWant.FP += bf.FP
			pairWant.FN += bf.FN
			pairWant.TN += bf.TN
		}
		var acc Accumulator
		for _, blk := range blocks {
			acc.AddBlock(blk)
		}
		if acc.Pairs != pairWant {
			return false
		}
		b3p, b3r, purity, n := bruteClusterMetrics(blocks)
		m := acc.Metrics()
		return approx(m.B3P, b3p) && approx(m.B3R, b3r) &&
			approx(m.Purity, purity) && m.Instances == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAccumulatorScratchReuse pins the streaming contract: folding many
// blocks through one accumulator allocates only the first block's
// scratch maps (the layer must not allocate per block at corpus scale).
func TestAccumulatorScratchReuse(t *testing.T) {
	var acc Accumulator
	blk := make([]Instance, 64)
	for i := range blk {
		blk[i] = Instance{Cluster: i % 7, Truth: i % 5}
	}
	acc.AddBlock(blk) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() { acc.AddBlock(blk) })
	if allocs > 1 { // map-internal rehash headroom; steady state is 0
		t.Fatalf("AddBlock allocates %.1f/op in steady state, want ~0", allocs)
	}
}

// TestAddNameExcludesUnlabeled locks the PairCounts-level exclusion in:
// unlabeled instances contribute no pairs at all.
func TestAddNameExcludesUnlabeled(t *testing.T) {
	var withUnlabeled, labeledOnly PairCounts
	withUnlabeled.AddName([]Instance{
		{Cluster: 0, Truth: 1}, {Cluster: 0, Truth: 1},
		{Cluster: 0, Truth: -1}, {Cluster: 1, Truth: -1}, {Cluster: 2, Truth: -1},
	})
	labeledOnly.AddName([]Instance{
		{Cluster: 0, Truth: 1}, {Cluster: 0, Truth: 1},
	})
	if withUnlabeled != labeledOnly {
		t.Fatalf("unlabeled slots moved pairwise counts: %+v vs %+v", withUnlabeled, labeledOnly)
	}
	// Two unlabeled + one labeled: fewer than 2 labeled instances → no
	// pairs, even though len(instances) ≥ 2.
	var pc PairCounts
	pc.AddName([]Instance{{Cluster: 0, Truth: 3}, {Cluster: 0, Truth: -1}, {Cluster: 0, Truth: -1}})
	if pc.Total() != 0 {
		t.Fatalf("pairs manufactured from unlabeled slots: %+v", pc)
	}
}
