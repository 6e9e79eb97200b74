package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// blobs returns points in well-separated 1-D groups and a DistFunc.
// Group g occupies [10g, 10g+1].
func blobs(perGroup, groups int, seed int64) ([]float64, DistFunc) {
	rng := rand.New(rand.NewSource(seed))
	var pts []float64
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			pts = append(pts, float64(10*g)+rng.Float64())
		}
	}
	return pts, func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) }
}

// sameClusters checks that labels agree with the expected group sizes.
func assertGroups(t *testing.T, labels []int, perGroup, groups int) {
	t.Helper()
	sizes := map[int]int{}
	for _, l := range labels {
		sizes[l]++
	}
	if len(sizes) != groups {
		t.Fatalf("got %d clusters, want %d (labels=%v)", len(sizes), groups, labels)
	}
	for l, s := range sizes {
		if s != perGroup {
			t.Fatalf("cluster %d size=%d, want %d", l, s, perGroup)
		}
	}
	// Within a group, all labels equal.
	for g := 0; g < groups; g++ {
		first := labels[g*perGroup]
		for i := 0; i < perGroup; i++ {
			if labels[g*perGroup+i] != first {
				t.Fatalf("group %d split: %v", g, labels)
			}
		}
	}
}

func TestHACSeparatesBlobs(t *testing.T) {
	for _, linkage := range []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage} {
		_, dist := blobs(5, 3, 1)
		labels := HAC(15, dist, linkage, 3.0)
		assertGroups(t, labels, 5, 3)
	}
}

func TestHACThresholdZeroKeepsSingletons(t *testing.T) {
	_, dist := blobs(4, 2, 2)
	labels := HAC(8, dist, AverageLinkage, -1)
	seen := map[int]bool{}
	for _, l := range labels {
		if seen[l] {
			t.Fatalf("negative threshold still merged: %v", labels)
		}
		seen[l] = true
	}
}

func TestHACMergesAllWithHugeThreshold(t *testing.T) {
	_, dist := blobs(3, 3, 3)
	labels := HAC(9, dist, CompleteLinkage, 1e9)
	for _, l := range labels {
		if l != labels[0] {
			t.Fatalf("huge threshold left multiple clusters: %v", labels)
		}
	}
}

func TestHACEmpty(t *testing.T) {
	if got := HAC(0, nil, AverageLinkage, 1); got != nil {
		t.Fatalf("HAC(0)=%v", got)
	}
}

func TestHACLinkageDifference(t *testing.T) {
	// Chain 0,1,2,...,9 spaced 1 apart: single linkage with threshold 1.5
	// merges the whole chain; complete linkage does not.
	pts := make([]float64, 10)
	for i := range pts {
		pts[i] = float64(i)
	}
	dist := func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) }
	single := HAC(10, dist, SingleLinkage, 1.5)
	complete := HAC(10, dist, CompleteLinkage, 1.5)
	nSingle, nComplete := countLabels(single), countLabels(complete)
	if nSingle != 1 {
		t.Fatalf("single linkage clusters=%d, want 1", nSingle)
	}
	if nComplete <= 1 {
		t.Fatalf("complete linkage merged the chain: %d clusters", nComplete)
	}
}

func countLabels(labels []int) int {
	set := map[int]struct{}{}
	for _, l := range labels {
		set[l] = struct{}{}
	}
	return len(set)
}

func TestHDBSCANSeparatesBlobs(t *testing.T) {
	_, dist := blobs(6, 3, 4)
	labels := HDBSCAN(18, dist, HDBSCANConfig{MinPts: 3, MinClusterSize: 3})
	assertGroups(t, labels, 6, 3)
}

func TestHDBSCANSmallClustersBecomeSingletons(t *testing.T) {
	// Two dense blobs of 5 plus a far pair: MinClusterSize 3 demotes the
	// pair to singletons.
	pts := []float64{0, 0.1, 0.2, 0.3, 0.4, 10, 10.1, 10.2, 10.3, 10.4, 100, 100.1}
	dist := func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) }
	labels := HDBSCAN(len(pts), dist, HDBSCANConfig{MinPts: 2, MinClusterSize: 3})
	if labels[10] == labels[11] {
		t.Fatalf("tiny cluster kept: %v", labels)
	}
	if labels[0] != labels[4] || labels[5] != labels[9] || labels[0] == labels[5] {
		t.Fatalf("blobs wrong: %v", labels)
	}
}

func TestHDBSCANDegenerate(t *testing.T) {
	if got := HDBSCAN(0, nil, HDBSCANConfig{}); got != nil {
		t.Fatalf("HDBSCAN(0)=%v", got)
	}
	one := HDBSCAN(1, func(i, j int) float64 { return 0 }, HDBSCANConfig{})
	if len(one) != 1 {
		t.Fatalf("HDBSCAN(1)=%v", one)
	}
}

func TestAffinityPropagationBlobs(t *testing.T) {
	pts, dist := blobs(5, 3, 5)
	n := len(pts)
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
		for j := range sim[i] {
			sim[i][j] = -dist(i, j) // similarity = negative distance
		}
	}
	labels := AffinityPropagation(sim, DefaultAPConfig())
	assertGroups(t, labels, 5, 3)
}

func TestAffinityPropagationDegenerate(t *testing.T) {
	if got := AffinityPropagation(nil, DefaultAPConfig()); got != nil {
		t.Fatalf("AP(0)=%v", got)
	}
	if got := AffinityPropagation([][]float64{{0}}, DefaultAPConfig()); len(got) != 1 || got[0] != 0 {
		t.Fatalf("AP(1)=%v", got)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	uf.union(0, 1)
	uf.union(3, 4)
	if uf.find(0) != uf.find(1) || uf.find(3) != uf.find(4) {
		t.Fatal("union failed")
	}
	if uf.find(0) == uf.find(3) || uf.find(2) == uf.find(0) {
		t.Fatal("separate sets merged")
	}
	uf.union(1, 3)
	if uf.find(0) != uf.find(4) {
		t.Fatal("transitive union failed")
	}
	uf.union(0, 4) // already joined; must not corrupt
	if uf.find(2) == uf.find(0) {
		t.Fatal("idempotent union corrupted state")
	}
}

// TestHACParallelMatchesSerial checks that the parallel distance-matrix
// fill leaves HAC labels untouched for every linkage.
func TestHACParallelMatchesSerial(t *testing.T) {
	for _, linkage := range []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage} {
		_, dist := blobs(6, 4, 3)
		serial := HAC(24, dist, linkage, 3.0)
		parallel := HAC(24, dist, linkage, 3.0, 8)
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("linkage %d: labels diverge at %d: %v vs %v",
					linkage, i, serial, parallel)
			}
		}
	}
}

// TestHDBSCANParallelMatchesSerial checks the pooled core-distance
// computation against the serial one.
func TestHDBSCANParallelMatchesSerial(t *testing.T) {
	_, dist := blobs(8, 3, 4)
	serial := HDBSCAN(24, dist, HDBSCANConfig{MinPts: 3, MinClusterSize: 3})
	parallel := HDBSCAN(24, dist, HDBSCANConfig{MinPts: 3, MinClusterSize: 3, Workers: 8})
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("labels diverge at %d: %v vs %v", i, serial, parallel)
		}
	}
}
