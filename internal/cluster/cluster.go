// Package cluster implements the clustering algorithms the baseline
// disambiguators rely on: hierarchical agglomerative clustering (ANON
// [22], Aminer [33]), a simplified HDBSCAN (NetE [23]), and
// affinity propagation (NetE, GHOST [27]).
//
// All algorithms operate on an abstract pairwise distance (or similarity)
// function over item indexes 0..n-1 and return flat integer labels.
// HDBSCAN noise points receive their own singleton labels, since
// author disambiguation must assign every paper to somebody.
//
// HDBSCAN here is the standard "mutual-reachability single-linkage MST"
// core with flat extraction by cutting edges longer than a multiple of
// the median MST edge length and discarding clusters below
// MinClusterSize — a documented simplification of the condensed-tree
// stability extraction (DESIGN.md, substitution 4).
package cluster

import (
	"math"
	"sort"

	"iuad/internal/sched"
)

// DistFunc returns the distance between items i and j; it must be
// symmetric and non-negative.
type DistFunc func(i, j int) float64

// optWorkers resolves an optional trailing workers argument: absent or
// ≤ 1 means serial.
func optWorkers(workers []int) int {
	if len(workers) == 0 || workers[0] <= 1 {
		return 1
	}
	return workers[0]
}

// distanceMatrix fills the full n×n distance matrix, fanning rows out to
// the pool when workers > 1. Each entry is written exactly once at a
// fixed position, so the matrix is identical for every worker count.
func distanceMatrix(n int, dist DistFunc, workers int) [][]float64 {
	d := make([][]float64, n)
	sched.ForEach(workers, n, func(i int) {
		d[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i != j {
				d[i][j] = dist(i, j)
			}
		}
	})
	return d
}

// Linkage selects the HAC merge criterion.
type Linkage int

const (
	// AverageLinkage merges by mean inter-cluster distance (UPGMA).
	AverageLinkage Linkage = iota
	// SingleLinkage merges by minimum inter-cluster distance.
	SingleLinkage
	// CompleteLinkage merges by maximum inter-cluster distance.
	CompleteLinkage
)

// HAC runs bottom-up agglomerative clustering over n items, merging while
// the linkage distance is ≤ threshold, and returns dense cluster labels.
// With threshold < 0 nothing merges.
//
// The implementation is the O(n³) textbook algorithm over an explicit
// distance matrix — ample for per-name candidate sets (tens to a few
// hundred papers), which is how every caller in this repository uses it.
//
// The optional workers argument parallelizes the O(n²) distance-matrix
// fill (rows are independent; labels are unaffected by the worker
// count). dist must then be safe for concurrent calls — true for the
// precomputed-vector distances the baselines use. Omitted or ≤ 1 keeps
// the fill serial.
func HAC(n int, dist DistFunc, linkage Linkage, threshold float64, workers ...int) []int {
	if n == 0 {
		return nil
	}
	// active cluster members.
	members := make([][]int, n)
	for i := range members {
		members[i] = []int{i}
	}
	d := distanceMatrix(n, dist, optWorkers(workers))
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	linkDist := func(a, b []int) float64 {
		switch linkage {
		case SingleLinkage:
			best := math.Inf(1)
			for _, x := range a {
				for _, y := range b {
					if d[x][y] < best {
						best = d[x][y]
					}
				}
			}
			return best
		case CompleteLinkage:
			worst := 0.0
			for _, x := range a {
				for _, y := range b {
					if d[x][y] > worst {
						worst = d[x][y]
					}
				}
			}
			return worst
		default: // AverageLinkage
			sum := 0.0
			for _, x := range a {
				for _, y := range b {
					sum += d[x][y]
				}
			}
			return sum / float64(len(a)*len(b))
		}
	}
	for {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if ld := linkDist(members[i], members[j]); ld < best {
					best, bi, bj = ld, i, j
				}
			}
		}
		if bi < 0 || best > threshold {
			break
		}
		members[bi] = append(members[bi], members[bj]...)
		active[bj] = false
	}
	labels := make([]int, n)
	next := 0
	for i := 0; i < n; i++ {
		if !active[i] {
			continue
		}
		for _, x := range members[i] {
			labels[x] = next
		}
		next++
	}
	return labels
}

// HDBSCANConfig tunes HDBSCAN.
type HDBSCANConfig struct {
	// MinPts is the core-distance neighborhood size (k-th nearest).
	MinPts int
	// MinClusterSize discards smaller clusters as noise.
	MinClusterSize int
	// CutRatio > 1: MST edges longer than CutRatio × median(edge length)
	// are removed before component extraction. Defaults to 3.
	CutRatio float64
	// Workers parallelizes the O(n²) core-distance computation (≤ 1 =
	// serial). dist must then be safe for concurrent calls. Labels are
	// unaffected by the worker count.
	Workers int
}

// HDBSCAN clusters by single linkage over the mutual-reachability
// distance. See the package comment for the simplification relative to
// full condensed-tree HDBSCAN.
func HDBSCAN(n int, dist DistFunc, cfg HDBSCANConfig) []int {
	if n == 0 {
		return nil
	}
	if cfg.MinPts < 1 {
		cfg.MinPts = 4
	}
	if cfg.MinClusterSize < 1 {
		cfg.MinClusterSize = 2
	}
	if cfg.CutRatio <= 1 {
		cfg.CutRatio = 3
	}
	// Core distance: distance to the MinPts-th nearest other point.
	// Rows are independent, so the scan fans out in contiguous chunks
	// (one reused buffer per chunk — the serial path keeps the single
	// buffer of old) when Workers > 1.
	workers := cfg.Workers
	if workers <= 1 {
		workers = 1
	}
	core := make([]float64, n)
	chunks := sched.Chunks(workers, n)
	sched.ForEach(workers, len(chunks), func(c int) {
		buf := make([]float64, 0, n-1)
		for i := chunks[c][0]; i < chunks[c][1]; i++ {
			buf = buf[:0]
			for j := 0; j < n; j++ {
				if j != i {
					buf = append(buf, dist(i, j))
				}
			}
			sort.Float64s(buf)
			k := cfg.MinPts - 1
			if k >= len(buf) {
				k = len(buf) - 1
			}
			if k < 0 {
				core[i] = 0
			} else {
				core[i] = buf[k]
			}
		}
	})
	mreach := func(i, j int) float64 {
		return math.Max(dist(i, j), math.Max(core[i], core[j]))
	}
	// Prim's MST over the mutual-reachability graph.
	type mstEdge struct {
		u, v int
		w    float64
	}
	inTree := make([]bool, n)
	bestW := make([]float64, n)
	bestFrom := make([]int, n)
	for i := range bestW {
		bestW[i] = math.Inf(1)
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		bestW[j] = mreach(0, j)
		bestFrom[j] = 0
	}
	edges := make([]mstEdge, 0, n-1)
	for len(edges) < n-1 {
		pick, pw := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if !inTree[j] && bestW[j] < pw {
				pick, pw = j, bestW[j]
			}
		}
		if pick < 0 {
			break
		}
		inTree[pick] = true
		edges = append(edges, mstEdge{bestFrom[pick], pick, pw})
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if w := mreach(pick, j); w < bestW[j] {
					bestW[j] = w
					bestFrom[j] = pick
				}
			}
		}
	}
	// Cut long edges at the configured quantile.
	if len(edges) == 0 {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		return labels
	}
	ws := make([]float64, len(edges))
	for i, e := range edges {
		ws[i] = e.w
	}
	sort.Float64s(ws)
	median := ws[len(ws)/2]
	cut := cfg.CutRatio * median
	if median == 0 {
		// All-identical points: keep every edge.
		cut = math.Inf(1)
	}
	uf := newUnionFind(n)
	for _, e := range edges {
		if e.w <= cut {
			uf.union(e.u, e.v)
		}
	}
	// Components below MinClusterSize become singletons.
	size := map[int]int{}
	for i := 0; i < n; i++ {
		size[uf.find(i)]++
	}
	labels := make([]int, n)
	remap := map[int]int{}
	next := 0
	for i := 0; i < n; i++ {
		root := uf.find(i)
		if size[root] < cfg.MinClusterSize {
			labels[i] = next
			next++
			continue
		}
		id, ok := remap[root]
		if !ok {
			id = next
			remap[root] = id
			next++
		}
		labels[i] = id
	}
	return labels
}

// unionFind is a standard disjoint-set forest.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
