package netstats

import (
	"sort"

	"iuad/internal/sched"
	"iuad/internal/stats"
)

// maxReportedSizes bounds the per-component / per-community size lists
// embedded in JSON-serialized stats: real collaboration networks have
// one giant component plus thousands of singletons, and the tail
// carries no information the count doesn't.
const maxReportedSizes = 32

// DegreeBucket is one point of the degree distribution: Count
// vertices have exactly Degree coauthors.
type DegreeBucket struct {
	Degree int `json:"degree"`
	Count  int `json:"count"`
}

// NetworkStats is the whole-graph topology summary served by
// Service.Network. All fields are computed at compile time from
// integer aggregates reduced in ascending vertex order, so they are
// byte-identical across runs and worker counts.
type NetworkStats struct {
	Epoch   uint64 `json:"epoch"`
	Authors int    `json:"authors"`
	Edges   int    `json:"edges"`
	// TotalWeight sums edge weights: coauthored (author, author, paper)
	// triples counted once per pair.
	TotalWeight int64   `json:"total_weight"`
	Density     float64 `json:"density"`
	Isolated    int     `json:"isolated"`

	Components               int     `json:"components"`
	LargestComponent         int     `json:"largest_component"`
	LargestComponentFraction float64 `json:"largest_component_fraction"`
	// ComponentSizes is descending, truncated to maxReportedSizes.
	ComponentSizes []int `json:"component_sizes"`

	// AvgClustering is the Watts–Strogatz average of per-vertex local
	// clustering coefficients over all vertices (degree < 2 counts 0).
	AvgClustering float64 `json:"avg_clustering"`
	Triangles     int64   `json:"triangles"`

	MaxDegree       int            `json:"max_degree"`
	DegreeHistogram []DegreeBucket `json:"degree_histogram"`
	// DegreeSlope is the least-squares log-log slope of the degree
	// distribution (degrees ≥ 1) — the scale-free shape check of
	// §IV-A; 0 when the fit is degenerate.
	DegreeSlope float64 `json:"degree_slope"`
}

// Clustering is one vertex's local clustering summary.
type Clustering struct {
	ID        int32 `json:"id"`
	Degree    int   `json:"degree"`
	Triangles int   `json:"triangles"`
	// Coefficient is 2·Triangles / (Degree·(Degree−1)); 0 for degree
	// < 2.
	Coefficient float64 `json:"coefficient"`
}

// Stats returns the precomputed whole-graph summary. The value is
// computed once during Compile, so repeat calls are a struct copy.
func (g *Graph) Stats() NetworkStats { return g.stats }

// ClusteringOf returns the local clustering summary of one vertex,
// reporting false for out-of-range IDs.
func (g *Graph) ClusteringOf(id int) (Clustering, bool) {
	if !g.Has(id) {
		return Clustering{}, false
	}
	tri := g.trianglesAt(id)
	c := Clustering{ID: int32(id), Degree: g.Degree(id), Triangles: tri}
	if c.Degree >= 2 {
		c.Coefficient = 2 * float64(tri) / float64(c.Degree*(c.Degree-1))
	}
	return c, true
}

// trianglesAt counts triangles through vertex id: each common neighbor
// of id and one of its neighbors closes one triangle, and the sum over
// neighbors counts every triangle twice.
func (g *Graph) trianglesAt(id int) int {
	row, _ := g.row(id)
	sum := 0
	for _, u := range row {
		urow, _ := g.row(int(u))
		sum += intersectCount(row, urow)
	}
	return sum / 2
}

func computeStats(g *Graph, workers int) NetworkStats {
	st := NetworkStats{
		Epoch:       g.epoch,
		Authors:     g.n,
		Edges:       g.edges,
		TotalWeight: g.weight,
	}
	if g.n >= 2 {
		st.Density = 2 * float64(g.edges) / (float64(g.n) * float64(g.n-1))
	}

	// Connected components: iterative DFS in ascending start order.
	comp := make([]int32, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var sizes []int
	var stack []int32
	for start := 0; start < g.n; start++ {
		if comp[start] >= 0 {
			continue
		}
		id := int32(len(sizes))
		size := 0
		stack = append(stack[:0], int32(start))
		comp[start] = id
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			row, _ := g.row(int(v))
			for _, u := range row {
				if comp[u] < 0 {
					comp[u] = id
					stack = append(stack, u)
				}
			}
		}
		sizes = append(sizes, size)
	}
	st.Components = len(sizes)
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if len(sizes) > 0 {
		st.LargestComponent = sizes[0]
		st.LargestComponentFraction = float64(sizes[0]) / float64(g.n)
	}
	if len(sizes) > maxReportedSizes {
		sizes = sizes[:maxReportedSizes]
	}
	st.ComponentSizes = sizes

	// Degree histogram + power-law slope; isolated = degree-0
	// vertices.
	hist := map[int]int{}
	fit := stats.NewHistogram(nil)
	for id := 0; id < g.n; id++ {
		d := g.Degree(id)
		hist[d]++
		fit.Add(d)
		if d == 0 {
			st.Isolated++
		}
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
	}
	degrees := make([]int, 0, len(hist))
	for d := range hist {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	st.DegreeHistogram = make([]DegreeBucket, len(degrees))
	for i, d := range degrees {
		st.DegreeHistogram[i] = DegreeBucket{Degree: d, Count: hist[d]}
	}
	if slope, _, err := fit.PowerLawFit(); err == nil {
		st.DegreeSlope = slope
	}

	// Average clustering: per-vertex coefficients fill disjoint slots
	// in parallel; the float sum reduces serially in ascending vertex
	// order so the result is bit-stable for every worker count.
	if g.n > 0 {
		coef := make([]float64, g.n)
		tris := make([]int64, g.n)
		sched.ForEach(workers, g.n, func(id int) {
			if g.Degree(id) < 2 {
				return
			}
			t := g.trianglesAt(id)
			tris[id] = int64(t)
			d := g.Degree(id)
			coef[id] = 2 * float64(t) / float64(d*(d-1))
		})
		sum := 0.0
		for id := 0; id < g.n; id++ {
			sum += coef[id]
			st.Triangles += tris[id]
		}
		st.Triangles /= 3 // each triangle counted at all three corners
		st.AvgClustering = sum / float64(g.n)
	}
	return st
}
