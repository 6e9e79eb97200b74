// Package graph implements the undirected-graph substrate used across the
// repository: sorted adjacency-slice storage with O(log d) edge tests,
// connected components, per-vertex triangle listing (the clique lists of
// §V-B1), bounded-radius ego subgraphs (for the Weisfeiler–Lehman kernel
// of γ¹), random walks (for DeepWalk-style baseline embeddings), and
// bounded path counts (for the GHOST baseline).
//
// Vertices are dense int indexes, so callers keep their own mapping from
// domain objects (authors, papers) to vertex IDs. Adjacency is stored as
// sorted int32 slices (CSR-style neighbor lists) rather than hash sets:
// collaboration networks have small degrees, so binary-search edge tests
// beat map lookups, neighbor iteration is allocation-free and always in
// ascending order, and a million-vertex network costs a few bytes per
// edge instead of a map header per vertex.
package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is a mutable undirected simple graph. Self-loops and parallel
// edges are rejected. The zero value is an empty graph.
type Graph struct {
	adj   [][]int32 // sorted ascending neighbor lists
	edges int
}

// New returns a graph with n initial vertices (0..n-1).
func New(n int) *Graph {
	g := &Graph{adj: make([][]int32, n)}
	return g
}

// AddVertex appends a vertex and returns its ID.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.edges }

// insertSorted inserts x into the sorted list, reporting whether it was
// absent.
func insertSorted(list []int32, x int32) ([]int32, bool) {
	i := sort.Search(len(list), func(k int) bool { return list[k] >= x })
	if i < len(list) && list[i] == x {
		return list, false
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = x
	return list, true
}

// AddEdge inserts edge {u,v}. It reports whether the edge is new, and
// panics on out-of-range vertices or self-loops (programming errors).
func (g *Graph) AddEdge(u, v int) bool {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	g.check(u)
	g.check(v)
	var fresh bool
	if g.adj[u], fresh = insertSorted(g.adj[u], int32(v)); !fresh {
		return false
	}
	g.adj[v], _ = insertSorted(g.adj[v], int32(u))
	g.edges++
	return true
}

// HasEdge reports whether {u,v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	a := g.adj[u]
	i := sort.Search(len(a), func(k int) bool { return a[k] >= int32(v) })
	return i < len(a) && a[i] == int32(v)
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return len(g.adj[v])
}

// VisitNeighbors calls fn for each neighbor of v in ascending order.
func (g *Graph) VisitNeighbors(v int, fn func(u int)) {
	g.check(v)
	for _, u := range g.adj[v] {
		fn(int(u))
	}
}

// AppendNeighbors appends the sorted neighbor IDs of v to buf and
// returns the extended buffer. Unlike Neighbors it allocates nothing
// when buf has capacity, so callers materializing adjacency for many
// vertices can carve rows out of one slab.
func (g *Graph) AppendNeighbors(v int, buf []int32) []int32 {
	g.check(v)
	return append(buf, g.adj[v]...)
}

func (g *Graph) check(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, len(g.adj)))
	}
}

// VisitTrianglePairs calls fn(u, w) for every triangle (v, u, w), where
// u < w are neighbors of v joined by an edge. The triangles through v
// are the "co-author clique" list L(v) of Eq. 5 — the paper restricts
// clique listing to triangles for tractability, and so do we — and
// profile building only needs their two non-pivot vertices.
func (g *Graph) VisitTrianglePairs(v int, fn func(u, w int)) {
	g.check(v)
	nbrs := g.adj[v]
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if g.HasEdge(int(nbrs[i]), int(nbrs[j])) {
				fn(int(nbrs[i]), int(nbrs[j]))
			}
		}
	}
}

// Ego returns the induced subgraph of all vertices within the given hop
// radius of center, plus the mapping local→original ID (mapping[0] is
// center). Radius 0 yields just the center. Discovery is breadth-first
// in ascending neighbor order, so the local IDs are deterministic.
func (g *Graph) Ego(center, radius int) (*Graph, []int) {
	g.check(center)
	dist := map[int]int{center: 0}
	frontier := []int{center}
	order := []int{center}
	for d := 0; d < radius; d++ {
		var next []int
		for _, v := range frontier {
			for _, u := range g.adj[v] {
				if _, seen := dist[int(u)]; !seen {
					dist[int(u)] = d + 1
					next = append(next, int(u))
					order = append(order, int(u))
				}
			}
		}
		frontier = next
	}
	local := make(map[int]int, len(order))
	for i, v := range order {
		local[v] = i
	}
	sub := New(len(order))
	for _, v := range order {
		for _, u := range g.adj[v] {
			lu, ok := local[int(u)]
			if !ok {
				continue
			}
			lv := local[v]
			if lv < lu {
				sub.AddEdge(lv, lu)
			}
		}
	}
	return sub, order
}

// RandomWalk performs a simple uniform random walk of the given length
// starting at start, using rng. The walk stops early at an isolated
// vertex. The returned path includes start.
func (g *Graph) RandomWalk(start, length int, rng *rand.Rand) []int {
	g.check(start)
	path := make([]int, 1, length+1)
	path[0] = start
	cur := start
	for step := 0; step < length; step++ {
		nbrs := g.adj[cur]
		if len(nbrs) == 0 {
			break
		}
		// Adjacency is sorted, so walks are deterministic for a fixed rng.
		cur = int(nbrs[rng.Intn(len(nbrs))])
		path = append(path, cur)
	}
	return path
}

// CountPaths counts simple paths of length exactly L (edges) between u
// and v, capped at cap to bound work; used by the GHOST baseline's
// path-based similarity. L must be ≥ 1 and small (≤ 4 in practice).
func (g *Graph) CountPaths(u, v, length, cap int) int {
	g.check(u)
	g.check(v)
	if length < 1 {
		return 0
	}
	count := 0
	visited := map[int]bool{u: true}
	var dfs func(cur, remaining int)
	dfs = func(cur, remaining int) {
		if cap > 0 && count >= cap {
			return
		}
		if remaining == 0 {
			if cur == v {
				count++
			}
			return
		}
		for _, nb := range g.adj[cur] {
			n := int(nb)
			if visited[n] {
				continue
			}
			if n == v && remaining != 1 {
				continue // v may only appear as the terminal vertex
			}
			visited[n] = true
			dfs(n, remaining-1)
			visited[n] = false
		}
	}
	dfs(u, length)
	if cap > 0 && count > cap {
		count = cap
	}
	return count
}
