// Package netstats is the per-epoch collaboration-network analytics
// engine behind Service.Network/Ego/TopCollaborators/Clustering/
// Communities: the disambiguated graph is the paper's product, and this
// package turns each published epoch into a queryable, immutable
// weighted CSR.
//
// A Graph is compiled lazily from a published core.View — never from
// the mutable pipeline — so analytics answered mid-ingest are exactly
// the analytics of the epoch the reader loaded, and recompiling from
// the same epoch is bit-identical. Edge weights are shared-paper
// counts (the merge-join intersection size of the endpoints' sorted
// paper sets), the weighted-collaboration measure the bottom-up
// reconstruction exists to expose.
//
// Determinism contract: every query on a Graph — including the
// parallel compile itself and label-propagation Communities — returns
// byte-identical results for every worker count and across runs.
// Parallel stages only ever write disjoint per-vertex slots; every
// reduction runs serially in ascending vertex order; community labels
// are seeded and tie-broken by the interned vertex ID.
//
// Immutability contract: once Compile returns, no reachable state of
// the Graph is ever written again (the lazily computed Communities
// result is built under a sync.Once before its pointer escapes), so
// any number of goroutines may query one Graph without synchronization
// — the property the epoch-keyed Cache relies on to serve repeat
// queries off one atomic load.
package netstats

import (
	"iuad/internal/bib"
	"iuad/internal/core"
	"iuad/internal/sched"
)

// Graph is one epoch's immutable weighted collaboration network in CSR
// form, indexed by vertex ID (the IDs the serving surface uses).
type Graph struct {
	epoch  uint64
	n      int // vertices
	edges  int // undirected edges
	weight int64

	off []int32 // CSR row offsets, len n+1
	adj []int32 // neighbor IDs, ascending within each row
	w   []int32 // shared-paper count per adjacency entry

	stats NetworkStats
	comm  communitiesOnce
}

// Epoch returns the publish epoch this graph was compiled from.
func (g *Graph) Epoch() uint64 { return g.epoch }

// Has reports whether id is a vertex of the graph.
func (g *Graph) Has(id int) bool { return id >= 0 && id < g.n }

// Degree returns the degree of id (0 when id is out of range).
func (g *Graph) Degree(id int) int {
	if !g.Has(id) {
		return 0
	}
	return int(g.off[id+1] - g.off[id])
}

// row returns the adjacency and weight row of id; the slices are
// shared with the graph and must not be mutated.
func (g *Graph) row(id int) (adj, w []int32) {
	lo, hi := g.off[id], g.off[id+1]
	return g.adj[lo:hi], g.w[lo:hi]
}

// Compile builds the analytics graph of one published view. It reads
// only the view's immutable state, so it is safe to run concurrently
// with ingest, and its output is byte-identical for every workers
// value (sched.Workers semantics: n ≤ 0 means one per logical CPU).
func Compile(v *core.View, workers int) *Graph {
	n := v.NumVertices()
	g := &Graph{epoch: v.Epoch(), n: n}

	// Pass 1 (serial): degrees → row offsets.
	g.off = make([]int32, n+1)
	total := int32(0)
	for id := 0; id < n; id++ {
		g.off[id] = total
		row, _ := v.Coauthors(id)
		total += int32(len(row))
	}
	g.off[n] = total
	g.adj = make([]int32, total)
	g.w = make([]int32, total)
	g.edges = int(total) / 2

	// Pass 2 (parallel): each vertex fills exactly its own CSR row —
	// disjoint index ranges, so any worker count writes identical
	// bytes. Weights are computed once per direction; the merge-join
	// over the endpoints' sorted paper sets is the same count either
	// way.
	wk := sched.Workers(workers)
	sched.ForEach(wk, n, func(id int) {
		papers, _ := v.AuthorPapers(id)
		row, _ := v.Coauthors(id)
		at := g.off[id]
		for _, u := range row {
			up, _ := v.AuthorPapers(int(u))
			g.adj[at] = u
			g.w[at] = int32(intersectPapers(papers, up))
			at++
		}
	})
	for i := range g.w {
		g.weight += int64(g.w[i])
	}
	g.weight /= 2

	g.stats = computeStats(g, wk)
	return g
}

// intersectPapers returns |a ∩ b| for two ascending PaperID slices.
func intersectPapers(a, b []bib.PaperID) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// intersectCount returns |a ∩ b| for two ascending int32 slices (CSR
// adjacency rows).
func intersectCount(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
