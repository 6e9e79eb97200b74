package wlkernel

import (
	"math"
	"slices"

	"iuad/internal/graph"
)

// LabelCount is one entry of a flat WL feature vector: a label with its
// multiplicity. Vectors are sorted ascending by label, so kernels are
// two-pointer merge-joins instead of map walks.
//
// A flat vector holds exactly the multiset Features builds as a map;
// counts are integer, their pairwise products are exactly representable
// in float64 at every realistic subgraph size, and integer-valued
// float64 sums are associative below 2⁵³ — so DotFlat is bit-identical
// to the map-based Dot regardless of either's traversal order.
type LabelCount struct {
	Label uint64
	Count int32
}

// DotFlat returns the inner product ⟨a,b⟩ of two flat feature vectors
// (Eq. 3), merge-joining the label-sorted entries.
func DotFlat(a, b []LabelCount) float64 {
	s := 0.0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Label < b[j].Label:
			i++
		case a[i].Label > b[j].Label:
			j++
		default:
			s += float64(a[i].Count) * float64(b[j].Count)
			i++
			j++
		}
	}
	return s
}

// NormalizedPreFlat is the flat-vector form of NormalizedPre: the
// cosine-normalized kernel of Eq. 4 with caller-supplied self inner
// products.
func NormalizedPreFlat(a, b []LabelCount, selfA, selfB float64) float64 {
	den := math.Sqrt(selfA * selfB)
	if den == 0 {
		return 0
	}
	return DotFlat(a, b) / den
}

// Extractor computes flat WL feature vectors with fully reusable
// scratch: the ego BFS runs on epoch-stamped marks over the host graph
// (no per-call visited maps), the ego adjacency is a flat CSR rebuilt
// in place, and the label multiset is sorted and run-length grouped in
// one buffer. The only caller-visible allocation is whatever the caller
// does with the returned vector, which aliases scratch and is valid
// until the next call. Not safe for concurrent use; pool one per
// worker.
type Extractor struct {
	stamp   []uint32
	epoch   uint32
	localOf []int32
	order   []int32
	adj     []int32
	off     []int32
	curBuf  []uint64
	nextBuf []uint64
	nl      []uint64
	all     []uint64
	out     []LabelCount
}

// SubgraphFlat extracts the radius-h ego subgraph of center and returns
// its WL feature vector after h refinement iterations — the same label
// multiset as SubgraphFeatures (the ego vertex and edge sets are
// identical, and the WL label of a vertex depends only on its own label
// and the *sorted* labels of its neighbor set, so local-ID and
// visitation order never reach the output), flattened. The returned
// slice is scratch-backed: copy it out before the next call.
func (e *Extractor) SubgraphFlat(g *graph.Graph, center, h int, labelOf func(v int) uint64) []LabelCount {
	n := g.NumVertices()
	if len(e.stamp) < n {
		// Geometric growth: the graph gains vertices on most ingests,
		// and an exact-size copy would cost O(vertices) each time.
		e.stamp = slices.Grow(e.stamp, n-len(e.stamp))
		e.stamp = e.stamp[:cap(e.stamp)]
		e.localOf = slices.Grow(e.localOf, len(e.stamp)-len(e.localOf))
		e.localOf = e.localOf[:len(e.stamp)]
	}
	e.epoch++
	if e.epoch == 0 { // stamp wrap: stale marks could alias, reset
		clear(e.stamp)
		e.epoch = 1
	}
	// Breadth-first ego discovery on the stamped marks.
	e.order = e.order[:0]
	e.stamp[center] = e.epoch
	e.localOf[center] = 0
	e.order = append(e.order, int32(center))
	lo := 0
	for d := 0; d < h; d++ {
		hi := len(e.order)
		if lo == hi {
			break
		}
		for _, ov := range e.order[lo:hi] {
			g.VisitNeighbors(int(ov), func(u int) {
				if e.stamp[u] != e.epoch {
					e.stamp[u] = e.epoch
					e.localOf[u] = int32(len(e.order))
					e.order = append(e.order, int32(u))
				}
			})
		}
		lo = hi
	}
	m := len(e.order)
	// Flat CSR adjacency restricted to the ego set.
	e.off = append(e.off[:0], 0)
	e.adj = e.adj[:0]
	for _, ov := range e.order {
		g.VisitNeighbors(int(ov), func(u int) {
			if e.stamp[u] == e.epoch {
				e.adj = append(e.adj, e.localOf[u])
			}
		})
		e.off = append(e.off, int32(len(e.adj)))
	}
	// Initial labels; the center is always neutralized (see CenterLabel).
	if cap(e.curBuf) < m {
		e.curBuf = make([]uint64, m)
		e.nextBuf = make([]uint64, m)
	}
	cur, next := e.curBuf[:m], e.nextBuf[:m]
	for i, ov := range e.order {
		cur[i] = labelOf(int(ov))
	}
	cur[0] = CenterLabel
	return e.refine(cur, next, h)
}

// GraphFlat computes the flat WL feature vector of a whole labeled
// graph — the flat equivalent of Features, sharing the extractor's
// scratch. labels is consumed as the iteration-0 labels and not
// mutated.
func (e *Extractor) GraphFlat(g *graph.Graph, labels []uint64, h int) []LabelCount {
	n := g.NumVertices()
	if len(labels) != n {
		panic("wlkernel: labels length mismatch")
	}
	e.off = append(e.off[:0], 0)
	e.adj = e.adj[:0]
	for v := 0; v < n; v++ {
		g.VisitNeighbors(v, func(u int) {
			e.adj = append(e.adj, int32(u))
		})
		e.off = append(e.off, int32(len(e.adj)))
	}
	if cap(e.curBuf) < n {
		e.curBuf = make([]uint64, n)
		e.nextBuf = make([]uint64, n)
	}
	cur, next := e.curBuf[:n], e.nextBuf[:n]
	copy(cur, labels)
	return e.refine(cur, next, h)
}

// refine runs h WL rounds over the extractor's CSR, accumulating every
// label of iterations 0..h, then sorts and run-length groups the
// multiset into the flat output vector.
func (e *Extractor) refine(cur, next []uint64, h int) []LabelCount {
	m := len(cur)
	e.all = append(e.all[:0], cur...)
	for iter := 0; iter < h; iter++ {
		for v := 0; v < m; v++ {
			e.nl = e.nl[:0]
			for _, u := range e.adj[e.off[v]:e.off[v+1]] {
				e.nl = append(e.nl, cur[u])
			}
			slices.Sort(e.nl)
			next[v] = compress(cur[v], e.nl)
		}
		cur, next = next, cur
		e.all = append(e.all, cur...)
	}
	slices.Sort(e.all)
	e.out = e.out[:0]
	for i := 0; i < len(e.all); {
		j := i
		for j < len(e.all) && e.all[j] == e.all[i] {
			j++
		}
		e.out = append(e.out, LabelCount{Label: e.all[i], Count: int32(j - i)})
		i = j
	}
	return e.out
}
