package netstats

import "sort"

// Ego query bounds: hops beyond MaxEgoHops explode to the whole giant
// component on small-world graphs, and MaxEgoVertices bounds the
// response payload regardless of hop count.
const (
	MaxEgoHops     = 8
	MaxEgoVertices = 4096
)

// EgoVertex is one vertex of an ego subgraph, in BFS order (ascending
// hop, ascending ID within a hop — the deterministic frontier order).
type EgoVertex struct {
	ID  int32 `json:"id"`
	Hop int   `json:"hop"`
	// Degree is the vertex's degree in the full graph, not the
	// subgraph.
	Degree int `json:"degree"`
}

// EgoEdge is one induced edge of an ego subgraph, keyed by global IDs
// with U < V, ordered ascending by (U, V).
type EgoEdge struct {
	U      int32 `json:"u"`
	V      int32 `json:"v"`
	Weight int32 `json:"weight"`
}

// EgoGraph is the bounded-BFS neighborhood of one author with its
// induced weighted edges.
type EgoGraph struct {
	Center   int32       `json:"center"`
	Hops     int         `json:"hops"`
	Vertices []EgoVertex `json:"vertices"`
	Edges    []EgoEdge   `json:"edges"`
	// Truncated reports that the MaxEgoVertices cap stopped expansion;
	// the reported subgraph is still internally consistent (every edge
	// joins reported vertices).
	Truncated bool `json:"truncated,omitempty"`
}

// Ego returns the ego subgraph of center bounded by hops (0 returns
// just the center) and the MaxEgoVertices cap, reporting false for an
// out-of-range center. hops above MaxEgoHops is clamped.
func (g *Graph) Ego(center, hops int) (EgoGraph, bool) {
	if !g.Has(center) {
		return EgoGraph{}, false
	}
	if hops < 0 {
		hops = 0
	}
	if hops > MaxEgoHops {
		hops = MaxEgoHops
	}
	eg := EgoGraph{Center: int32(center), Hops: hops}

	// BFS. The frontier is expanded in ascending-ID order (parents are
	// ascending and rows are sorted), so visit order is deterministic.
	hop := map[int32]int{int32(center): 0}
	frontier := []int32{int32(center)}
	for h := 1; h <= hops && len(frontier) > 0; h++ {
		var next []int32
		for _, v := range frontier {
			row, _ := g.row(int(v))
			for _, u := range row {
				if _, seen := hop[u]; seen {
					continue
				}
				if len(hop) >= MaxEgoVertices {
					eg.Truncated = true
					break
				}
				hop[u] = h
				next = append(next, u)
			}
			if eg.Truncated {
				break
			}
		}
		if eg.Truncated {
			break
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = next
	}

	ids := make([]int32, 0, len(hop))
	for v := range hop {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool {
		hi, hj := hop[ids[i]], hop[ids[j]]
		if hi != hj {
			return hi < hj
		}
		return ids[i] < ids[j]
	})
	eg.Vertices = make([]EgoVertex, len(ids))
	for i, v := range ids {
		eg.Vertices[i] = EgoVertex{ID: v, Hop: hop[v], Degree: g.Degree(int(v))}
	}

	// Induced edges, each reported once with U < V, ascending by (U, V).
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		row, w := g.row(int(v))
		for i, u := range row {
			if u <= v {
				continue
			}
			if _, in := hop[u]; in {
				eg.Edges = append(eg.Edges, EgoEdge{U: v, V: u, Weight: w[i]})
			}
		}
	}
	return eg, true
}

// Collaborator is one coauthor ranked by collaboration strength, with
// the two topological features the Amancio et al. line of work uses to
// discriminate homonyms: common-neighbor count and neighborhood
// overlap.
type Collaborator struct {
	ID int32 `json:"id"`
	// SharedPapers is the edge weight: papers the two authors wrote
	// together.
	SharedPapers    int32 `json:"shared_papers"`
	CommonNeighbors int   `json:"common_neighbors"`
	// Overlap is |N(u)∩N(v)| / (|N(u)∪N(v)| − 2): the Jaccard overlap
	// of the endpoint neighborhoods with the endpoints themselves
	// excluded from the union; 0 when the union is only the endpoints.
	Overlap float64 `json:"overlap"`
}

// TopCollaborators returns the k strongest coauthors of id — ordered
// by shared-paper count descending, ties broken by ascending ID — and
// reports false for an out-of-range id. k ≤ 0 returns every
// coauthor.
func (g *Graph) TopCollaborators(id, k int) ([]Collaborator, bool) {
	if !g.Has(id) {
		return nil, false
	}
	row, w := g.row(id)
	out := make([]Collaborator, len(row))
	for i, u := range row {
		urow, _ := g.row(int(u))
		common := intersectCount(row, urow)
		union := len(row) + len(urow) - common - 2 // endpoints excluded
		c := Collaborator{ID: u, SharedPapers: w[i], CommonNeighbors: common}
		if union > 0 {
			c.Overlap = float64(common) / float64(union)
		}
		out[i] = c
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SharedPapers != out[j].SharedPapers {
			return out[i].SharedPapers > out[j].SharedPapers
		}
		return out[i].ID < out[j].ID
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out, true
}
