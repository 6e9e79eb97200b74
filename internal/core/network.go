package core

import (
	"fmt"
	"sort"

	"iuad/internal/bib"
	"iuad/internal/graph"
	"iuad/internal/intern"
)

// Slot identifies one author occurrence: the Index-th name in the
// co-author list of Paper. A slot is one physical person by definition,
// so slots are the atoms of disambiguation.
type Slot struct {
	Paper bib.PaperID
	Index int
}

// Vertex is a conjectured author in the SCN/GCN: a name plus the set of
// papers attributed to that author so far.
type Vertex struct {
	ID int
	// NameID is the interned author name (the hot-path key); Name is its
	// string form, kept at the API boundary for callers and reports.
	NameID intern.ID
	Name   string
	// Papers is sorted ascending and duplicate-free.
	Papers []bib.PaperID
	// Isolated marks stage-1 vertices not covered by any stable relation.
	Isolated bool
}

// Network is a collaboration network under construction: vertices with
// name-aware indexes, an undirected graph over vertex IDs, per-edge paper
// sets, and the slot → vertex assignment that drives evaluation.
type Network struct {
	Corpus *bib.Corpus
	Verts  []Vertex
	G      *graph.Graph
	// names is the corpus author-name table (shared, grown only by the
	// incremental path).
	names *intern.Table
	// byName maps an interned name to the IDs of its vertices, ascending.
	// For frozen corpus names, ascending index order is lexicographic
	// name order (intern.Build assigns sorted ranks).
	byName [][]int
	// SlotVertex maps every author slot to its vertex.
	SlotVertex map[Slot]int
	// EdgePapers maps a (lo,hi) vertex pair to the papers their authors
	// co-wrote.
	EdgePapers map[[2]int][]bib.PaperID
}

func newNetwork(corpus *bib.Corpus) *Network {
	return &Network{
		Corpus:     corpus,
		G:          graph.New(0),
		names:      corpus.NameTable(),
		byName:     make([][]int, corpus.NameTable().Len()),
		SlotVertex: make(map[Slot]int),
		EdgePapers: make(map[[2]int][]bib.PaperID),
	}
}

// addVertex creates a vertex for name and returns its ID. Prefer
// addVertexID on paths that already hold the interned name.
func (n *Network) addVertex(name string, isolated bool) int {
	return n.addVertexID(n.names.Intern(name), isolated)
}

// addVertexID creates a vertex for the interned name nid.
func (n *Network) addVertexID(nid intern.ID, isolated bool) int {
	id := n.G.AddVertex()
	n.Verts = append(n.Verts, Vertex{ID: id, NameID: nid, Name: n.names.String(nid), Isolated: isolated})
	for int(nid) >= len(n.byName) {
		n.byName = append(n.byName, nil)
	}
	n.byName[nid] = append(n.byName[nid], id)
	return id
}

// addEdge records the collaboration edge (u,v) carrying papers. It also
// folds the papers into both vertices' paper sets.
func (n *Network) addEdge(u, v int, papers []bib.PaperID) {
	if u == v {
		panic(fmt.Sprintf("core: self-edge on vertex %d (%s)", u, n.Verts[u].Name))
	}
	if !sort.SliceIsSorted(papers, func(i, j int) bool { return papers[i] < papers[j] }) {
		papers = sortedPaperIDs(papers)
	}
	n.G.AddEdge(u, v)
	key := edgeKey(u, v)
	n.EdgePapers[key] = unionPapers(n.EdgePapers[key], papers)
	n.Verts[u].Papers = unionPapers(n.Verts[u].Papers, papers)
	n.Verts[v].Papers = unionPapers(n.Verts[v].Papers, papers)
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// unionPapers merges two sorted unique PaperID slices. When b ⊆ a the
// input slice is returned unchanged — contraction and relation recovery
// mostly re-union papers that are already present, and the no-op case
// must not allocate.
func unionPapers(a, b []bib.PaperID) []bib.PaperID {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]bib.PaperID(nil), b...)
	}
	if containsAllPapers(a, b) {
		return a
	}
	out := make([]bib.PaperID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// containsAllPapers reports whether every element of sorted-unique b is
// present in sorted-unique a, via one two-pointer scan.
func containsAllPapers(a, b []bib.PaperID) bool {
	if len(b) > len(a) {
		return false
	}
	i := 0
	for _, x := range b {
		for i < len(a) && a[i] < x {
			i++
		}
		if i >= len(a) || a[i] != x {
			return false
		}
		i++
	}
	return true
}

// VertexCount returns the number of vertices.
func (n *Network) VertexCount() int { return len(n.Verts) }

// EdgeCount returns the number of collaboration edges.
func (n *Network) EdgeCount() int { return n.G.NumEdges() }

// VerticesOf returns the vertex IDs carrying name.
func (n *Network) VerticesOf(name string) []int {
	id, ok := n.names.Lookup(name)
	if !ok {
		return nil
	}
	return n.VerticesOfID(id)
}

// VerticesOfID returns the vertex IDs carrying the interned name id.
func (n *Network) VerticesOfID(id intern.ID) []int {
	if id < 0 || int(id) >= len(n.byName) {
		return nil
	}
	return n.byName[id]
}

// ClusterOfSlot returns the vertex assigned to slot, or -1.
func (n *Network) ClusterOfSlot(s Slot) int {
	if v, ok := n.SlotVertex[s]; ok {
		return v
	}
	return -1
}

// Validate checks internal consistency; it is used by tests and the
// property suite, not by the hot path.
func (n *Network) Validate() error {
	for nid, ids := range n.byName {
		for _, id := range ids {
			if id < 0 || id >= len(n.Verts) {
				return fmt.Errorf("core: byName[%d] has bad id %d", nid, id)
			}
			if n.Verts[id].NameID != intern.ID(nid) {
				return fmt.Errorf("core: vertex %d named %q listed under name id %d",
					id, n.Verts[id].Name, nid)
			}
			if n.Verts[id].Name != n.names.String(intern.ID(nid)) {
				return fmt.Errorf("core: vertex %d name %q disagrees with table %q",
					id, n.Verts[id].Name, n.names.String(intern.ID(nid)))
			}
		}
	}
	for s, v := range n.SlotVertex {
		if v < 0 || v >= len(n.Verts) {
			return fmt.Errorf("core: slot %+v assigned to bad vertex %d", s, v)
		}
		if int(s.Paper) >= n.Corpus.Len() {
			continue // incrementally added paper; lives outside the corpus
		}
		p := n.Corpus.Paper(s.Paper)
		if s.Index < 0 || s.Index >= len(p.Authors) {
			return fmt.Errorf("core: slot %+v out of range", s)
		}
		if p.Authors[s.Index] != n.Verts[v].Name {
			return fmt.Errorf("core: slot %+v (name %q) assigned to vertex named %q",
				s, p.Authors[s.Index], n.Verts[v].Name)
		}
	}
	for i := range n.Verts {
		ps := n.Verts[i].Papers
		for j := 1; j < len(ps); j++ {
			if ps[j] <= ps[j-1] {
				return fmt.Errorf("core: vertex %d papers not sorted-unique", i)
			}
		}
	}
	return nil
}

func sortedPaperIDs(ids []bib.PaperID) []bib.PaperID {
	out := append([]bib.PaperID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
