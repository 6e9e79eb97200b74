package core

import (
	"reflect"
	"testing"

	"iuad/internal/bib"
)

func miniCorpus(t *testing.T) *bib.Corpus {
	t.Helper()
	c := bib.NewCorpus(0)
	c.MustAdd(bib.Paper{Title: "t0", Authors: []string{"A", "B"}})
	c.MustAdd(bib.Paper{Title: "t1", Authors: []string{"A", "C"}})
	c.MustAdd(bib.Paper{Title: "t2", Authors: []string{"B", "C"}})
	c.Freeze()
	return c
}

func TestNetworkAddVertexAndEdge(t *testing.T) {
	n := newNetwork(miniCorpus(t))
	a := n.addVertex("A", false)
	b := n.addVertex("B", true)
	if a != 0 || b != 1 {
		t.Fatalf("vertex ids %d,%d", a, b)
	}
	n.addEdge(a, b, []bib.PaperID{0})
	if n.EdgeCount() != 1 || n.VertexCount() != 2 {
		t.Fatalf("counts: %d vertices %d edges", n.VertexCount(), n.EdgeCount())
	}
	// Paper sets fold into both endpoints, sorted unique.
	if !reflect.DeepEqual(n.Verts[a].Papers, []bib.PaperID{0}) {
		t.Fatalf("a papers=%v", n.Verts[a].Papers)
	}
	// Adding the same edge with another paper unions the sets.
	n.addEdge(a, b, []bib.PaperID{2, 0})
	if !reflect.DeepEqual(n.EdgePapers[edgeKey(b, a)], []bib.PaperID{0, 2}) {
		t.Fatalf("edge papers=%v", n.EdgePapers[edgeKey(a, b)])
	}
	if got := n.VerticesOf("A"); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("VerticesOf=%v", got)
	}
	if n.ClusterOfSlot(Slot{Paper: 0, Index: 0}) != -1 {
		t.Fatal("unassigned slot should be -1")
	}
}

func TestNetworkSelfEdgePanics(t *testing.T) {
	n := newNetwork(miniCorpus(t))
	v := n.addVertex("A", false)
	defer func() {
		if recover() == nil {
			t.Fatal("self-edge did not panic")
		}
	}()
	n.addEdge(v, v, nil)
}

func TestUnionPapers(t *testing.T) {
	cases := []struct {
		a, b, want []bib.PaperID
	}{
		{nil, nil, nil},
		{[]bib.PaperID{1, 3}, nil, []bib.PaperID{1, 3}},
		{nil, []bib.PaperID{2}, []bib.PaperID{2}},
		{[]bib.PaperID{1, 3}, []bib.PaperID{2, 3, 5}, []bib.PaperID{1, 2, 3, 5}},
		{[]bib.PaperID{1}, []bib.PaperID{1}, []bib.PaperID{1}},
	}
	for _, tc := range cases {
		if got := unionPapers(tc.a, tc.b); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("unionPapers(%v,%v)=%v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestContractMergesNameGroups(t *testing.T) {
	corpus := miniCorpus(t)
	n := newNetwork(corpus)
	a1 := n.addVertex("A", false)
	a2 := n.addVertex("A", true)
	b := n.addVertex("B", false)
	n.addEdge(a1, b, []bib.PaperID{0})
	n.addEdge(a2, b, []bib.PaperID{1})
	n.SlotVertex[Slot{Paper: 0, Index: 0}] = a1
	n.SlotVertex[Slot{Paper: 1, Index: 0}] = a2
	n.SlotVertex[Slot{Paper: 0, Index: 1}] = b

	uf := newUnionFind(3)
	uf.union(a1, a2)
	out, _ := n.contract(uf.find)
	if out.VertexCount() != 2 {
		t.Fatalf("contracted vertices=%d, want 2", out.VertexCount())
	}
	merged := out.VerticesOf("A")
	if len(merged) != 1 {
		t.Fatalf("A vertices=%v", merged)
	}
	mv := &out.Verts[merged[0]]
	if !reflect.DeepEqual(mv.Papers, []bib.PaperID{0, 1}) {
		t.Fatalf("merged papers=%v", mv.Papers)
	}
	// A vertex group with one non-isolated member is non-isolated.
	if mv.Isolated {
		t.Fatal("merged vertex marked isolated")
	}
	// Both slots of A now point at the merged vertex.
	if out.SlotVertex[Slot{Paper: 0, Index: 0}] != out.SlotVertex[Slot{Paper: 1, Index: 0}] {
		t.Fatal("slots not remapped to one vertex")
	}
	// The two A-B edges collapse into one carrying both papers.
	if out.EdgeCount() != 1 {
		t.Fatalf("contracted edges=%d, want 1", out.EdgeCount())
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContractDropsInternalEdges(t *testing.T) {
	corpus := miniCorpus(t)
	n := newNetwork(corpus)
	a1 := n.addVertex("A", false)
	a2 := n.addVertex("A", false)
	n.addEdge(a1, a2, []bib.PaperID{0}) // edge inside the future group
	uf := newUnionFind(2)
	uf.union(a1, a2)
	out, _ := n.contract(uf.find)
	if out.EdgeCount() != 0 {
		t.Fatalf("internal edge survived contraction: %d", out.EdgeCount())
	}
	if got := out.Verts[0].Papers; !reflect.DeepEqual(got, []bib.PaperID{0}) {
		t.Fatalf("papers lost in contraction: %v", got)
	}
}

func TestUnionFindGrowAndDeterminism(t *testing.T) {
	uf := newUnionFind(2)
	uf.grow(5)
	uf.union(4, 1)
	// union by smaller root: root of {1,4} is 1.
	if uf.find(4) != 1 {
		t.Fatalf("root=%d, want 1 (smaller id wins)", uf.find(4))
	}
	uf.union(0, 1)
	if uf.find(4) != 0 {
		t.Fatalf("root=%d, want 0", uf.find(4))
	}
}

func TestMergeScoredStrategies(t *testing.T) {
	scored := []ScoredPair{
		{A: 0, B: 1, Score: 5},
		{A: 1, B: 2, Score: 4},
		{A: 2, B: 3, Score: 3},
		{A: 3, B: 4, Score: -1},
	}
	// All-pairs: transitive closure of everything ≥ 0 → {0,1,2,3}, {4}.
	ufAll := newUnionFind(5)
	mergeScored(ufAll, scored, 0, MergeAllPairs)
	if ufAll.find(0) != ufAll.find(3) {
		t.Fatal("all-pairs did not chain 0..3")
	}
	if ufAll.find(4) == ufAll.find(0) {
		t.Fatal("all-pairs merged below-threshold pair")
	}
	// Best-match: 0 proposes (0,1); 1's best is (0,1); 2's best is (1,2);
	// 3's best is (2,3) → the proposals still connect 0..3 via shared
	// members, but nothing below δ merges.
	ufBest := newUnionFind(5)
	mergeScored(ufBest, scored, 0, MergeBestMatch)
	if ufBest.find(4) == ufBest.find(3) {
		t.Fatal("best-match merged below-threshold pair")
	}
	// Raising δ to 4.5 keeps only (0,1).
	ufHigh := newUnionFind(5)
	mergeScored(ufHigh, scored, 4.5, MergeBestMatch)
	if ufHigh.find(0) != ufHigh.find(1) {
		t.Fatal("best-match dropped the top pair")
	}
	if ufHigh.find(1) == ufHigh.find(2) {
		t.Fatal("best-match merged a pair below δ")
	}
}
