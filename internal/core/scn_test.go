package core

import (
	"reflect"
	"sort"
	"testing"

	"iuad/internal/bib"
)

// fig2Corpus reproduces the running example of the paper's Fig. 2:
// p1..p8 with the co-author lists shown there.
func fig2Corpus(t *testing.T) *bib.Corpus {
	t.Helper()
	lists := [][]string{
		{"a", "b", "c", "d"}, // p1
		{"a", "c", "d"},      // p2
		{"a", "b", "c"},      // p3
		{"a", "b", "c"},      // p4
		{"b", "e"},           // p5
		{"b", "e"},           // p6
		{"b", "f"},           // p7
		{"b", "g"},           // p8
	}
	c := bib.NewCorpus(len(lists))
	for i, l := range lists {
		c.MustAdd(bib.Paper{Title: "t", Venue: "v", Year: 2000 + i, Authors: l})
	}
	c.Freeze()
	return c
}

// papersOf renders a vertex's paper set as ints for comparison.
func papersOf(v *Vertex) []int {
	out := make([]int, len(v.Papers))
	for i, p := range sortedPaperIDs(v.Papers) {
		out[i] = int(p)
	}
	return out
}

// TestBuildSCNFig2 checks the stage-1 output against the paper's own
// running example, vertex by vertex.
func TestBuildSCNFig2(t *testing.T) {
	corpus := fig2Corpus(t)
	scn, err := BuildSCN(corpus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := scn.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig. 2 final SCN: a{p1..p4}, b{p1,p3,p4}, c{p1..p4}, d{p1,p2}
	// (stable square with triangles), b{p5,p6}-e{p5,p6}, and isolated
	// b{p7}, b{p8}, f{p7}, g{p8}.
	if got := scn.VertexCount(); got != 10 {
		t.Fatalf("VertexCount=%d, want 10", got)
	}
	if got := scn.EdgeCount(); got != 6 {
		t.Fatalf("EdgeCount=%d, want 6 (a-b,a-c,a-d,b-c,c-d,b-e)", got)
	}

	// Name b must have exactly 4 vertices with the paper sets of Fig. 2.
	bVerts := scn.VerticesOf("b")
	if len(bVerts) != 4 {
		t.Fatalf("vertices of b: %d, want 4", len(bVerts))
	}
	var bSets [][]int
	for _, id := range bVerts {
		bSets = append(bSets, papersOf(&scn.Verts[id]))
	}
	sort.Slice(bSets, func(i, j int) bool {
		return len(bSets[i]) > len(bSets[j]) ||
			(len(bSets[i]) == len(bSets[j]) && bSets[i][0] < bSets[j][0])
	})
	want := [][]int{{0, 2, 3}, {4, 5}, {6}, {7}}
	if !reflect.DeepEqual(bSets, want) {
		t.Fatalf("b paper sets=%v, want %v", bSets, want)
	}

	// a is one vertex covering p1..p4.
	aVerts := scn.VerticesOf("a")
	if len(aVerts) != 1 {
		t.Fatalf("vertices of a: %d, want 1", len(aVerts))
	}
	if got := papersOf(&scn.Verts[aVerts[0]]); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("a papers=%v", got)
	}
	// d is one vertex {p1,p2} thanks to the (a,c,d) triangle.
	dVerts := scn.VerticesOf("d")
	if len(dVerts) != 1 {
		t.Fatalf("vertices of d: %d, want 1", len(dVerts))
	}
	if got := papersOf(&scn.Verts[dVerts[0]]); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("d papers=%v", got)
	}

	// Every slot is assigned, and to a vertex of the right name.
	for i := 0; i < corpus.Len(); i++ {
		p := corpus.Paper(bib.PaperID(i))
		for idx := range p.Authors {
			v := scn.ClusterOfSlot(Slot{Paper: p.ID, Index: idx})
			if v < 0 {
				t.Fatalf("slot (p%d,%d) unassigned", i+1, idx)
			}
		}
	}

	// The stable vertex of b (p1,p3,p4) must not be isolated; b{p7} must.
	for _, id := range bVerts {
		v := &scn.Verts[id]
		switch len(v.Papers) {
		case 3, 2:
			if v.Isolated {
				t.Fatalf("stable b vertex %v marked isolated", papersOf(v))
			}
		case 1:
			if !v.Isolated {
				t.Fatalf("singleton b vertex %v not marked isolated", papersOf(v))
			}
		}
	}
}

// TestBuildSCNNoTriangleSplitsVertices verifies the attachment rule: a
// second stable relation of a name opens a new vertex unless a stable
// triangle supports reuse (Fig. 4 step (iv)).
func TestBuildSCNNoTriangleSplitsVertices(t *testing.T) {
	c := bib.NewCorpus(0)
	// (a,b) stable via q1,q2; (a,z) stable via q3,q4; no (b,z) relation.
	for _, l := range [][]string{{"a", "b"}, {"a", "b"}, {"a", "z"}, {"a", "z"}} {
		c.MustAdd(bib.Paper{Title: "t", Authors: l})
	}
	c.Freeze()
	scn, err := BuildSCN(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(scn.VerticesOf("a")); got != 2 {
		t.Fatalf("a vertices=%d, want 2 (no triangle support)", got)
	}
}

// TestBuildSCNSlotConflictMerges verifies that a paper covered by two
// stable relations of the same name merges the two vertices: the slot is
// one physical person.
func TestBuildSCNSlotConflictMerges(t *testing.T) {
	c := bib.NewCorpus(0)
	for _, l := range [][]string{
		{"a", "b", "z"}, // shared paper: (a,b) and (a,z) both cover slot a
		{"a", "b"},
		{"a", "z"},
	} {
		c.MustAdd(bib.Paper{Title: "t", Authors: l})
	}
	c.Freeze()
	scn, err := BuildSCN(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := scn.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(scn.VerticesOf("a")); got != 1 {
		t.Fatalf("a vertices=%d, want 1 (slot conflict must merge)", got)
	}
	a := scn.VerticesOf("a")[0]
	if got := papersOf(&scn.Verts[a]); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("merged a papers=%v", got)
	}
}

// TestBuildSCNTriangleReusesVertex is Fig. 4 steps (ii)-(iii): a stable
// triangle lets a second relation reuse the existing vertex.
func TestBuildSCNTriangleReusesVertex(t *testing.T) {
	c := bib.NewCorpus(0)
	for _, l := range [][]string{
		{"a", "b"}, {"a", "b"},
		{"a", "c"}, {"a", "c"},
		{"b", "c"}, {"b", "c"},
	} {
		c.MustAdd(bib.Paper{Title: "t", Authors: l})
	}
	c.Freeze()
	scn, err := BuildSCN(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if got := len(scn.VerticesOf(name)); got != 1 {
			t.Fatalf("%s vertices=%d, want 1 (triangle reuse)", name, got)
		}
	}
	if scn.EdgeCount() != 3 {
		t.Fatalf("edges=%d, want 3", scn.EdgeCount())
	}
}

func TestBuildSCNEtaThree(t *testing.T) {
	c := bib.NewCorpus(0)
	for _, l := range [][]string{
		{"a", "b"}, {"a", "b"}, {"a", "b"}, // freq 3
		{"a", "z"}, {"a", "z"}, // freq 2
	} {
		c.MustAdd(bib.Paper{Title: "t", Authors: l})
	}
	c.Freeze()
	cfg := DefaultConfig()
	cfg.Eta = 3
	scn, err := BuildSCN(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Only (a,b) survives η=3; the (a,z) papers fall apart into isolated
	// vertices: a{3},a{4},z{3},z{4} plus stable a{0,1,2},b{0,1,2}.
	if got := scn.EdgeCount(); got != 1 {
		t.Fatalf("η=3 edges=%d, want 1", got)
	}
	if got := len(scn.VerticesOf("a")); got != 3 {
		t.Fatalf("η=3 a vertices=%d, want 3", got)
	}
}

func TestBuildSCNRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Eta = 1
	if _, err := BuildSCN(fig2Corpus(t), cfg); err == nil {
		t.Fatal("η=1 accepted")
	}
	cfg = DefaultConfig()
	cfg.SampleRate = 0
	if _, err := BuildSCN(fig2Corpus(t), cfg); err == nil {
		t.Fatal("SampleRate=0 accepted")
	}
	cfg = DefaultConfig()
	cfg.FeatureMask = []bool{true}
	if _, err := BuildSCN(fig2Corpus(t), cfg); err == nil {
		t.Fatal("short FeatureMask accepted")
	}
}
