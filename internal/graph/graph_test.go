package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// k4 returns the complete graph on 4 vertices.
func k4() *Graph {
	g := New(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	if !g.AddEdge(0, 1) {
		t.Fatal("new edge reported as duplicate")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("duplicate edge reported as new")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges=%d", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatal("Degree wrong")
	}
	if got := g.AppendNeighbors(0, nil); !reflect.DeepEqual(got, []int32{1}) {
		t.Fatalf("AppendNeighbors=%v", got)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	New(2).AddEdge(1, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	New(2).AddEdge(0, 5)
}

func TestAddVertex(t *testing.T) {
	g := New(0)
	if id := g.AddVertex(); id != 0 {
		t.Fatalf("first vertex id=%d", id)
	}
	if id := g.AddVertex(); id != 1 {
		t.Fatalf("second vertex id=%d", id)
	}
	g.AddEdge(0, 1)
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatal("counts wrong after AddVertex")
	}
}

// trianglePairs lists VisitTrianglePairs(v) as [u, w] pairs.
func trianglePairs(g *Graph, v int) [][2]int {
	var out [][2]int
	g.VisitTrianglePairs(v, func(u, w int) { out = append(out, [2]int{u, w}) })
	return out
}

func TestTrianglesOf(t *testing.T) {
	want := [][2]int{{1, 2}, {1, 3}, {2, 3}}
	if got := trianglePairs(k4(), 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("K4 triangle pairs of 0 = %v, want %v", got, want)
	}
	// A path graph has no triangles.
	p := New(3)
	p.AddEdge(0, 1)
	p.AddEdge(1, 2)
	if got := trianglePairs(p, 1); len(got) != 0 {
		t.Fatalf("path triangle pairs=%v", got)
	}
}

// Property: on random graphs VisitTrianglePairs(v) yields exactly the
// pairs u < w, both ≠ v, that close a triangle with v, in ascending
// order — the brute-force triple loop below.
func TestTriangleCountConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(i, j)
				}
			}
		}
		for v := 0; v < n; v++ {
			var want [][2]int
			for u := 0; u < n; u++ {
				for w := u + 1; w < n; w++ {
					if u != v && w != v && g.HasEdge(v, u) && g.HasEdge(v, w) && g.HasEdge(u, w) {
						want = append(want, [2]int{u, w})
					}
				}
			}
			if got := trianglePairs(g, v); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d vertex %d: got %v, want %v", seed, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEgo(t *testing.T) {
	// Star with an extra rim edge: 0-1,0-2,0-3,1-2; plus far vertex 3-4.
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)

	sub, mapping := g.Ego(0, 1)
	if len(mapping) != 4 {
		t.Fatalf("radius-1 ego has %d vertices, want 4", len(mapping))
	}
	if mapping[0] != 0 {
		t.Fatalf("mapping[0]=%d, want center", mapping[0])
	}
	// Induced rim edge 1-2 must be present.
	inv := map[int]int{}
	for i, orig := range mapping {
		inv[orig] = i
	}
	if !sub.HasEdge(inv[1], inv[2]) {
		t.Fatal("induced rim edge missing")
	}
	if sub.NumEdges() != 4 {
		t.Fatalf("ego edges=%d, want 4", sub.NumEdges())
	}

	sub0, map0 := g.Ego(4, 0)
	if sub0.NumVertices() != 1 || len(map0) != 1 || sub0.NumEdges() != 0 {
		t.Fatal("radius-0 ego should be a single vertex")
	}

	sub2, map2 := g.Ego(0, 2)
	if len(map2) != 5 || sub2.NumEdges() != 5 {
		t.Fatalf("radius-2 ego: %d vertices %d edges", len(map2), sub2.NumEdges())
	}
}

func TestRandomWalk(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	rng := rand.New(rand.NewSource(1))
	walk := g.RandomWalk(0, 10, rng)
	if len(walk) != 11 {
		t.Fatalf("walk length=%d, want 11", len(walk))
	}
	if walk[0] != 0 {
		t.Fatal("walk must start at start vertex")
	}
	for i := 1; i < len(walk); i++ {
		if !g.HasEdge(walk[i-1], walk[i]) {
			t.Fatalf("walk step %d: no edge %d-%d", i, walk[i-1], walk[i])
		}
	}
	// Isolated vertex: walk stops immediately.
	iso := New(1)
	if got := iso.RandomWalk(0, 5, rng); len(got) != 1 {
		t.Fatalf("isolated walk=%v", got)
	}
}

func TestCountPaths(t *testing.T) {
	g := k4()
	// Length-2 simple paths between 0 and 1 in K4 pass through 2 or 3.
	if got := g.CountPaths(0, 1, 2, 0); got != 2 {
		t.Fatalf("paths len2=%d, want 2", got)
	}
	if got := g.CountPaths(0, 1, 1, 0); got != 1 {
		t.Fatalf("paths len1=%d, want 1", got)
	}
	if got := g.CountPaths(0, 1, 0, 0); got != 0 {
		t.Fatalf("paths len0=%d, want 0", got)
	}
	// Cap bounds the count.
	if got := g.CountPaths(0, 1, 2, 1); got != 1 {
		t.Fatalf("capped paths=%d, want 1", got)
	}
}

func TestDegreesAndVisit(t *testing.T) {
	g := k4()
	for v := 0; v < 4; v++ {
		if d := g.Degree(v); d != 3 {
			t.Fatalf("vertex %d degree=%d", v, d)
		}
	}
	var seen []int
	g.VisitNeighbors(0, func(u int) { seen = append(seen, u) })
	sort.Ints(seen)
	if !reflect.DeepEqual(seen, []int{1, 2, 3}) {
		t.Fatalf("VisitNeighbors=%v", seen)
	}
}
