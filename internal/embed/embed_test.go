package embed

import (
	"testing"

	"iuad/internal/graph"
)

// twoCliques builds two K5s joined by nothing.
func twoCliques() *graph.Graph {
	g := graph.New(10)
	for base := 0; base < 10; base += 5 {
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				g.AddEdge(base+i, base+j)
			}
		}
	}
	return g
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Dim = 16
	cfg.WalksPerVertex = 12
	cfg.WalkLength = 10
	cfg.Epochs = 4
	return cfg
}

func TestDeepWalkSeparatesComponents(t *testing.T) {
	e := DeepWalk(twoCliques(), fastConfig())
	if len(e.vecs) != 10 {
		t.Fatalf("vertices=%d", len(e.vecs))
	}
	// Average within-clique cosine must exceed cross-clique cosine.
	var within, cross float64
	var nw, nc int
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			c := e.Cosine(i, j)
			if (i < 5) == (j < 5) {
				within += c
				nw++
			} else {
				cross += c
				nc++
			}
		}
	}
	within /= float64(nw)
	cross /= float64(nc)
	if within <= cross {
		t.Fatalf("within=%.3f not above cross=%.3f", within, cross)
	}
}

func TestDeepWalkDeterministic(t *testing.T) {
	g := twoCliques()
	e1 := DeepWalk(g, fastConfig())
	e2 := DeepWalk(g, fastConfig())
	v1, v2 := e1.Vector(3), e2.Vector(3)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("DeepWalk nondeterministic for fixed seed")
		}
	}
}

func TestDeepWalkIsolatedVertex(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	e := DeepWalk(g, fastConfig())
	if e.Vector(2) == nil {
		t.Fatal("isolated vertex has no embedding")
	}
	// Distance to anything is defined (not NaN).
	d := e.Distance(2, 0)
	if d < 0 || d > 2 {
		t.Fatalf("distance=%v", d)
	}
}

func TestVectorOutOfRange(t *testing.T) {
	e := DeepWalk(twoCliques(), fastConfig())
	if e.Vector(-1) != nil || e.Vector(100) != nil {
		t.Fatal("out-of-range vector not nil")
	}
	if e.Cosine(-1, 0) != 0 {
		t.Fatal("cosine with missing vector not 0")
	}
}

func TestDeepWalkPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	DeepWalk(graph.New(1), Config{WalksPerVertex: 0, WalkLength: 5})
}
