// Package embed trains DeepWalk-style vertex embeddings (Perozzi et al.,
// KDD 2014): truncated random walks over a graph are treated as sentences
// and fed to the SGNS trainer of internal/textvec. The embedding-based
// baselines (ANON [22], NetE [23], Aminer [33]) use these vectors as
// their paper representations.
package embed

import (
	"math/rand"
	"strconv"

	"iuad/internal/graph"
	"iuad/internal/textvec"
)

// Config tunes DeepWalk.
type Config struct {
	WalksPerVertex int
	WalkLength     int
	Dim            int
	Window         int
	Epochs         int
	Seed           int64
}

// DefaultConfig returns a laptop-scale parameterization.
func DefaultConfig() Config {
	return Config{WalksPerVertex: 8, WalkLength: 20, Dim: 48, Window: 4, Epochs: 3, Seed: 1}
}

// Embedding holds per-vertex vectors.
type Embedding struct {
	vecs [][]float64
}

// DeepWalk embeds every vertex of g. Vertices never visited by a walk
// (isolated vertices appear only in their own walks) still receive a
// vector as long as they start at least one walk.
func DeepWalk(g *graph.Graph, cfg Config) *Embedding {
	if cfg.WalksPerVertex <= 0 || cfg.WalkLength <= 0 {
		panic("embed: nonpositive walk parameters")
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sentences [][]string
	for w := 0; w < cfg.WalksPerVertex; w++ {
		for v := 0; v < n; v++ {
			walk := g.RandomWalk(v, cfg.WalkLength, rng)
			s := make([]string, len(walk))
			for i, u := range walk {
				s[i] = strconv.Itoa(u)
			}
			// Isolated vertices yield length-1 walks; duplicate the
			// token so SGNS keeps them in vocabulary (they get a
			// near-random vector, which is the correct "no information"
			// outcome).
			if len(s) == 1 {
				s = append(s, s[0])
			}
			sentences = append(sentences, s)
		}
	}
	tcfg := textvec.Config{
		Dim:       cfg.Dim,
		Window:    cfg.Window,
		Negatives: 5,
		Epochs:    cfg.Epochs,
		LR:        0.025,
		MinCount:  1,
		Seed:      cfg.Seed,
	}
	emb := textvec.Train(sentences, tcfg)
	e := &Embedding{vecs: make([][]float64, n)}
	for v := 0; v < n; v++ {
		if vec, ok := emb.Vector(strconv.Itoa(v)); ok {
			out := make([]float64, len(vec))
			for i, x := range vec {
				out[i] = float64(x)
			}
			e.vecs[v] = out
		}
	}
	return e
}

// Vector returns the embedding of vertex v (nil if the vertex was never
// embedded).
func (e *Embedding) Vector(v int) []float64 {
	if v < 0 || v >= len(e.vecs) {
		return nil
	}
	return e.vecs[v]
}

// Cosine returns the cosine similarity between the embeddings of u and v
// (0 when either is missing).
func (e *Embedding) Cosine(u, v int) float64 {
	return textvec.Cosine(e.Vector(u), e.Vector(v))
}

// Distance returns the cosine distance 1 − cos(u,v) clipped to [0,2].
func (e *Embedding) Distance(u, v int) float64 {
	d := 1 - e.Cosine(u, v)
	if d < 0 {
		return 0
	}
	if d > 2 {
		return 2
	}
	return d
}
