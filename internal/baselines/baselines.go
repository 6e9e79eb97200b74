// Package baselines re-implements the eight comparison systems of the
// paper's evaluation (§VI-A3): four unsupervised disambiguators — ANON
// [22] (ego-network embedding + HAC), NetE [23] (multi-relation paper
// embedding + HDBSCAN), Aminer [33] (global+local embedding + HAC), and
// GHOST [27] (path-based similarity + affinity propagation) — plus a
// supervised pairwise-classification wrapper for AdaBoost, GBDT, Random
// Forest and XGBoost over Treeratpituk&Giles-style features.
//
// All baselines share the top-down framing the paper critiques: for each
// ambiguous name they build an ego view in which every occurrence of a
// co-author name is a single vertex, then cluster that name's papers.
// Fidelity notes per system live in DESIGN.md (substitution 5).
package baselines

import (
	"iuad/internal/bib"
	"iuad/internal/graph"
)

// Disambiguator clusters the papers of one ambiguous name: it returns
// one cluster label per input paper (labels are local to the call).
type Disambiguator interface {
	Name() string
	Cluster(corpus *bib.Corpus, name string, papers []bib.PaperID) []int
}

// egoNetwork is the shared top-down view: paper vertices 0..n-1 followed
// by one vertex per distinct co-author name (the "all same-name authors
// are one vertex" simplification of the ego-network methods).
type egoNetwork struct {
	g        *graph.Graph
	papers   int
	coauthor map[string]int // name -> vertex id
}

func buildEgoNetwork(corpus *bib.Corpus, target string, papers []bib.PaperID) *egoNetwork {
	e := &egoNetwork{
		g:        graph.New(len(papers)),
		papers:   len(papers),
		coauthor: make(map[string]int),
	}
	for pi, pid := range papers {
		p := corpus.Paper(pid)
		for _, a := range p.Authors {
			if a == target {
				continue
			}
			cv, ok := e.coauthor[a]
			if !ok {
				cv = e.g.AddVertex()
				e.coauthor[a] = cv
			}
			e.g.AddEdge(pi, cv)
		}
	}
	return e
}

// singletons returns the all-singleton labeling (used for degenerate
// inputs).
func singletons(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
