package iuad

import (
	"fmt"

	"iuad/internal/core"
	"iuad/internal/netstats"
)

// This file is the Service's collaboration-network analytics surface —
// the disambiguated graph served as a product (DESIGN.md §13). Every
// method loads the published view ONCE and queries the epoch-keyed
// analytics cache for exactly that view, so an answer is always
// internally consistent with one epoch even while ingest publishes
// later ones. Repeat queries on one epoch are a single atomic load
// (no lock), and all results are byte-identical across runs, worker
// counts, and shard counts.

// NetworkStats is the whole-graph topology summary served by
// Service.Network: density, component structure, degree distribution
// with its log-log slope, and average clustering.
type NetworkStats = netstats.NetworkStats

// DegreeBucket is one point of NetworkStats.DegreeHistogram.
type DegreeBucket = netstats.DegreeBucket

// EgoGraph is the bounded-BFS neighborhood served by Service.Ego.
type EgoGraph = netstats.EgoGraph

// EgoVertex and EgoEdge are the elements of an EgoGraph.
type EgoVertex = netstats.EgoVertex
type EgoEdge = netstats.EgoEdge

// ClusteringInfo is one author's local clustering summary.
type ClusteringInfo = netstats.Clustering

// Communities is the deterministic label-propagation partition served
// by Service.Communities.
type Communities = netstats.Communities

// AnalyticsStats is the analytics-cache accounting (hits, misses,
// rebuilds, compile time) served by Service.Analytics and /metrics.
type AnalyticsStats = netstats.CacheStats

// EgoResult is an EgoGraph with the vertex names resolved from the
// same epoch, aligned with Vertices.
type EgoResult struct {
	EgoGraph
	Names []string `json:"names"`
}

// Collaborator is one ranked coauthor (shared-paper weight, common
// neighbors, neighborhood overlap) with its name resolved from the
// same epoch.
type Collaborator struct {
	netstats.Collaborator
	Name string `json:"name"`
}

// analytics returns the published view and its compiled analytics
// graph as one consistent pair.
func (s *Service) analytics() (*core.View, *netstats.Graph) {
	v := s.pub.Current()
	return v, s.net.For(v)
}

// Network returns the published collaboration network's topology
// summary. The first call on a fresh epoch compiles the analytics
// graph (O(V + E·d) for the clustering sweep); repeat calls on the
// same epoch are served from the cache with one atomic load.
func (s *Service) Network() NetworkStats {
	_, g := s.analytics()
	return g.Stats()
}

// Ego returns the author's collaboration neighborhood within the given
// hop radius (0 = just the author), with edge weights and the vertex
// names of the same epoch. Hops above netstats.MaxEgoHops are clamped,
// and the subgraph is truncated past netstats.MaxEgoVertices (the
// Truncated flag reports it). Unknown authors — including vertices
// lost to a partial snapshot recovery — return ErrUnknownAuthor.
func (s *Service) Ego(author, hops int) (*EgoResult, error) {
	v, g := s.analytics()
	eg, ok := g.Ego(author, hops)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownAuthor, author)
	}
	res := &EgoResult{EgoGraph: eg, Names: make([]string, len(eg.Vertices))}
	for i, ev := range eg.Vertices {
		res.Names[i], _ = v.AuthorName(int(ev.ID))
	}
	return res, nil
}

// TopCollaborators returns the author's k strongest coauthors —
// shared-paper count descending, ties by ascending ID — with the
// common-neighbor and neighborhood-overlap features of each pair
// (candidate γ features for the merge scorer). k ≤ 0 returns every
// coauthor.
func (s *Service) TopCollaborators(author, k int) ([]Collaborator, error) {
	v, g := s.analytics()
	cs, ok := g.TopCollaborators(author, k)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownAuthor, author)
	}
	out := make([]Collaborator, len(cs))
	for i, c := range cs {
		out[i] = Collaborator{Collaborator: c}
		out[i].Name, _ = v.AuthorName(int(c.ID))
	}
	return out, nil
}

// Clustering returns the author's local clustering summary (triangle
// count and coefficient). The whole-graph average is
// Network().AvgClustering.
func (s *Service) Clustering(author int) (ClusteringInfo, error) {
	_, g := s.analytics()
	c, ok := g.ClusteringOf(author)
	if !ok {
		return ClusteringInfo{}, fmt.Errorf("%w: %d", ErrUnknownAuthor, author)
	}
	return c, nil
}

// Communities returns the epoch's community partition via
// deterministic weighted label propagation: labels seeded with the
// interned vertex ID, ascending-ID sweeps, max-weight adoption with
// smallest-label tie-break. The result is computed once per epoch and
// shared — byte-identical across runs and worker counts — and must
// not be mutated.
func (s *Service) Communities() *Communities {
	_, g := s.analytics()
	return g.Communities()
}

// Analytics returns the analytics-cache accounting: lock-free hits,
// epoch misses, actual rebuilds, and cumulative compile time.
func (s *Service) Analytics() AnalyticsStats { return s.net.Stats() }
