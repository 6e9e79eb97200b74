package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"iuad/internal/bib"
	"iuad/internal/graph"
	"iuad/internal/intern"
	"iuad/internal/sched"
	"iuad/internal/wlkernel"
)

// Assignment records the incremental decision for one author slot of a
// newly published paper (§V-E).
type Assignment struct {
	Slot Slot
	// Vertex is the GCN vertex the slot was assigned to.
	Vertex int
	// Created is true when no existing vertex reached the threshold and
	// a fresh isolated vertex was created.
	Created bool
	// Score is the winning log-odds matching score (−Inf when no
	// candidate existed).
	Score float64
}

// AddPaper disambiguates a newly published paper against the GCN without
// retraining (§V-E): each author slot is scored against every existing
// same-name vertex with the already-fitted model; the best vertex wins if
// its score reaches δ, otherwise the slot becomes a new isolated vertex.
// The paper is then registered in the network (its collaborative
// relations are added), so subsequent papers see the update.
//
// The paper's ID is assigned by the pipeline and returned via the
// assignments' Slot fields.
//
// A pipeline built from an empty corpus has no fitted model; it accepts
// papers, but with no merge evidence every slot becomes a fresh vertex.
func (pl *Pipeline) AddPaper(p bib.Paper) ([]Assignment, error) {
	if pl.GCN == nil {
		return nil, fmt.Errorf("core: AddPaper before BuildGCN")
	}
	return pl.addPaper(p)
}

// AddPapers is the batched form of AddPaper: it ingests the batch in
// order, producing assignments bit-identical to calling AddPaper once
// per paper (later papers in the batch see the registered state of
// earlier ones, exactly like the serial stream). Batching shares the
// per-ingest machinery across the whole batch — one invalidation pass
// per paper's h-hop neighborhood (multi-source BFS over all new edges
// instead of one walk per assigned vertex), one profile warm-up pass
// over the union of every slot's candidates instead of one per slot,
// and one growth of the stream-side columnar buffers — which is what
// makes high-throughput ingest viable on ambiguous names.
//
// ctx is checked between papers: on cancellation the already-ingested
// prefix stays registered (the returned slice holds its assignments)
// and the context error is returned. A nil ctx means no cancellation.
func (pl *Pipeline) AddPapers(ctx context.Context, batch []bib.Paper) ([][]Assignment, error) {
	if pl.GCN == nil {
		return nil, fmt.Errorf("core: AddPapers before BuildGCN")
	}
	// One growth for the whole batch: the per-paper appends below then
	// stay within capacity (ingest-path allocations are per batch, not
	// per paper).
	pl.extra = slices.Grow(pl.extra, len(batch))
	pl.extraKw = slices.Grow(pl.extraKw, len(batch))
	pl.extraVenue = slices.Grow(pl.extraVenue, len(batch))
	pl.extraYear = slices.Grow(pl.extraYear, len(batch))
	out := make([][]Assignment, 0, len(batch))
	for _, p := range batch {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return out, err
			}
		}
		as, err := pl.addPaper(p)
		if err != nil {
			return out, err
		}
		out = append(out, as)
	}
	return out, nil
}

// addPaper ingests one paper (shared by AddPaper and AddPapers): the
// scoring half decides every slot, the registration half folds the
// paper into the network under those decisions.
func (pl *Pipeline) addPaper(p bib.Paper) ([]Assignment, error) {
	paper, nameIDs, err := pl.internPaper(p)
	if err != nil {
		return nil, err
	}

	// Warm the profile cache once for the union of every slot's candidate
	// vertices. Slots are independent — co-author names are distinct
	// within one paper (Validate enforces it), so no slot's assignment
	// changes another slot's candidate set — and precomputeProfiles only
	// builds what the cache misses, so assignSlot then scores against
	// already-cached profiles: one parallel warm-up pass per paper
	// instead of one per slot. Profile content is deterministic, so this
	// changes which entries are cached, never a score.
	if w := pl.Cfg.workers(); w > 1 && pl.Model != nil && len(paper.Authors) > 1 {
		pl.inval.centers = pl.inval.centers[:0]
		for idx := range paper.Authors {
			pl.inval.centers = append(pl.inval.centers, pl.GCN.VerticesOfID(nameIDs[idx])...)
		}
		if len(pl.inval.centers) >= minParallelCandidates {
			pl.sim.precomputeProfiles(pl.inval.centers)
		}
	}

	out := make([]Assignment, 0, len(paper.Authors))
	for idx := range paper.Authors {
		vertex, score, created := pl.assignSlot(paper, idx, nameIDs)
		out = append(out, Assignment{Slot: Slot{Paper: paper.ID, Index: idx}, Vertex: vertex, Created: created, Score: score})
	}
	pl.registerPaper(paper, out)
	return out, nil
}

// ApplyOutcome registers a batch whose decisions were already made:
// verts holds the vertex of every author slot, in paper then author
// order, as AddPapers assigned them. Nothing is scored, so the result
// depends only on the decisions; the profile cache stays as it was.
// Each vertex must be an existing vertex carrying the slot's name or
// exactly the next vertex ID (the slot created it); anything else is
// an error, with the papers before the offending one registered. The
// returned assignments' Score is NaN: no score was computed.
func (pl *Pipeline) ApplyOutcome(batch []bib.Paper, verts []int) ([][]Assignment, error) {
	if pl.GCN == nil {
		return nil, fmt.Errorf("core: ApplyOutcome before BuildGCN")
	}
	slots := 0
	for i := range batch {
		slots += len(batch[i].Authors)
	}
	if slots != len(verts) {
		return nil, fmt.Errorf("core: outcome has %d slots, the batch has %d", len(verts), slots)
	}
	out := make([][]Assignment, 0, len(batch))
	for _, p := range batch {
		paper, nameIDs, err := pl.internPaper(p)
		if err != nil {
			return out, err
		}
		as := make([]Assignment, len(paper.Authors))
		for idx, nid := range nameIDs {
			v := verts[0]
			verts = verts[1:]
			slot := Slot{Paper: paper.ID, Index: idx}
			switch n := len(pl.GCN.Verts); {
			case v == n:
				pl.GCN.addVertexID(nid, true)
				as[idx] = Assignment{Slot: slot, Vertex: v, Created: true, Score: math.NaN()}
			case v >= 0 && v < n && pl.GCN.Verts[v].NameID == nid:
				as[idx] = Assignment{Slot: slot, Vertex: v, Score: math.NaN()}
			case v >= 0 && v < n:
				return out, fmt.Errorf("core: paper %d slot %d (%q) recorded as vertex %d, which is %q",
					paper.ID, idx, paper.Authors[idx], v, pl.GCN.Verts[v].Name)
			default:
				return out, fmt.Errorf("core: paper %d slot %d (%q) recorded as vertex %d, want one below %d or %d itself",
					paper.ID, idx, paper.Authors[idx], v, n, n)
			}
		}
		pl.registerPaper(paper, as)
		out = append(out, as)
	}
	return out, nil
}

// internPaper numbers and validates a streamed paper, appends it to the
// stream, and interns its symbols into the shared tables (deterministic:
// single goroutine, attribute order) with its columnar view, so the
// paperSource resolves it like a corpus paper. It returns the stored
// paper and its authors' name IDs.
func (pl *Pipeline) internPaper(p bib.Paper) (*bib.Paper, []intern.ID, error) {
	p.ID = bib.PaperID(pl.Corpus.Len() + len(pl.extra))
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	pl.extra = append(pl.extra, p)
	paper := &pl.extra[len(pl.extra)-1]
	nameIDs := make([]intern.ID, len(paper.Authors))
	for i, a := range paper.Authors {
		nameIDs[i] = pl.Corpus.NameTable().Intern(a)
	}
	venueID := intern.None
	if paper.Venue != "" {
		venueID = pl.Corpus.VenueTable().Intern(paper.Venue)
	}
	kw := bib.Keywords(paper.Title)
	kwIDs := make([]intern.ID, len(kw))
	for i, w := range kw {
		kwIDs[i] = pl.Corpus.WordTable().Intern(w)
	}
	pl.extraKw = append(pl.extraKw, kwIDs)
	pl.extraVenue = append(pl.extraVenue, venueID)
	pl.extraYear = append(pl.extraYear, paper.Year)
	return paper, nameIDs, nil
}

// registerPaper is the registration half of ingest: it records each
// slot's vertex, folds the paper into every assigned vertex, recovers
// the collaborative relations among the slots and drops the cached
// profiles the new edges affect.
func (pl *Pipeline) registerPaper(paper *bib.Paper, out []Assignment) {
	for _, a := range out {
		pl.GCN.SlotVertex[a.Slot] = a.Vertex
		v := &pl.GCN.Verts[a.Vertex]
		v.Papers = unionPapers(v.Papers, []bib.PaperID{paper.ID})
		pl.sim.invalidate(a.Vertex)
	}
	newEdges := false
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[i].Vertex != out[j].Vertex {
				pl.GCN.addEdge(out[i].Vertex, out[j].Vertex, []bib.PaperID{paper.ID})
				newEdges = true
			}
		}
	}
	// New collaboration edges change the WL ego nets (radius h) and
	// triangle lists (radius 1) of every nearby vertex, not just the
	// assigned ones; invalidate the whole affected neighborhood so cached
	// profiles always equal fresh rebuilds. This transparency is what
	// lets snapshots skip the profile cache: a loaded pipeline (cold
	// cache) scores future papers identically to the live one.
	if newEdges {
		radius := pl.Cfg.WLIterations
		if radius < 1 {
			radius = 1 // triangles reach 1 hop even when WL depth is 0
		}
		pl.inval.centers = pl.inval.centers[:0]
		for _, a := range out {
			pl.inval.centers = append(pl.inval.centers, a.Vertex)
		}
		pl.invalidateNeighborhoods(pl.inval.centers, radius)
	}
}

// minParallelCandidates is the candidate-set size below which fanning
// incremental scoring out over the worker pool costs more than scoring.
const minParallelCandidates = 8

// invalScratch is the reusable state of multi-source profile
// invalidation: an epoch-stamped visited slice (no per-ingest map
// allocation or clearing) plus frontier buffers, shared across every
// ingest of one pipeline. Single-writer, like the rest of the ingest
// path.
type invalScratch struct {
	stamp    []uint32
	epoch    uint32
	frontier []int
	next     []int
	centers  []int // also reused as the candidate-union scratch
}

// invalidateNeighborhoods drops the cached profiles of every vertex
// within the given hop radius (inclusive) of ANY center, via one
// multi-source BFS. The union of per-center balls equals running the
// old single-source walk once per center — same invalidated set — but
// overlapping neighborhoods (the common case: a new paper's assigned
// vertices are all mutually adjacent after registration) are walked
// once instead of once per assigned vertex.
func (pl *Pipeline) invalidateNeighborhoods(centers []int, radius int) {
	if len(pl.sim.cache) == 0 {
		return // the walk only deletes cache entries
	}
	s := &pl.inval
	if n := len(pl.GCN.Verts); len(s.stamp) < n {
		// Geometric growth: the vertex count grows on most commits, and
		// an exact-size copy would make each of them O(vertices).
		s.stamp = slices.Grow(s.stamp, n-len(s.stamp))
		s.stamp = s.stamp[:cap(s.stamp)]
	}
	s.epoch++
	if s.epoch == 0 { // stamp wrap: stale marks could alias, reset
		clear(s.stamp)
		s.epoch = 1
	}
	s.frontier = s.frontier[:0]
	for _, c := range centers {
		if s.stamp[c] == s.epoch {
			continue
		}
		s.stamp[c] = s.epoch
		pl.sim.invalidate(c)
		s.frontier = append(s.frontier, c)
	}
	for d := 0; d < radius; d++ {
		s.next = s.next[:0]
		for _, v := range s.frontier {
			pl.GCN.G.VisitNeighbors(v, func(u int) {
				if s.stamp[u] == s.epoch {
					return
				}
				s.stamp[u] = s.epoch
				pl.sim.invalidate(u)
				s.next = append(s.next, u)
			})
		}
		s.frontier, s.next = s.next, s.frontier
	}
}

// assignSlot scores one author slot against the existing same-name
// vertices. For ambiguous names carrying many candidate vertices the
// scoring fans out over the worker pool; the argmax reduction stays on
// this goroutine in candidate order (strict >, first maximum wins), so
// ties break identically for every worker count.
func (pl *Pipeline) assignSlot(paper *bib.Paper, idx int, nameIDs []intern.ID) (vertex int, score float64, created bool) {
	candidates := pl.GCN.VerticesOfID(nameIDs[idx])
	bestScore := math.Inf(-1)
	best := -1
	if len(candidates) > 0 && pl.Model != nil {
		// Candidate scoring runs through the compiled scorer with a
		// per-goroutine γ buffer: no model-switch dispatch and no per-
		// candidate slice allocation on the serving hot path.
		scorer := pl.modelScorer()
		temp := pl.tempProfile(paper, idx, nameIDs)
		var scores []float64
		if w := pl.Cfg.workers(); w > 1 && len(candidates) >= minParallelCandidates {
			pl.sim.precomputeProfiles(candidates)
			scores = sched.Map(w, len(candidates), func(k int) float64 {
				full := pl.sim.similaritiesOfProfiles(temp, pl.sim.mustProfile(candidates[k]))
				var gbuf [NumSimilarities]float64
				return scorer.Score(pl.Cfg.gammaInto(full, gbuf[:]))
			})
		} else {
			scores = make([]float64, len(candidates))
			var gbuf [NumSimilarities]float64
			for k, v := range candidates {
				full := pl.sim.similaritiesOfProfiles(temp, pl.sim.profileOf(v))
				scores[k] = scorer.Score(pl.Cfg.gammaInto(full, gbuf[:]))
			}
		}
		for k, v := range candidates {
			if scores[k] > bestScore {
				bestScore, best = scores[k], v
			}
		}
	}
	// va is identical to va_k iff sc_k is both the maximum and ≥ δ
	// (§V-E conditions (1) and (2)).
	if best >= 0 && bestScore >= pl.CalibratedDelta+pl.Cfg.Delta {
		return best, bestScore, false
	}
	iso := pl.GCN.addVertexID(nameIDs[idx], true)
	return iso, bestScore, true
}

// tempProfile builds the single-paper profile of the incoming slot on
// the flat layout. Its structural view is the star of the paper's
// co-author names (the radius-1 collaboration neighborhood the new paper
// establishes); the triangle list is every co-author name pair, sorted
// and deduplicated like a vertex profile's.
func (pl *Pipeline) tempProfile(paper *bib.Paper, idx int, nameIDs []intern.ID) *profile {
	pb := pl.sim.builders.Get().(*profileBuilder)
	p := pl.sim.buildProfile([]bib.PaperID{paper.ID}, pb)
	flat := starFeatures(paper, idx, pl.Cfg.WLIterations, &pb.wlx)
	p.wl = pb.sl.allocLCs(len(flat))
	copy(p.wl, flat)
	p.wlSelfDot = wlkernel.DotFlat(p.wl, p.wl)
	p.degree = len(paper.Authors) - 1
	others := make([]intern.ID, 0, len(nameIDs)-1)
	for i, nid := range nameIDs {
		if i != idx {
			others = append(others, nid)
		}
	}
	pb.tris = pb.tris[:0]
	for i := 0; i < len(others); i++ {
		for j := i + 1; j < len(others); j++ {
			pb.tris = append(pb.tris, makeNamePair(others[i], others[j]))
		}
	}
	slices.SortFunc(pb.tris, cmpNamePair)
	dedup := slices.Compact(pb.tris)
	p.triangles = pb.sl.allocPairs(len(dedup))
	copy(p.triangles, dedup)
	pl.sim.builders.Put(pb)
	return p
}

// starFeatures computes the flat WL feature vector of the star graph
// centered on slot idx with the co-author names as leaves — the
// radius-1 collaboration neighborhood a single new paper establishes.
// The result is backed by the extractor's scratch.
func starFeatures(paper *bib.Paper, idx, h int, wlx *wlkernel.Extractor) []wlkernel.LabelCount {
	n := len(paper.Authors)
	g := graph.New(n)
	labels := make([]uint64, n)
	labels[0] = wlkernel.CenterLabel
	k := 1
	for i, name := range paper.Authors {
		if i == idx {
			continue
		}
		labels[k] = wlkernel.HashLabel(name)
		g.AddEdge(0, k)
		k++
	}
	return wlx.GraphFlat(g, labels, h)
}
