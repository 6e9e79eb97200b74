package core

import (
	"math"
	"slices"
	"sync"

	"iuad/internal/bib"
	"iuad/internal/intern"
	"iuad/internal/sched"
	"iuad/internal/textvec"
	"iuad/internal/wlkernel"
)

// paperSource resolves per-paper columnar attributes and corpus-level
// frequencies, keyed by interned IDs. The batch pipeline reads the
// frozen corpus directly; the incremental pipeline additionally resolves
// newly streamed papers (whose symbols may be interned past the frozen
// table range).
type paperSource interface {
	keywordIDs(bib.PaperID) []intern.ID
	venueIDOf(bib.PaperID) intern.ID
	yearOf(bib.PaperID) int
	wordFreqID(intern.ID) int
	venueFreqID(intern.ID) int
}

// corpusSource adapts *bib.Corpus to paperSource.
type corpusSource struct{ c *bib.Corpus }

func (s corpusSource) keywordIDs(id bib.PaperID) []intern.ID { return s.c.KeywordIDs(id) }
func (s corpusSource) venueIDOf(id bib.PaperID) intern.ID    { return s.c.VenueIDOf(id) }
func (s corpusSource) yearOf(id bib.PaperID) int             { return s.c.Paper(id).Year }
func (s corpusSource) wordFreqID(id intern.ID) int           { return s.c.WordFrequencyID(id) }
func (s corpusSource) venueFreqID(id intern.ID) int          { return s.c.VenueFrequencyID(id) }

// profile caches the per-vertex aggregates the six similarity functions
// consume (§V-B), laid out as flat sorted slices instead of the former
// per-profile hash maps. Every slice is carved from a profileBuilder's
// slab, so building a round's profiles costs a handful of block
// allocations instead of several maps per vertex.
//
// All symbol slices are sorted in lexicographic *symbol* order — for
// frozen-corpus IDs that is plain ascending-ID order (intern.Build
// assigns sorted ranks), and for the rare late-interned symbols of the
// incremental stream the builders fall back to a string sort. This is
// the deterministic iteration order the former map-based implementation
// used for its γ⁴/γ⁶ float reductions, so two-pointer merge-joins over
// these slices reproduce those sums bit for bit.
type profile struct {
	paperCount int
	// venueIDs/venueCounts encode the venue multiset H(v) as parallel
	// sorted slices; topVenue is its most frequent element (ties broken
	// lexicographically), or intern.None when the vertex has no venues.
	venueIDs    []intern.ID
	venueCounts []int32
	topVenue    intern.ID
	// wordIDs lists the distinct title-keyword IDs; the years each word
	// was used (ascending, with multiplicity) live in
	// years[wordOff[i]:wordOff[i+1]] — one shared backing slice instead
	// of a map of small slices.
	wordIDs []intern.ID
	wordOff []int32
	years   []int32
	// centroid is W(v), the mean keyword vector (nil if no keyword is in
	// vocabulary).
	centroid []float64
	// wl is the WL subgraph feature vector φ of the vertex's ego network
	// as a flat label-sorted run-length slice (slab-carved, like every
	// other profile aggregate — the former map cost one allocation per
	// bucket chunk and a map walk per pair); wlSelfDot caches its self
	// inner product ⟨φ,φ⟩ (an exact integer sum) so γ¹ merge-joins one
	// vector pair per evaluation. degree is the vertex's collaboration
	// degree. A neighborless vertex has no structural identity beyond
	// its own (shared) name, so γ¹ treats it as "no evidence" rather
	// than "identical subgraph".
	wl        []wlkernel.LabelCount
	wlSelfDot float64
	degree    int
	// triangles lists the distinct co-author name-ID pairs forming stable
	// triangles with this vertex (the clique list L(v) of Eq. 5,
	// restricted to triangles as in the paper), sorted by (A, B).
	triangles []namePair
}

// slabBlock is the element count of one slab growth step. Profiles are
// small (a few venues, tens of words), so one block serves hundreds of
// profiles; giant vertices spill into a dedicated exact-size block.
const slabBlock = 4096

// slab is a bump allocator for profile slices: carving sorted runs out
// of a few grown blocks replaces the thousands of small map and slice
// allocations the map-based profiles cost per refinement round. Carved
// regions are immutable once returned (full-slice expressions prevent
// append bleed), so profiles may outlive the builder that made them.
type slab struct {
	ids   []intern.ID
	i32   []int32
	pairs []namePair
	lcs   []wlkernel.LabelCount
}

// carve returns an n-element region bumped off the current block,
// growing it when exhausted. The full-slice expression caps the region
// so later carves can never append into it.
func carve[T any](block *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(*block)-len(*block) < n {
		*block = make([]T, 0, max(n, slabBlock))
	}
	l := len(*block)
	*block = (*block)[: l+n : cap(*block)]
	return (*block)[l : l+n : l+n]
}

func (s *slab) allocIDs(n int) []intern.ID           { return carve(&s.ids, n) }
func (s *slab) allocI32(n int) []int32               { return carve(&s.i32, n) }
func (s *slab) allocPairs(n int) []namePair          { return carve(&s.pairs, n) }
func (s *slab) allocLCs(n int) []wlkernel.LabelCount { return carve(&s.lcs, n) }

// wordYear is one (keyword, year) occurrence gathered during profile
// aggregation, before sorting and run-length grouping.
type wordYear struct {
	id   intern.ID
	year int32
}

// profileBuilder bundles a slab with the reusable scratch buffers of
// profile aggregation. Builders are not safe for concurrent use; the
// computer keeps them in a sync.Pool so each worker of a parallel
// profile warm-up holds one exclusively while building.
type profileBuilder struct {
	sl     slab
	wys    []wordYear
	vens   []intern.ID
	kwRows []int32
	tris   []namePair
	// wlx is the flat WL feature extractor (ego BFS marks, CSR and
	// label scratch), reused across every profile this builder makes.
	wlx wlkernel.Extractor
}

// similarityComputer evaluates γ¹..γ⁶ over a network, caching profiles.
type similarityComputer struct {
	net   *Network
	src   paperSource
	emb   *textvec.Embeddings
	cfg   *Config
	cache map[int]*profile

	// builders pools profileBuilders (slab + scratch): serial paths reuse
	// one, parallel warm-ups hand one to each in-flight build.
	builders *sync.Pool

	// Symbol tables of the underlying corpus, shared by every layer.
	nameTab  *intern.Table
	venueTab *intern.Table
	wordTab  *intern.Table
	// wlLabels caches the WL initial label (FNV hash) per interned name,
	// computed once instead of per ego-subgraph vertex. Read-only after
	// construction, so concurrent profile builds may index it freely;
	// names interned later fall back to hashing on the fly.
	wlLabels []uint64
	// embRows maps each interned title token to its embedding-vocabulary
	// row (-1 = out of vocabulary). Same read-only contract as wlLabels.
	embRows []int32
}

// symbolCaches holds the per-symbol lookup tables (WL label hashes per
// name, embedding rows per token). BuildGCN builds them once and shares
// them through Config across every similarityComputer of the run
// (initial scoring, vertex-split fitting, refine rounds, the final
// incremental computer) — the tables' frozen prefixes never change, so
// one O(vocabulary) pass suffices instead of one per construction.
type symbolCaches struct {
	wlLabels []uint64
	embRows  []int32
}

func buildSymbolCaches(corpus *bib.Corpus, emb *textvec.Embeddings) *symbolCaches {
	names, words := corpus.NameTable(), corpus.WordTable()
	c := &symbolCaches{wlLabels: make([]uint64, names.Len())}
	for i := range c.wlLabels {
		c.wlLabels[i] = wlkernel.HashLabel(names.String(intern.ID(i)))
	}
	if emb != nil {
		c.embRows = make([]int32, words.Len())
		for i := range c.embRows {
			c.embRows[i] = emb.RowOf(words.String(intern.ID(i)))
		}
	}
	return c
}

func newSimilarityComputer(net *Network, src paperSource, emb *textvec.Embeddings, cfg *Config) *similarityComputer {
	sc := &similarityComputer{
		net:      net,
		src:      src,
		emb:      emb,
		cfg:      cfg,
		cache:    make(map[int]*profile),
		builders: &sync.Pool{New: func() any { return new(profileBuilder) }},
		nameTab:  net.Corpus.NameTable(),
		venueTab: net.Corpus.VenueTable(),
		wordTab:  net.Corpus.WordTable(),
	}
	caches := cfg.symCache
	if caches == nil {
		caches = buildSymbolCaches(net.Corpus, emb)
	}
	sc.wlLabels = caches.wlLabels
	if emb != nil {
		sc.embRows = caches.embRows
	}
	return sc
}

// rebind returns a computer over net that shares this computer's symbol
// tables, per-symbol caches and builder pool, seeded with the given
// profile cache — the cross-round carry of iterative refinement: the
// profiles of vertices untouched by a merge round are remapped into the
// contracted network instead of being rebuilt.
func (sc *similarityComputer) rebind(net *Network, cache map[int]*profile) *similarityComputer {
	out := *sc
	out.net = net
	out.cache = cache
	return &out
}

// wlLabel returns the WL initial label of the interned name nid.
func (sc *similarityComputer) wlLabel(nid intern.ID) uint64 {
	if int(nid) < len(sc.wlLabels) {
		return sc.wlLabels[nid]
	}
	return wlkernel.HashLabel(sc.nameTab.String(nid))
}

// embRow resolves a token ID to its embedding row (-1 = OOV).
func (sc *similarityComputer) embRow(w intern.ID) int32 {
	if int(w) < len(sc.embRows) {
		return sc.embRows[w]
	}
	// A token interned after this computer was built cannot be in the
	// embedding vocabulary (embeddings are trained on the frozen corpus),
	// but resolve through the string path for correctness.
	return sc.emb.RowOf(sc.wordTab.String(w))
}

// invalidate drops the cached profile of vertex v (incremental updates).
func (sc *similarityComputer) invalidate(v int) { delete(sc.cache, v) }

func (sc *similarityComputer) profileOf(v int) *profile {
	if p, ok := sc.cache[v]; ok {
		return p
	}
	pb := sc.builders.Get().(*profileBuilder)
	p := sc.buildVertexProfile(v, pb)
	sc.builders.Put(pb)
	sc.cache[v] = p
	return p
}

// buildVertexProfile computes a vertex profile without touching the
// cache; it only reads the (immutable during stage 2) network, corpus
// and embeddings plus the caller-owned builder, so it is safe to call
// from concurrent workers holding distinct builders.
func (sc *similarityComputer) buildVertexProfile(v int, pb *profileBuilder) *profile {
	p := sc.buildProfile(sc.net.Verts[v].Papers, pb)
	flat := pb.wlx.SubgraphFlat(sc.net.G, v, sc.cfg.WLIterations,
		func(u int) uint64 { return sc.wlLabel(sc.net.Verts[u].NameID) })
	p.wl = pb.sl.allocLCs(len(flat))
	copy(p.wl, flat)
	p.wlSelfDot = wlkernel.DotFlat(p.wl, p.wl)
	p.degree = sc.net.G.Degree(v)
	p.triangles = sc.triangleNamePairs(v, pb)
	return p
}

// precomputeProfiles fills the cache for every id with the configured
// worker pool. Profile construction is read-only; workers write into a
// positional result slice, so the cache map is only touched by the
// caller's goroutine. After it returns, parallel sections may read the
// cached profiles for these ids without synchronization (see
// mustProfile).
func (sc *similarityComputer) precomputeProfiles(ids []int) {
	var todo []int
	// Bitset dedup sized to the vertex count: ids are vertex indexes, so
	// this replaces a hash set on the warm-up path of every round.
	seen := make([]uint64, (len(sc.net.Verts)+63)/64)
	for _, id := range ids {
		if seen[id>>6]&(1<<(uint(id)&63)) != 0 {
			continue
		}
		seen[id>>6] |= 1 << (uint(id) & 63)
		if _, ok := sc.cache[id]; !ok {
			todo = append(todo, id)
		}
	}
	results := sched.Map(sc.cfg.workers(), len(todo), func(k int) *profile {
		pb := sc.builders.Get().(*profileBuilder)
		p := sc.buildVertexProfile(todo[k], pb)
		sc.builders.Put(pb)
		return p
	})
	for k, id := range todo {
		sc.cache[id] = results[k]
	}
}

// mustProfile returns the profile of v without ever writing the cache,
// so it is safe to call from concurrent workers. Callers are expected to
// have warmed the cache with precomputeProfiles; a miss falls back to an
// uncached (re)build rather than a racy insert.
func (sc *similarityComputer) mustProfile(v int) *profile {
	if p, ok := sc.cache[v]; ok {
		return p
	}
	pb := sc.builders.Get().(*profileBuilder)
	p := sc.buildVertexProfile(v, pb)
	sc.builders.Put(pb)
	return p
}

// buildProfile aggregates papers into venue/keyword/centroid state on the
// flat layout: occurrences are gathered into the builder's scratch,
// sorted, and run-length grouped into slab-backed slices. It is shared by
// vertex profiles and the temporary profiles of incremental papers.
func (sc *similarityComputer) buildProfile(papers []bib.PaperID, pb *profileBuilder) *profile {
	p := &profile{paperCount: len(papers)}
	pb.vens = pb.vens[:0]
	pb.wys = pb.wys[:0]
	pb.kwRows = pb.kwRows[:0]
	venueFrozen := intern.ID(sc.venueTab.FrozenLen())
	wordFrozen := intern.ID(sc.wordTab.FrozenLen())
	tailed := false
	for _, id := range papers {
		if vid := sc.src.venueIDOf(id); vid != intern.None {
			pb.vens = append(pb.vens, vid)
			tailed = tailed || vid >= venueFrozen
		}
		year := int32(sc.src.yearOf(id))
		for _, w := range sc.src.keywordIDs(id) {
			pb.wys = append(pb.wys, wordYear{id: w, year: year})
			tailed = tailed || w >= wordFrozen
			if sc.emb != nil {
				if r := sc.embRow(w); r >= 0 {
					pb.kwRows = append(pb.kwRows, r)
				}
			}
		}
	}
	// Sort occurrences into symbol order. All-frozen profiles (every
	// batch profile, and most incremental ones) take the pure integer
	// sort; a late-interned symbol falls back to the table comparator,
	// preserving the exact lexicographic semantics of the old sorted key
	// lists.
	if !tailed {
		slices.Sort(pb.vens)
		slices.SortFunc(pb.wys, func(a, b wordYear) int {
			if a.id != b.id {
				if a.id < b.id {
					return -1
				}
				return 1
			}
			if a.year != b.year {
				if a.year < b.year {
					return -1
				}
				return 1
			}
			return 0
		})
	} else {
		slices.SortFunc(pb.vens, sc.venueTab.Compare)
		slices.SortFunc(pb.wys, func(a, b wordYear) int {
			if c := sc.wordTab.Compare(a.id, b.id); c != 0 {
				return c
			}
			if a.year != b.year {
				if a.year < b.year {
					return -1
				}
				return 1
			}
			return 0
		})
	}
	// Venue runs + top venue (max count, ties to the lexicographically
	// smallest, i.e. the first run at the max since runs are in symbol
	// order).
	runs := 0
	for i := 0; i < len(pb.vens); i++ {
		if i == 0 || pb.vens[i] != pb.vens[i-1] {
			runs++
		}
	}
	p.venueIDs = pb.sl.allocIDs(runs)
	p.venueCounts = pb.sl.allocI32(runs)
	p.topVenue = intern.None
	var bestCount int32 = -1
	k := -1
	for i := 0; i < len(pb.vens); i++ {
		if i == 0 || pb.vens[i] != pb.vens[i-1] {
			k++
			p.venueIDs[k] = pb.vens[i]
			p.venueCounts[k] = 0
		}
		p.venueCounts[k]++
		if p.venueCounts[k] > bestCount {
			bestCount = p.venueCounts[k]
			p.topVenue = p.venueIDs[k]
		}
	}
	// Word runs: distinct IDs plus per-word year spans in one shared
	// backing slice.
	runs = 0
	for i := 0; i < len(pb.wys); i++ {
		if i == 0 || pb.wys[i].id != pb.wys[i-1].id {
			runs++
		}
	}
	p.wordIDs = pb.sl.allocIDs(runs)
	p.wordOff = pb.sl.allocI32(runs + 1)
	p.years = pb.sl.allocI32(len(pb.wys))
	k = -1
	for i := 0; i < len(pb.wys); i++ {
		if i == 0 || pb.wys[i].id != pb.wys[i-1].id {
			k++
			p.wordIDs[k] = pb.wys[i].id
			p.wordOff[k] = int32(i)
		}
		p.years[i] = pb.wys[i].year
	}
	if runs > 0 {
		p.wordOff[runs] = int32(len(pb.wys))
	}
	if sc.emb != nil {
		// Mean-centered centroids: raw SGNS centroids share a large
		// common direction and saturate cosine near 1 for all pairs.
		p.centroid = sc.emb.CenteredCentroidRows(pb.kwRows)
	}
	return p
}

// triangleNamePairs lists the distinct name-ID pairs {name(u), name(w)}
// of all stable triangles (v,u,w) in the network, sorted by (A, B).
func (sc *similarityComputer) triangleNamePairs(v int, pb *profileBuilder) []namePair {
	pb.tris = pb.tris[:0]
	sc.net.G.VisitTrianglePairs(v, func(u, w int) {
		pb.tris = append(pb.tris, makeNamePair(sc.net.Verts[u].NameID, sc.net.Verts[w].NameID))
	})
	slices.SortFunc(pb.tris, cmpNamePair)
	dedup := slices.Compact(pb.tris)
	out := pb.sl.allocPairs(len(dedup))
	copy(out, dedup)
	return out
}

// tau is the productivity balance term of Eqs. 5, 7, 8, 9: the smaller
// paper count of the two vertices.
func tau(a, b *profile) float64 {
	t := a.paperCount
	if b.paperCount < t {
		t = b.paperCount
	}
	if t < 1 {
		t = 1
	}
	return float64(t)
}

// Similarities computes the full γ vector between two vertices. Disabled
// features (cfg.FeatureMask) are left at 0 and excluded by gammaFor.
func (sc *similarityComputer) Similarities(vi, vj int) [NumSimilarities]float64 {
	pi, pj := sc.profileOf(vi), sc.profileOf(vj)
	return sc.similaritiesOfProfiles(pi, pj)
}

func (sc *similarityComputer) similaritiesOfProfiles(pi, pj *profile) [NumSimilarities]float64 {
	var g [NumSimilarities]float64
	enabled := func(i int) bool { return sc.cfg.FeatureMask == nil || sc.cfg.FeatureMask[i] }

	if enabled(SimWLKernel) && pi.degree > 0 && pj.degree > 0 {
		g[SimWLKernel] = wlkernel.NormalizedPreFlat(pi.wl, pj.wl, pi.wlSelfDot, pj.wlSelfDot)
	}
	if enabled(SimCliques) {
		g[SimCliques] = cliqueCoincidence(pi, pj)
	}
	if enabled(SimInterests) {
		g[SimInterests] = textvec.Cosine(pi.centroid, pj.centroid)
	}
	if enabled(SimTimeConsist) {
		g[SimTimeConsist] = sc.timeConsistency(pi, pj)
	}
	if enabled(SimRepCommunity) {
		g[SimRepCommunity] = sc.representativeCommunity(pi, pj)
	}
	if enabled(SimCommunity) {
		g[SimCommunity] = sc.communitySimilarity(pi, pj)
	}
	return g
}

// cliqueCoincidence is γ² (Eq. 5): shared co-author cliques over τ,
// counted by a two-pointer merge over the sorted triangle lists.
func cliqueCoincidence(pi, pj *profile) float64 {
	a, b := pi.triangles, pj.triangles
	shared, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x.A < y.A || (x.A == y.A && x.B < y.B):
			i++
		case y.A < x.A || (y.A == x.A && y.B < x.B):
			j++
		default:
			shared++
			i++
			j++
		}
	}
	return float64(shared) / tau(pi, pj)
}

// timeConsistency is γ⁴ (Eq. 7): Σ_b exp(−α·minYearDiff(b)) / log F_B(b),
// over shared keywords, scaled by 1/τ. The paper writes e^{α·min(b)} with
// α described as a *decay* factor (0.62, citing FutureRank); a positive
// exponent would grow with the year gap, so the decay sign is restored
// here.
//
// The merge-join walks both word lists in symbol order, so the shared
// keywords contribute in exactly the sorted order the map-based
// implementation iterated — float additions are not associative, and the
// sum must be bit-stable.
func (sc *similarityComputer) timeConsistency(pi, pj *profile) float64 {
	sum := 0.0
	i, j := 0, 0
	for i < len(pi.wordIDs) && j < len(pj.wordIDs) {
		switch sc.wordTab.Compare(pi.wordIDs[i], pj.wordIDs[j]) {
		case -1:
			i++
		case 1:
			j++
		default:
			w := pi.wordIDs[i]
			freq := sc.src.wordFreqID(w)
			if freq < 2 {
				freq = 2 // guard log(1)=0; co-occurrence implies freq ≥ 2
			}
			diff := minYearDiff32(
				pi.years[pi.wordOff[i]:pi.wordOff[i+1]],
				pj.years[pj.wordOff[j]:pj.wordOff[j+1]])
			sum += math.Exp(-sc.cfg.Alpha*float64(diff)) / math.Log(float64(freq))
			i++
			j++
		}
	}
	return sum / tau(pi, pj)
}

// minYearDiff32 returns min |a−b| over two sorted year lists in O(n+m).
func minYearDiff32(a, b []int32) int {
	i, j := 0, 0
	best := int32(math.MaxInt32)
	for i < len(a) && j < len(b) {
		d := a[i] - b[j]
		if d < 0 {
			d = -d
		}
		if d < best {
			best = d
		}
		if best == 0 {
			return 0
		}
		if a[i] < b[j] {
			i++
		} else {
			j++
		}
	}
	return int(best)
}

// venueCountOf returns the multiplicity of venue id in p's venue multiset
// (0 when absent), by binary search over the symbol-sorted venue runs.
func (sc *similarityComputer) venueCountOf(p *profile, id intern.ID) int32 {
	lo, hi := 0, len(p.venueIDs)
	for lo < hi {
		mid := (lo + hi) / 2
		if sc.venueTab.Compare(p.venueIDs[mid], id) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.venueIDs) && p.venueIDs[lo] == id {
		return p.venueCounts[lo]
	}
	return 0
}

// representativeCommunity is γ⁵ (Eq. 8): how often each vertex publishes
// in the other's most frequent venue, over τ.
func (sc *similarityComputer) representativeCommunity(pi, pj *profile) float64 {
	s := 0.0
	if pi.topVenue != intern.None {
		s += float64(sc.venueCountOf(pj, pi.topVenue))
	}
	if pj.topVenue != intern.None {
		s += float64(sc.venueCountOf(pi, pj.topVenue))
	}
	return s / tau(pi, pj)
}

// communitySimilarity is γ⁶ (Eq. 9): Adamic/Adar over shared venues,
// merge-joined in symbol order (the deterministic sum order, as in
// timeConsistency).
func (sc *similarityComputer) communitySimilarity(pi, pj *profile) float64 {
	sum := 0.0
	i, j := 0, 0
	for i < len(pi.venueIDs) && j < len(pj.venueIDs) {
		switch sc.venueTab.Compare(pi.venueIDs[i], pj.venueIDs[j]) {
		case -1:
			i++
		case 1:
			j++
		default:
			freq := sc.src.venueFreqID(pi.venueIDs[i])
			if freq < 2 {
				freq = 2
			}
			sum += 1 / math.Log(float64(freq))
			i++
			j++
		}
	}
	return sum / tau(pi, pj)
}

// gammaFor projects the full similarity vector onto the enabled features,
// in feature-index order — the layout the emfit model is trained on.
func (c *Config) gammaFor(full [NumSimilarities]float64) []float64 {
	idx := c.featureIndexes()
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = full[i]
	}
	return out
}

// gammaInto is gammaFor into a caller-owned buffer (hot scoring paths
// reuse one buffer per block instead of allocating per pair). The buffer
// must have capacity for every enabled feature; the filled prefix is
// returned.
func (c *Config) gammaInto(full [NumSimilarities]float64, buf []float64) []float64 {
	idx := c.featureIndexes()
	buf = buf[:len(idx)]
	for k, i := range idx {
		buf[k] = full[i]
	}
	return buf
}
