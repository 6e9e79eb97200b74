package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"iuad/internal/bib"
	"iuad/internal/emfit"
	"iuad/internal/intern"
	"iuad/internal/sched"
	"iuad/internal/textvec"
)

// Pipeline is the result of running IUAD on a corpus, and the handle for
// incremental disambiguation of newly published papers.
type Pipeline struct {
	Corpus *bib.Corpus
	Cfg    Config
	// SCN is the stage-1 stable collaboration network.
	SCN *Network
	// GCN is the stage-2 global collaboration network (merged vertices +
	// recovered collaborative relations).
	GCN *Network
	// Model is the fitted generative model used for merging and for
	// incremental decisions.
	Model *emfit.Model
	// Emb holds the title-keyword vectors behind γ³.
	Emb *textvec.Embeddings
	// TrainingPairs is how many candidate pairs the EM fit consumed
	// (diagnostics for the §V-F sampling strategy).
	TrainingPairs int
	// CalibratedDelta is the self-calibrated decision threshold (the
	// (1−FalseMatchRate) quantile of known-different anchor scores);
	// Config.Delta offsets it.
	CalibratedDelta float64

	extra []bib.Paper // incrementally added papers
	// Columnar views of the incremental stream, aligned with extra and
	// interned into the corpus tables (the stream may introduce symbols
	// the frozen corpus never saw).
	extraKw    [][]intern.ID
	extraVenue []intern.ID
	extraYear  []int

	sim          *similarityComputer
	scored       []ScoredPair
	forcedMerges [][2]int // curator same-author labels (SCN vertex pairs)
	// inval is the reusable multi-source BFS scratch of incremental
	// profile invalidation (never serialized; derived state only).
	inval invalScratch
	// scorer is the compiled decision-scoring form of Model (derived
	// state, never serialized); scorerModel records which model it was
	// compiled from so a snapshot load or model swap recompiles lazily.
	scorer      *emfit.Scorer
	scorerModel *emfit.Model
}

// modelScorer returns the compiled scorer of the current Model,
// compiling on first use and again whenever Model has been replaced
// (e.g. by LoadServiceSnapshot). Callers obtain it on the writer goroutine
// before fanning scoring out; the Scorer itself is immutable and safe
// to share across workers.
func (pl *Pipeline) modelScorer() *emfit.Scorer {
	if pl.Model == nil {
		return nil
	}
	if pl.scorer == nil || pl.scorerModel != pl.Model {
		pl.scorer = pl.Model.Scorer()
		pl.scorerModel = pl.Model
	}
	return pl.scorer
}

// ScoredPair is a candidate same-name SCN vertex pair with its fitted
// log-odds matching score (Eq. 11). Retained so threshold sweeps (Fig. 6)
// can re-merge without recomputing similarities or refitting EM.
type ScoredPair struct {
	A, B  int
	Score float64
}

// Run executes the full two-stage IUAD algorithm (Alg. 1).
func Run(corpus *bib.Corpus, cfg Config) (*Pipeline, error) {
	lap := cfg.stageTimer()
	scn, err := BuildSCN(corpus, cfg)
	if err != nil {
		return nil, err
	}
	lap("scn")
	emb := TrainEmbeddings(corpus, cfg.Embedding)
	lap("embeddings")
	return BuildGCN(corpus, scn, emb, cfg)
}

// TrainEmbeddings fits SGNS keyword vectors on the corpus titles.
func TrainEmbeddings(corpus *bib.Corpus, cfg textvec.Config) *textvec.Embeddings {
	sentences := make([][]string, 0, corpus.Len())
	for i := 0; i < corpus.Len(); i++ {
		kw := bib.Keywords(corpus.Paper(bib.PaperID(i)).Title)
		if len(kw) >= 2 {
			sentences = append(sentences, kw)
		}
	}
	return textvec.Train(sentences, cfg)
}

// candidatePair is one same-name vertex pair r_j with its similarity
// vector γ_j.
type candidatePair struct {
	a, b  int
	gamma []float64
}

// BuildGCN runs stage 2 (§V) on a previously built SCN. It is exposed
// separately from Run so the Table IV stage analysis and the Fig. 6
// single-similarity sweeps can reuse a stage-1 network.
func BuildGCN(corpus *bib.Corpus, scn *Network, emb *textvec.Embeddings, cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.symCache = buildSymbolCaches(corpus, emb)
	cfg.featIdx = cfg.enabledFeatures()
	pl := &Pipeline{Corpus: corpus, Cfg: cfg, SCN: scn, Emb: emb}
	if len(scn.Verts) == 0 {
		// Empty corpus: there is nothing to merge and nothing to fit a
		// model on. Return a working pipeline with no model; AddPaper
		// then gives every slot a fresh vertex (no merge evidence).
		pl.GCN, _ = scn.contract(newUnionFind(0).find)
		pl.sim = newSimilarityComputer(pl.GCN, pl, pl.Emb, &pl.Cfg)
		return pl, nil
	}
	sim := newSimilarityComputer(scn, corpusSource{corpus}, emb, &cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	lap := cfg.stageTimer()

	pairs := collectCandidatePairs(scn, sim, &cfg, rng)
	lap("score-initial")
	labeled := resolveLabels(scn, &cfg)

	model, calibration, err := fitModel(pairs, labeled, sim, &cfg, rng, lap)
	if err != nil {
		return nil, err
	}
	pl.Model = model
	pl.CalibratedDelta = calibration
	pl.TrainingPairs = len(pairs)

	// Decision making (Alg. 1 lines 11-15): merge pairs with score ≥ δ,
	// where δ = calibrated operating point + configured offset.
	pl.scored = scorePairs(pl.modelScorer(), pairs, cfg.workers())
	// Curator same-author labels are decisions, not just evidence: they
	// merge unconditionally (the semi-supervised extension).
	pl.forcedMerges = pl.forcedMerges[:0]
	for _, lp := range labeled {
		if lp.same {
			pl.forcedMerges = append(pl.forcedMerges, [2]int{lp.a, lp.b})
		}
	}
	pl.GCN = pl.mergeAt(calibration + cfg.Delta)
	lap("decision")
	if cfg.RoundHook != nil {
		cfg.RoundHook(0, pl.GCN)
	}

	// Iterative refinement (MergeRounds > 1): rescore the contracted
	// network with the same model; merged vertices carry richer profiles
	// and attach further fragments at the unchanged threshold.
	// Each refinement round is stricter: merged vertices carry larger
	// profiles whose similarity scores inflate, so holding the first-
	// round threshold would compound early mistakes.
	//
	// The refineState threads profiles and pair scores through the
	// rounds: one merge round only perturbs the merged clusters and
	// their h-hop neighborhoods, so everything else is carried across
	// the contraction instead of being recomputed.
	st := &refineState{}
	for round := 1; round < cfg.MergeRounds; round++ {
		before := pl.GCN.VertexCount()
		pl.GCN = pl.refineOnce(st, pl.GCN, calibration+cfg.Delta+refinePenalty*float64(round), rng)
		lap(fmt.Sprintf("refine-round-%d", round))
		if cfg.RoundHook != nil {
			cfg.RoundHook(round, pl.GCN)
		}
		if pl.GCN.VertexCount() == before {
			break
		}
	}
	pl.sim = newSimilarityComputer(pl.GCN, pl, pl.Emb, &pl.Cfg)
	if st.sim != nil && st.sim.net == pl.GCN {
		// The refinement carry guarantees every cached profile equals a
		// fresh rebuild on the final GCN (profile content only depends on
		// corpus papers, resolved identically by both paper sources), so
		// hand the warm cache to the serving computer instead of
		// rebuilding those profiles on the first AddPaper calls.
		pl.sim.cache = st.sim.cache
	}
	return pl, nil
}

// refinePenalty is the per-round threshold escalation of the iterative
// merge refinement.
const refinePenalty = 2.0

// refineState carries stage-2 scoring state across refinement rounds:
// the similarity computer (with its profile cache) bound to the current
// network, and the retained log-odds scores of pairs whose endpoints a
// merge round left untouched. Invariant: a cached profile and a retained
// score are bit-identical to what a from-scratch rebuild on the current
// network would produce — contraction only perturbs merged clusters and
// their h-hop neighborhoods (h = the WL/triangle radius), and carry()
// drops exactly that set each round.
type refineState struct {
	sim      *similarityComputer
	retained map[[2]int]float64
}

// refineOnce rescores same-name pairs of net and applies one more merge
// round at the given threshold, returning the contracted network. Pairs
// with a retained score are not recomputed; pairs with a rebuilt
// endpoint (and pairs never scored, e.g. fresh cap samples) are.
func (pl *Pipeline) refineOnce(st *refineState, net *Network, threshold float64, rng *rand.Rand) *Network {
	if st.sim == nil {
		// First refinement round: the GCN's recovered relations changed
		// every neighborhood relative to the SCN the initial scoring ran
		// on, so nothing is reusable yet — start a fresh computer here
		// and carry it forward from this round on.
		st.sim = newSimilarityComputer(net, corpusSource{pl.Corpus}, pl.Emb, &pl.Cfg)
	}
	blocks := candidateBlocks(net, &pl.Cfg, rng)
	scored := st.scoreBlocks(&pl.Cfg, pl.modelScorer(), blocks)
	uf := newUnionFind(len(net.Verts))
	mergeScored(uf, scored, threshold, pl.Cfg.Merge)
	out, remap := net.contract(uf.find)
	// No recoverRelations here: net already has every co-author relation
	// recovered (mergeAt ran it on the first GCN, and contraction maps
	// slots and edges consistently), so re-running it on the contracted
	// network is an exact structural no-op — every edge it would add
	// exists, every paper it would union is present. Skipping it saves a
	// full slot sweep of redundant sorted-slice unions per round.
	st.carry(out, remap, scored, pl.Cfg.WLIterations)
	return out
}

// scoreBlocks computes the log-odds score of every candidate pair,
// reusing retained scores where valid. Fresh pairs warm the profile
// cache first (worker pool), then blocks are batch-scored in parallel
// through the compiled scorer and reduced positionally — the scored
// list is identical, in value and order, to scoring every pair from
// scratch.
func (st *refineState) scoreBlocks(cfg *Config, scorer *emfit.Scorer, blocks [][][2]int) []ScoredPair {
	sim := st.sim
	var involved []int
	total := 0
	for _, blk := range blocks {
		total += len(blk)
		for _, pr := range blk {
			if _, ok := st.retained[pr]; !ok {
				involved = append(involved, pr[0], pr[1])
			}
		}
	}
	sim.precomputeProfiles(involved)
	scoredBlocks := sched.Map(cfg.workers(), len(blocks), func(k int) []ScoredPair {
		pairs := blocks[k]
		out := make([]ScoredPair, len(pairs))
		var gbuf [NumSimilarities]float64 // per-block gamma scratch
		for i, pr := range pairs {
			if s, ok := st.retained[pr]; ok {
				out[i] = ScoredPair{A: pr[0], B: pr[1], Score: s}
				continue
			}
			full := sim.similaritiesOfProfiles(sim.mustProfile(pr[0]), sim.mustProfile(pr[1]))
			out[i] = ScoredPair{A: pr[0], B: pr[1], Score: scorer.Score(cfg.gammaInto(full, gbuf[:]))}
		}
		return out
	})
	out := make([]ScoredPair, 0, total)
	for _, blk := range scoredBlocks {
		out = append(out, blk...)
	}
	return out
}

// carry advances the refine state across a contraction: profiles of
// vertices outside the invalidation radius are transplanted onto their
// new IDs, and this round's pair scores are retained for every pair
// whose endpoints both stayed clean. The invalidation radius is the one
// AddPaper already uses for its cache: merged clusters plus their h-hop
// neighborhoods (h = WLIterations, min 1 — triangles reach 1 hop even
// when WL depth is 0).
func (st *refineState) carry(out *Network, remap []int, scored []ScoredPair, wlIters int) {
	radius := wlIters
	if radius < 1 {
		radius = 1
	}
	preimages := make([]int32, len(out.Verts))
	for _, nv := range remap {
		preimages[nv]++
	}
	dirty := make([]bool, len(out.Verts))
	var frontier []int
	for v, c := range preimages {
		if c > 1 {
			dirty[v] = true
			frontier = append(frontier, v)
		}
	}
	for d := 0; d < radius; d++ {
		var next []int
		for _, v := range frontier {
			out.G.VisitNeighbors(v, func(u int) {
				if !dirty[u] {
					dirty[u] = true
					next = append(next, u)
				}
			})
		}
		frontier = next
	}
	cache := make(map[int]*profile, len(st.sim.cache))
	for old, p := range st.sim.cache {
		if nv := remap[old]; !dirty[nv] {
			cache[nv] = p
		}
	}
	st.sim = st.sim.rebind(out, cache)
	retained := make(map[[2]int]float64, len(scored))
	for _, sp := range scored {
		a, b := remap[sp.A], remap[sp.B]
		if a == b || dirty[a] || dirty[b] {
			continue
		}
		if a > b {
			a, b = b, a
		}
		retained[[2]int{a, b}] = sp.Score
	}
	st.retained = retained
}

// ScoredPairs exposes the candidate pairs with their matching scores.
func (pl *Pipeline) ScoredPairs() []ScoredPair { return pl.scored }

// RemergeAt rebuilds a GCN from the retained pair scores with a different
// decision-threshold offset (relative to the calibrated operating point),
// without retraining — used by the Fig. 6 threshold sweeps. The
// pipeline's own GCN is left untouched.
func (pl *Pipeline) RemergeAt(deltaOffset float64) *Network {
	return pl.mergeAt(pl.CalibratedDelta + deltaOffset)
}

func (pl *Pipeline) mergeAt(delta float64) *Network {
	uf := newUnionFind(len(pl.SCN.Verts))
	for _, fm := range pl.forcedMerges {
		uf.union(fm[0], fm[1])
	}
	mergeScored(uf, pl.scored, delta, pl.Cfg.Merge)
	gcn, _ := pl.SCN.contract(uf.find)
	recoverRelations(gcn)
	return gcn
}

// labeledVertexPair is a curator label resolved onto SCN vertices.
type labeledVertexPair struct {
	a, b int
	same bool
}

// resolveLabels maps curator paper-pair labels onto the SCN vertices
// carrying the named slots. Labels whose papers/name don't resolve, or
// whose slots already share a vertex, are dropped.
func resolveLabels(scn *Network, cfg *Config) []labeledVertexPair {
	var out []labeledVertexPair
	for _, lp := range cfg.Labels {
		va := vertexOfNamedSlot(scn, bib.PaperID(lp.A), lp.Name)
		vb := vertexOfNamedSlot(scn, bib.PaperID(lp.B), lp.Name)
		if va < 0 || vb < 0 || va == vb {
			continue
		}
		out = append(out, labeledVertexPair{a: va, b: vb, same: lp.Same})
	}
	return out
}

func vertexOfNamedSlot(scn *Network, pid bib.PaperID, name string) int {
	if int(pid) >= scn.Corpus.Len() {
		return -1
	}
	idx := scn.Corpus.Paper(pid).AuthorIndex(name)
	if idx < 0 {
		return -1
	}
	return scn.ClusterOfSlot(Slot{Paper: pid, Index: idx})
}

// mergeScored folds merge decisions into uf according to the strategy.
func mergeScored(uf *unionFind, scored []ScoredPair, delta float64, strategy MergeStrategy) {
	switch strategy {
	case MergeAllPairs:
		for _, sp := range scored {
			if sp.Score >= delta {
				uf.union(sp.A, sp.B)
			}
		}
	default: // MergeBestMatch
		// Each vertex proposes to its best-scoring partner; proposals at
		// or above δ merge. Chains stay short because every vertex emits
		// at most one proposal. best is indexed by vertex ID (scored
		// pairs only reference vertices of the union-find's network) —
		// no map allocation or hash traffic per round, and the fold is
		// structurally order-independent: a slot is only overwritten by
		// a strictly better proposal under the deterministic tie-break.
		best := make([]ScoredPair, uf.len())
		has := make([]bool, uf.len())
		better := func(cur ScoredPair, have ScoredPair, ok bool) bool {
			if !ok {
				return true
			}
			if cur.Score != have.Score {
				return cur.Score > have.Score
			}
			// Deterministic tie-break on partner IDs.
			return cur.A+cur.B < have.A+have.B
		}
		for _, sp := range scored {
			if sp.Score < delta {
				continue
			}
			if better(sp, best[sp.A], has[sp.A]) {
				best[sp.A], has[sp.A] = sp, true
			}
			if better(sp, best[sp.B], has[sp.B]) {
				best[sp.B], has[sp.B] = sp, true
			}
		}
		// Union order does not affect the final partition (components
		// are order-independent, and union roots at the smallest member),
		// but ascending order keeps the fold obviously deterministic.
		for v := range best {
			if has[v] {
				uf.union(best[v].A, best[v].B)
			}
		}
	}
}

// candidateBlocks enumerates the same-name vertex pair blocks (R of
// §V-A) in lexicographic name order (== ascending ID for frozen names —
// the stable reduction order of the former string-keyed implementation),
// applying the per-name cap. The rng draws of the cap sampling happen on
// the caller's goroutine in this fixed block order; every scoring path
// (initial scoring and each refinement round) shares this enumeration,
// so the rng stream and the pair order are independent of how many
// scores are later reused versus recomputed.
func candidateBlocks(scn *Network, cfg *Config, rng *rand.Rand) [][][2]int {
	nameIDs := make([]intern.ID, 0, len(scn.byName))
	for nid, ids := range scn.byName {
		if len(ids) > 1 {
			nameIDs = append(nameIDs, intern.ID(nid))
		}
	}
	scn.names.Sort(nameIDs)
	blocks := make([][][2]int, 0, len(nameIDs))
	for _, nid := range nameIDs {
		ids := scn.byName[nid]
		namePairs := make([][2]int, 0, len(ids)*(len(ids)-1)/2)
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				namePairs = append(namePairs, [2]int{ids[i], ids[j]})
			}
		}
		if cfg.MaxPairsPerName > 0 && len(namePairs) > cfg.MaxPairsPerName {
			rng.Shuffle(len(namePairs), func(i, j int) {
				namePairs[i], namePairs[j] = namePairs[j], namePairs[i]
			})
			namePairs = namePairs[:cfg.MaxPairsPerName]
		}
		blocks = append(blocks, namePairs)
	}
	return blocks
}

// collectCandidatePairs enumerates same-name vertex pairs and computes
// their similarity vectors.
//
// Name blocks are the unit of parallelism: pair enumeration (which
// consumes the rng for the per-name cap) stays on the caller's
// goroutine in sorted-name order, then the similarity vectors of each
// block are computed by the worker pool and merged back in the same
// stable name order — identical output for every worker count.
func collectCandidatePairs(scn *Network, sim *similarityComputer, cfg *Config, rng *rand.Rand) []candidatePair {
	blocks := candidateBlocks(scn, cfg, rng)
	// Profile construction dominates stage-2 cost and is independent per
	// vertex; warm the cache with the worker pool so the parallel pair
	// loop below only reads it.
	var involved []int
	total := 0
	for _, blk := range blocks {
		total += len(blk)
		for _, pr := range blk {
			involved = append(involved, pr[0], pr[1])
		}
	}
	sim.precomputeProfiles(involved)
	scored := sched.Map(cfg.workers(), len(blocks), func(k int) []candidatePair {
		pairs := blocks[k]
		out := make([]candidatePair, len(pairs))
		for i, pr := range pairs {
			full := sim.similaritiesOfProfiles(sim.mustProfile(pr[0]), sim.mustProfile(pr[1]))
			out[i] = candidatePair{a: pr[0], b: pr[1], gamma: cfg.gammaFor(full)}
		}
		return out
	})
	out := make([]candidatePair, 0, total)
	for _, blk := range scored {
		out = append(out, blk...)
	}
	return out
}

// scorePairs computes the log-odds matching score of every candidate
// pair with the worker pool, through the compiled scorer; results are
// positional, so the scored list is independent of the worker count.
func scorePairs(scorer *emfit.Scorer, pairs []candidatePair, workers int) []ScoredPair {
	return sched.Map(workers, len(pairs), func(i int) ScoredPair {
		cp := pairs[i]
		return ScoredPair{A: cp.a, B: cp.b, Score: scorer.Score(cp.gamma)}
	})
}

// fitModel trains the generative model on a SampleRate fraction of the
// candidate pairs, balanced with synthetic matched pairs from the
// vertex-splitting strategy (§V-F2), known-different cross-name anchors,
// and any curator labels (semi-supervised extension). It also calibrates
// the decision threshold: the (1−FalseMatchRate) quantile of the uniform
// anchors' fitted scores.
func fitModel(pairs []candidatePair, labeled []labeledVertexPair, sim *similarityComputer, cfg *Config, rng *rand.Rand, lap func(string)) (*emfit.Model, float64, error) {
	specs := cfg.featureSpecs()
	// The training set is assembled straight into the feature-major
	// matrix the columnar EM engine consumes: sampled candidate rows are
	// copied from their (already materialized) γ vectors, while the
	// synthetic anchor rows below are written in place — no per-row
	// []float64 allocations on the fit-prep path.
	mx := emfit.NewMatrix(len(specs), len(pairs)/8)
	var init []float64
	var clamped []bool
	calibBase, calibCount := 0, 0 // row range of the calibration (random-negative) anchors

	// 10% pair sampling (§VI-A3). On tiny corpora the sample can come up
	// empty; fall back to every candidate pair rather than failing.
	for _, cp := range pairs {
		if rng.Float64() <= cfg.SampleRate {
			mx.AppendRow(cp.gamma)
			init = append(init, 0.5)
			clamped = append(clamped, false)
		}
	}
	if mx.Rows() == 0 {
		for _, cp := range pairs {
			mx.AppendRow(cp.gamma)
			init = append(init, 0.5)
			clamped = append(clamped, false)
		}
	}
	// Vertex splitting (§V-F2): prolific vertices are split in two at
	// random *inside a cloned network*, so the two halves — the same
	// author by construction — exhibit realistic structural similarity
	// (partial neighborhoods, partial venue/keyword profiles). Their
	// similarity vectors anchor the matched component of the mixture.
	//
	// All rng draws (splitting, anchor sampling) happen on this
	// goroutine in a fixed order; only the similarity vectors — which
	// never touch the rng — are computed by the worker pool and reduced
	// positionally, keeping the training matrix bit-identical for every
	// worker count.
	workers := cfg.workers()
	synth := 0
	if cfg.SplitMinPapers > 0 {
		splitNet, matched := splitNetwork(sim.net, cfg, rng)
		splitSim := newSimilarityComputer(splitNet, sim.src, sim.emb, cfg)
		splitInvolved := make([]int, 0, 2*len(matched))
		for _, pr := range matched {
			splitInvolved = append(splitInvolved, pr[0], pr[1])
		}
		splitSim.precomputeProfiles(splitInvolved)
		matchedBase := mx.Grow(len(matched))
		sched.ForEach(workers, len(matched), func(k int) {
			pr := matched[k]
			full := splitSim.similaritiesOfProfiles(
				splitSim.mustProfile(pr[0]), splitSim.mustProfile(pr[1]))
			var gbuf [NumSimilarities]float64
			mx.SetRow(matchedBase+k, cfg.gammaInto(full, gbuf[:]))
		})
		for range matched {
			init = append(init, 0.95)
			clamped = append(clamped, true)
			synth++
		}
		// Dual anchor: cross-name vertex pairs are known-different
		// authors; they pin the unmatched component so EM cannot drift
		// into an "everything matches" optimum. Half are uniform random
		// pairs, half are *hard negatives* — cross-name pairs sharing a
		// venue — which teach the model that venue overlap also occurs
		// between different authors of one research community.
		// (Implementation note in DESIGN.md; the paper only describes
		// the matched-side split.)
		verts := sim.net.Verts
		var uniformPairs [][2]int
		for k := 0; k < 2*synth && len(verts) >= 2; {
			a := rng.Intn(len(verts))
			b := rng.Intn(len(verts))
			if a == b || verts[a].NameID == verts[b].NameID {
				continue
			}
			uniformPairs = append(uniformPairs, [2]int{a, b})
			k++
		}
		venues, byVenue := venueIndex(sim)
		var hardPairs [][2]int
		for k, tries := 0, 0; k < 2*synth && tries < 40*synth && len(venues) > 0; tries++ {
			ids := byVenue[rng.Intn(len(venues))]
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			if a == b || verts[a].NameID == verts[b].NameID {
				continue
			}
			hardPairs = append(hardPairs, [2]int{a, b})
			k++
		}
		anchors := make([][2]int, 0, len(uniformPairs)+len(hardPairs))
		anchors = append(anchors, uniformPairs...)
		anchors = append(anchors, hardPairs...)
		anchorInvolved := make([]int, 0, 2*len(anchors))
		for _, pr := range anchors {
			anchorInvolved = append(anchorInvolved, pr[0], pr[1])
		}
		sim.precomputeProfiles(anchorInvolved)
		anchorBase := mx.Grow(len(anchors))
		sched.ForEach(workers, len(anchors), func(k int) {
			pr := anchors[k]
			full := sim.similaritiesOfProfiles(
				sim.mustProfile(pr[0]), sim.mustProfile(pr[1]))
			var gbuf [NumSimilarities]float64
			mx.SetRow(anchorBase+k, cfg.gammaInto(full, gbuf[:]))
		})
		for range anchors {
			init = append(init, 0.05)
			clamped = append(clamped, true)
		}
		// The uniform anchors are the contiguous prefix of the anchor
		// block (hard negatives follow); they are the calibration set.
		calibBase, calibCount = anchorBase, len(uniformPairs)
	}
	// Curator labels join the fit as clamped observations.
	var gbuf [NumSimilarities]float64
	for _, lp := range labeled {
		full := sim.Similarities(lp.a, lp.b)
		mx.AppendRow(cfg.gammaInto(full, gbuf[:]))
		if lp.same {
			init = append(init, 0.98)
		} else {
			init = append(init, 0.02)
		}
		clamped = append(clamped, true)
		synth++
	}
	if mx.Rows() == 0 {
		return nil, 0, fmt.Errorf("core: no training pairs (corpus too small for GCN stage)")
	}
	lap("fit-prep")
	// EM concurrency always follows the pipeline's Workers knob (one
	// knob, one pool size; see Config.EMOptions).
	opts := cfg.EMOptions
	opts.Workers = workers
	if synth > 0 {
		opts.InitResp = init
		opts.Clamped = clamped
	}
	model, _, err := emfit.FitMatrix(mx, specs, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("core: EM fit: %w", err)
	}
	// Operating-point calibration from the *uniform* known-different
	// anchors: they mirror the typical unmatched same-name pair. (The
	// venue-sharing hard negatives stay in the fit to shape the
	// unmatched component, but their scores overlap legitimate matches
	// by construction and would push the threshold above every match.)
	// Anchor rows are scored straight out of the training matrix with
	// the compiled scorer — bit-identical to LogOdds over gathered rows.
	scorer := model.Scorer()
	var negScores []float64
	for k := 0; k < calibCount; k++ {
		negScores = append(negScores, scorer.ScoreRow(mx, calibBase+k))
	}
	calibration := 0.0
	if len(negScores) > 0 {
		rate := cfg.FalseMatchRate
		if rate <= 0 || rate >= 1 {
			rate = 0.005
		}
		sort.Float64s(negScores)
		idx := int((1 - rate) * float64(len(negScores)))
		if idx >= len(negScores) {
			idx = len(negScores) - 1
		}
		// The nudge makes the threshold strictly exceed the quantile
		// anchor: a candidate with exactly the evidence profile of a
		// known-different pair must not merge (the merge test is ≥).
		calibration = negScores[idx] + 1e-9
		if calibration < 0 {
			// Never loosen below the posterior-odds break-even point.
			calibration = 0
		}
	}
	lap("em-fit")
	return model, calibration, nil
}

// venueVert is one (venue, vertex) publication occurrence of the flat
// venue index.
type venueVert struct {
	venue intern.ID
	vert  int32
}

// venueIndex lists each multi-vertex venue with the vertices publishing
// in it: venues in lexicographic symbol order (the deterministic
// sampling order the anchor rng depends on — identical to the former
// sorted-string order), per-venue vertex lists ascending. It is derived
// from the columnar venue data in one flat pass — (venue, vertex)
// occurrences gathered, sorted, and run-length grouped — instead of the
// former per-vertex hash maps rebuilt from raw papers on every fit.
func venueIndex(sim *similarityComputer) ([]intern.ID, [][]int) {
	verts := sim.net.Verts
	total := 0
	for v := range verts {
		total += len(verts[v].Papers)
	}
	occ := make([]venueVert, 0, total)
	frozen := intern.ID(sim.venueTab.FrozenLen())
	tailed := false
	for v := range verts {
		for _, pid := range verts[v].Papers {
			vid := sim.src.venueIDOf(pid)
			if vid == intern.None {
				continue
			}
			tailed = tailed || vid >= frozen
			occ = append(occ, venueVert{venue: vid, vert: int32(v)})
		}
	}
	// Frozen venue IDs are sorted ranks, so ascending-ID order IS
	// lexicographic order; a late-interned symbol (never present during
	// BuildGCN, but this helper must stay correct anywhere) falls back
	// to the table comparator, like the profile builders.
	if !tailed {
		slices.SortFunc(occ, func(a, b venueVert) int {
			if a.venue != b.venue {
				if a.venue < b.venue {
					return -1
				}
				return 1
			}
			return int(a.vert) - int(b.vert)
		})
	} else {
		slices.SortFunc(occ, func(a, b venueVert) int {
			if c := sim.venueTab.Compare(a.venue, b.venue); c != 0 {
				return c
			}
			return int(a.vert) - int(b.vert)
		})
	}
	var venues []intern.ID
	var lists [][]int
	for i := 0; i < len(occ); {
		j := i
		var ids []int
		for ; j < len(occ) && occ[j].venue == occ[i].venue; j++ {
			v := int(occ[j].vert)
			if len(ids) == 0 || ids[len(ids)-1] != v {
				ids = append(ids, v)
			}
		}
		if len(ids) >= 2 {
			venues = append(venues, occ[i].venue)
			lists = append(lists, ids)
		}
		i = j
	}
	return venues, lists
}

// splitNetwork rebuilds scn with every vertex of ≥ SplitMinPapers papers
// partitioned into two half-vertices; edges route each paper to the half
// that owns it. Returns the rebuilt network and the matched half pairs.
func splitNetwork(scn *Network, cfg *Config, rng *rand.Rand) (*Network, [][2]int) {
	out := newNetwork(scn.Corpus)
	// mapOf[v] returns the new vertex for paper p of old vertex v.
	mapOf := make([]func(p bib.PaperID) int, len(scn.Verts))
	var matched [][2]int
	for v := range scn.Verts {
		vert := &scn.Verts[v]
		if len(vert.Papers) >= cfg.SplitMinPapers {
			perm := rng.Perm(len(vert.Papers))
			// Half the splits peel off a single paper — the geometry of
			// the real matched candidates (an isolated one-paper fragment
			// against the author's main vertex). The rest split in half,
			// covering the career-phase-fragment geometry.
			cut := 1
			if rng.Float64() < 0.5 {
				cut = len(perm) / 2
			}
			movedIdx := perm[:cut]
			moved := make(map[bib.PaperID]bool, len(movedIdx))
			for _, k := range movedIdx {
				moved[vert.Papers[k]] = true
			}
			a := out.addVertexID(vert.NameID, vert.Isolated)
			b := out.addVertexID(vert.NameID, vert.Isolated)
			// vert.Papers is sorted and duplicate-free, so partitioning
			// preserves both invariants — no per-paper set unions.
			aPapers := make([]bib.PaperID, 0, len(vert.Papers)-cut)
			bPapers := make([]bib.PaperID, 0, cut)
			for _, p := range vert.Papers {
				if moved[p] {
					bPapers = append(bPapers, p)
				} else {
					aPapers = append(aPapers, p)
				}
			}
			out.Verts[a].Papers = aPapers
			out.Verts[b].Papers = bPapers
			mapOf[v] = func(p bib.PaperID) int {
				if moved[p] {
					return b
				}
				return a
			}
			matched = append(matched, [2]int{a, b})
			continue
		}
		id := out.addVertexID(vert.NameID, vert.Isolated)
		out.Verts[id].Papers = append([]bib.PaperID(nil), vert.Papers...)
		mapOf[v] = func(bib.PaperID) int { return id }
	}
	for key, papers := range scn.EdgePapers {
		fx, fy := mapOf[key[0]], mapOf[key[1]]
		for _, p := range papers {
			u, w := fx(p), fy(p)
			if u != w {
				out.addEdge(u, w, []bib.PaperID{p})
			}
		}
	}
	return out, matched
}

// recoverRelations implements Alg. 1 line 16: after merging, every
// co-author pair of every paper becomes an edge between the vertices its
// slots resolved to.
func recoverRelations(n *Network) {
	seen := make(map[bib.PaperID]struct{})
	for slot := range n.SlotVertex {
		seen[slot.Paper] = struct{}{}
	}
	ids := make([]bib.PaperID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, pid := range ids {
		paper := n.Corpus.Paper(pid)
		for i := 0; i < len(paper.Authors); i++ {
			vi, ok := n.SlotVertex[Slot{Paper: pid, Index: i}]
			if !ok {
				continue
			}
			for j := i + 1; j < len(paper.Authors); j++ {
				vj, ok := n.SlotVertex[Slot{Paper: pid, Index: j}]
				if !ok || vi == vj {
					continue
				}
				n.addEdge(vi, vj, []bib.PaperID{pid})
			}
		}
	}
}

// PaperByID resolves corpus papers and incrementally added papers.
func (pl *Pipeline) PaperByID(id bib.PaperID) *bib.Paper {
	if int(id) < pl.Corpus.Len() {
		return pl.Corpus.Paper(id)
	}
	return &pl.extra[int(id)-pl.Corpus.Len()]
}

// paperSource implementation: columnar resolution over the corpus plus
// the incremental stream.

func (pl *Pipeline) keywordIDs(id bib.PaperID) []intern.ID {
	if int(id) < pl.Corpus.Len() {
		return pl.Corpus.KeywordIDs(id)
	}
	return pl.extraKw[int(id)-pl.Corpus.Len()]
}

func (pl *Pipeline) venueIDOf(id bib.PaperID) intern.ID {
	if int(id) < pl.Corpus.Len() {
		return pl.Corpus.VenueIDOf(id)
	}
	return pl.extraVenue[int(id)-pl.Corpus.Len()]
}

func (pl *Pipeline) yearOf(id bib.PaperID) int {
	if int(id) < pl.Corpus.Len() {
		return pl.Corpus.Paper(id).Year
	}
	return pl.extraYear[int(id)-pl.Corpus.Len()]
}

// wordFreqID and venueFreqID answer against the frozen corpus: symbols
// interned by the stream have zero corpus frequency by construction. The
// stream is small relative to the corpus, so corpus-level frequencies
// remain the reference (documented approximation).
func (pl *Pipeline) wordFreqID(id intern.ID) int  { return pl.Corpus.WordFrequencyID(id) }
func (pl *Pipeline) venueFreqID(id intern.ID) int { return pl.Corpus.VenueFrequencyID(id) }
