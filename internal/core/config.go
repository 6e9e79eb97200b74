// Package core implements IUAD, the paper's contribution: a two-stage,
// incremental, unsupervised author disambiguation algorithm that
// reconstructs the collaboration network bottom-up.
//
// Stage 1 (§IV) mines η-stable collaborative relations (η-SCRs) from the
// co-author lists by counting 2-itemsets and assembles the Stable Collaboration
// Network (SCN), attaching each new stable pair to existing vertices only
// when a stable triangle supports the attachment. Every paper-author slot
// not covered by a stable relation starts as its own isolated vertex —
// the "initially assume all same-name authors are different" premise.
//
// Stage 2 (§V) computes six similarity functions between same-name SCN
// vertices, fits the exponential-family generative model of §V-C with EM
// (package emfit), and merges vertex pairs whose posterior log-odds
// matching score (Eq. 11) reaches the decision threshold δ, producing the
// Global Collaboration Network (GCN). Collaborative relations from the
// co-author lists are then recovered onto the merged vertices.
//
// New papers are disambiguated incrementally (§V-E) against the GCN by
// scoring each author slot against the existing same-name vertices — no
// retraining.
package core

import (
	"fmt"
	"runtime"
	"time"

	"iuad/internal/emfit"
	"iuad/internal/sched"
	"iuad/internal/textvec"
)

// NumSimilarities is the number of similarity functions γ¹..γ⁶ (§V-B).
const NumSimilarities = 6

// Similarity function indexes, in the paper's order.
const (
	SimWLKernel     = iota // γ¹ normalized Weisfeiler-Lehman subgraph kernel
	SimCliques             // γ² co-author clique coincidence ratio
	SimInterests           // γ³ research-interest cosine
	SimTimeConsist         // γ⁴ time consistency of research interests
	SimRepCommunity        // γ⁵ representative community
	SimCommunity           // γ⁶ research community (Adamic/Adar over venues)
)

// SimilarityNames maps feature indexes to short names for reports.
var SimilarityNames = [NumSimilarities]string{
	"wl-kernel", "cliques", "interests", "time-consistency",
	"rep-community", "community",
}

// LabeledPair is one piece of curator ground truth for the
// semi-supervised extension: whether the occurrences of Name in papers A
// and B belong to the same person.
type LabeledPair struct {
	Name string
	A, B int // PaperIDs (int to avoid the bib import in user configs)
	Same bool
}

// MergeStrategy selects how stage-2 decisions turn scores into merges.
type MergeStrategy int

const (
	// MergeBestMatch merges each vertex with its highest-scoring
	// same-name partner only (when that score reaches δ) — the batch
	// application of the paper's own incremental rule (§V-E). It is the
	// default because all-pairs union amplifies any pairwise false-match
	// rate through transitive closure.
	MergeBestMatch MergeStrategy = iota
	// MergeAllPairs merges every pair with score ≥ δ, exactly Alg. 1
	// lines 14-15. Kept for fidelity comparisons and ablations.
	MergeAllPairs
)

// Config parameterizes the IUAD pipeline. Zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Eta is the η-SCR support threshold (§IV-B). The paper mines
	// frequent 2-itemsets; η=2 is the minimum meaningful value.
	Eta int
	// Workers bounds the worker pool the pipeline fans name blocks (and
	// other independent work items) out to: stage-1 edge counting,
	// stage-2 profile/similarity computation and merge rounds, EM batch
	// E-steps, and incremental candidate scoring. 0 or negative means
	// one worker per logical CPU (runtime.GOMAXPROCS(0)); 1 runs the
	// whole pipeline single-threaded.
	//
	// Determinism guarantee: blocks are processed in any order but
	// results are reduced in stable block-key order, so the output —
	// networks, fitted model, cluster assignments — is bit-identical
	// for every worker count.
	Workers int
	// Delta is the decision threshold δ on the log-odds matching score
	// (Alg. 1 line 14). It is an OFFSET relative to the self-calibrated
	// operating point (see FalseMatchRate); 0 uses the calibrated
	// threshold as is.
	Delta float64
	// FalseMatchRate is the target rate of false merges among known-
	// different (cross-name anchor) pairs; the decision threshold is
	// calibrated as the (1−rate) quantile of their fitted scores — the
	// Fellegi–Sunter operating-point construction for record linkage,
	// which this generative model instantiates. Merging is transitive,
	// so the tolerable pairwise false-match rate is small.
	FalseMatchRate float64
	// Merge selects the decision strategy of stage 2 (see MergeStrategy).
	Merge MergeStrategy
	// MergeRounds applies the stage-2 decision iteratively: after a
	// round of merges, vertex profiles are recomputed on the contracted
	// network and remaining same-name pairs are rescored with the same
	// fitted model. Additional rounds raise recall without loosening the
	// threshold (merged vertices carry richer evidence). 0 or 1 = single
	// round (the paper's Alg. 1).
	MergeRounds int
	// WLIterations is h, the WL refinement depth of γ¹.
	WLIterations int
	// Alpha is the time-decay factor of γ⁴ (0.62 in the paper).
	Alpha float64

	// SampleRate is the fraction of candidate pairs used to train the
	// generative model (§VI-A3 uses 10%). Decision making always scores
	// every pair.
	SampleRate float64
	// SplitMinPapers enables the vertex-splitting balance strategy
	// (§V-F2): vertices with at least this many papers are split in two
	// to synthesize matched training pairs. 0 disables splitting.
	SplitMinPapers int
	// MaxPairsPerName caps candidate pairs per name to bound quadratic
	// blowup on extremely ambiguous names. 0 means no cap.
	MaxPairsPerName int

	// FeatureMask enables/disables individual similarity functions; used
	// by the Fig. 6 single-similarity analysis. Nil means all enabled.
	FeatureMask []bool
	// Families overrides the per-feature exponential-family choice. Nil
	// selects the defaults (Gaussian for γ¹/γ³, Exponential otherwise).
	Families []emfit.Family

	// Labels optionally supplies curator ground truth (the paper's
	// stated future work: "we plan to extend our method to build a
	// semi-supervised approach"). Same-author labels force-merge the
	// vertices carrying the two slots and anchor the matched component;
	// different-author labels anchor the unmatched component. See
	// LabeledPair.
	Labels []LabeledPair

	// Embedding configures the SGNS title-keyword vectors behind γ³.
	Embedding textvec.Config
	// Seed drives pair sampling and vertex splitting.
	Seed int64
	// EMOptions tunes the EM fit. Its Workers field is ignored: the
	// pipeline always runs EM with this Config's Workers pool.
	EMOptions emfit.Options

	// StageHook, when non-nil, receives the wall time of each coarse
	// phase of a fit as it completes. Run reports "scn" (stage 1) and
	// "embeddings" (the SGNS fit behind γ³, the largest of them all);
	// BuildGCN, and so Run after those two, reports the stage-2 phases:
	// "score-initial" (candidate pair enumeration + similarity vectors),
	// "fit-prep" (vertex splitting and anchor sampling), "em-fit",
	// "decision" (scoring + first merge), and "refine-round-N" per
	// refinement round. Diagnostics only — it must not mutate pipeline
	// state. Never serialized.
	StageHook func(stage string, d time.Duration) `json:"-"`

	// RoundHook, when non-nil, observes the network after each stage-2
	// merge round: round 0 is the initial decision merge (Alg. 1 lines
	// 14-15), rounds 1..MergeRounds-1 are the refinement contractions.
	// The labeled accuracy scenario uses it to record per-round accuracy
	// curves (how much each refinement round buys or costs). The network
	// is the live pipeline state: the hook must treat it as read-only and
	// not retain it past the call. Never serialized.
	RoundHook func(round int, net *Network) `json:"-"`

	// symCache is set by BuildGCN so every similarityComputer of one run
	// shares the per-symbol lookup tables (see symbolCaches). Unexported:
	// internal plumbing, invisible to JSON config serialization, and
	// rebuilt fresh by each BuildGCN call (the caller's Config value is
	// received by value and never mutated).
	symCache *symbolCaches
	// featIdx caches enabledFeatures() for the hot scoring paths (set
	// alongside symCache; nil falls back to recomputing).
	featIdx []int
}

// DefaultConfig returns the paper-faithful parameterization.
func DefaultConfig() Config {
	emb := textvec.DefaultConfig()
	return Config{
		Eta:             2,
		Workers:         runtime.GOMAXPROCS(0),
		Delta:           0,
		FalseMatchRate:  0.01,
		MergeRounds:     3,
		WLIterations:    2,
		Alpha:           0.62,
		SampleRate:      0.10,
		SplitMinPapers:  6,
		MaxPairsPerName: 200000,
		Embedding:       emb,
		Seed:            1,
		EMOptions:       emfit.DefaultOptions(),
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Eta < 2 {
		return fmt.Errorf("core: Eta=%d; stable relations need η ≥ 2", c.Eta)
	}
	if c.WLIterations < 0 {
		return fmt.Errorf("core: negative WLIterations")
	}
	if c.SampleRate <= 0 || c.SampleRate > 1 {
		return fmt.Errorf("core: SampleRate=%v outside (0,1]", c.SampleRate)
	}
	if c.FeatureMask != nil && len(c.FeatureMask) != NumSimilarities {
		return fmt.Errorf("core: FeatureMask length %d, want %d", len(c.FeatureMask), NumSimilarities)
	}
	if c.Families != nil && len(c.Families) != NumSimilarities {
		return fmt.Errorf("core: Families length %d, want %d", len(c.Families), NumSimilarities)
	}
	return nil
}

// workers resolves Workers into an effective pool size (≤0 → GOMAXPROCS).
func (c *Config) workers() int { return sched.Workers(c.Workers) }

// enabledFeatures resolves the feature mask into index lists.
func (c *Config) enabledFeatures() []int {
	var out []int
	for i := 0; i < NumSimilarities; i++ {
		if c.FeatureMask == nil || c.FeatureMask[i] {
			out = append(out, i)
		}
	}
	return out
}

// featureIndexes returns the cached enabled-feature index list, falling
// back to a fresh resolution when the cache is unset (configs built
// outside BuildGCN, e.g. decoded snapshots before the pipeline seeds it).
func (c *Config) featureIndexes() []int {
	if c.featIdx != nil {
		return c.featIdx
	}
	return c.enabledFeatures()
}

// stageTimer returns a lap function feeding StageHook, or a no-op when
// the hook is unset (the hot path pays nothing).
func (c *Config) stageTimer() func(stage string) {
	if c.StageHook == nil {
		return func(string) {}
	}
	last := time.Now()
	return func(stage string) {
		now := time.Now()
		c.StageHook(stage, now.Sub(last))
		last = now
	}
}

// featureSpecs builds the emfit feature specifications for the enabled
// features.
func (c *Config) featureSpecs() []emfit.FeatureSpec {
	// Sparse non-negative similarities (exactly 0 for most unrelated
	// pairs) use the zero-inflated exponential; bounded dense ones are
	// Gaussian. See Table I for the corresponding MLEs.
	defaults := [NumSimilarities]emfit.Family{
		SimWLKernel:     emfit.ZeroInflatedExponential,
		SimCliques:      emfit.ZeroInflatedExponential,
		SimInterests:    emfit.Gaussian,
		SimTimeConsist:  emfit.ZeroInflatedExponential,
		SimRepCommunity: emfit.ZeroInflatedExponential,
		SimCommunity:    emfit.ZeroInflatedExponential,
	}
	var specs []emfit.FeatureSpec
	for _, i := range c.enabledFeatures() {
		fam := defaults[i]
		if c.Families != nil {
			fam = c.Families[i]
		}
		spec := emfit.FeatureSpec{Name: SimilarityNames[i], Family: fam}
		if fam == emfit.Multinomial {
			// Generic bins for bounded similarity scores.
			spec.Bins = []float64{0.001, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6}
		}
		specs = append(specs, spec)
	}
	return specs
}
