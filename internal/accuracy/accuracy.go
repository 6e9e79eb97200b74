// Package accuracy is the end-to-end labeled evaluation scenario: it
// generates a ground-truth corpus, runs the full batch pipeline AND a
// split-corpus incremental replay (fit on a prefix, stream the rest
// through AddPapers), and scores both against truth with the
// streaming metrics layer of internal/eval — pairwise P/R/F1, B³ and
// cluster purity over every ambiguous name.
//
// This is the guard the perf trajectory cannot provide: the engine's
// bit-identity tests catch refactor drift but are blind to algorithmic
// changes that keep determinism while silently regressing
// disambiguation accuracy. The scenario's quick-corpus F1 is pinned by a
// tier-1 regression test; its scale curves are in EXPERIMENTS.md,
// regenerated by cmd/experiments -run accuracy.
package accuracy

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"iuad/internal/bib"
	"iuad/internal/core"
	"iuad/internal/eval"
	"iuad/internal/experiments"
	"iuad/internal/synth"
)

// Config parameterizes one scenario run.
type Config struct {
	// Synth generates the labeled corpus.
	Synth synth.Config
	// Core parameterizes the pipeline under evaluation.
	Core core.Config
	// MinAuthorsPerName filters the evaluation name set: every name
	// carried by at least this many distinct true authors is scored
	// (2 = every genuinely ambiguous name; the paper's Table II regime).
	MinAuthorsPerName int
	// PrefixFrac is the fraction of the corpus (an insertion-order
	// prefix, "the database as of the fit") the incremental path fits in
	// batch before streaming the remainder through AddPapers. The
	// canonical scenario uses 0.95 — the §V-E regime where newly
	// published papers are a small stream against an established
	// database; single-paper slots carry far less merge evidence than a
	// batch refit, so the gap grows quickly with the streamed fraction
	// (~0.07 at 2% streamed, ~0.28 at 10% on the quick corpus). 0 skips
	// the incremental path.
	PrefixFrac float64
	// ReplayBatch is the AddPapers batch size of the incremental replay.
	// One batch is one epoch publish in the serving layer, so the batch
	// count is the scenario's epoch-churn number.
	ReplayBatch int
}

// Quick returns the scenario at the quick-corpus scale used by the
// tier-1 F1 pin test — the exact generator and pipeline
// parameterization of experiments.QuickOptions (the corpus the rest of
// the test suite calls the quick corpus), with the accuracy scenario's
// split-replay settings.
func Quick() Config {
	o := experiments.QuickOptions()
	return Config{
		Synth:             o.Synth,
		Core:              o.Core,
		MinAuthorsPerName: o.MinAuthorsPerName,
		PrefixFrac:        0.95,
		ReplayBatch:       256,
	}
}

// Scale returns the scenario at a target corpus size (papers), using the
// scale presets of internal/synth. Embedding training is the one knob
// shrunk relative to the paper-faithful defaults: SGNS over 10⁵+ titles
// at full dim/epochs dominates wall clock without moving relative
// accuracy, and the scenario measures disambiguation, not embeddings.
func Scale(targetPapers int, seed int64) Config {
	c := core.DefaultConfig()
	c.Workers = 1
	c.Embedding.Dim = 24
	c.Embedding.Epochs = 2
	c.SampleRate = 0.25
	return Config{
		Synth:             synth.ScaleConfig(targetPapers, seed),
		Core:              c,
		MinAuthorsPerName: 2,
		PrefixFrac:        0.95,
		ReplayBatch:       256,
	}
}

// RoundCurve is the accuracy of the batch path after one merge round
// (round 0 = initial decision, 1.. = refinement rounds).
type RoundCurve struct {
	Round   int                 `json:"round"`
	Metrics eval.ClusterMetrics `json:"metrics"`
}

// PathResult scores one pipeline path (batch or incremental) with its
// resource profile.
type PathResult struct {
	Metrics eval.ClusterMetrics `json:"metrics"`
	// Rounds traces per-merge-round accuracy (batch path only).
	Rounds []RoundCurve `json:"rounds,omitempty"`
	// Vertices is the final GCN vertex count (conjectured authors).
	Vertices int `json:"vertices"`
	// WallNs is the path's wall time: full pipeline build for the batch
	// path; prefix build + replay for the incremental path.
	WallNs int64 `json:"wall_ns"`
	// TotalAllocBytes/TotalAllocs are the allocation deltas over the
	// path; HeapInUseAfter is the resident heap after a final GC — the
	// memory-behavior numbers the 10⁵-paper scales exist to watch.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	TotalAllocs     uint64 `json:"total_allocs"`
	HeapInUseAfter  uint64 `json:"heap_in_use_after"`
}

// IncrementalResult is the split-corpus replay path.
type IncrementalResult struct {
	PathResult
	PrefixPapers   int `json:"prefix_papers"`
	StreamedPapers int `json:"streamed_papers"`
	// EpochPublishes is the number of AddPapers batches — each is one
	// epoch publish when the stream rides the serving layer.
	EpochPublishes int `json:"epoch_publishes"`
	// ReplayNs is the streaming slice of WallNs (WallNs − prefix build).
	ReplayNs int64 `json:"replay_ns"`
}

// Result is one complete scenario run.
type Result struct {
	Papers         int `json:"papers"`
	Authors        int `json:"authors"`
	AmbiguousNames int `json:"ambiguous_names"`
	// DegreeSlope is the generated coauthor network's log-log degree
	// slope (scale-free check at the evaluated scale).
	DegreeSlope float64 `json:"degree_slope"`

	Batch       PathResult         `json:"batch"`
	Incremental *IncrementalResult `json:"incremental,omitempty"`
	// PairwiseF1Gap = batch MicroF − incremental MicroF: what streaming
	// the suffix instead of batch-fitting it costs. Positive means the
	// batch path is better.
	PairwiseF1Gap float64 `json:"pairwise_f1_gap,omitempty"`
}

// EvaluateNetwork scores net's slot assignments over the given names
// against corpus ground truth, one streaming block per name. Slots
// without labels are excluded (never zero-scored); slots the network has
// not assigned (ClusterOfSlot = -1) score as their own singletons, which
// cannot happen for either scenario path but keeps the helper total.
func EvaluateNetwork(corpus *bib.Corpus, net *core.Network, names []string) eval.ClusterMetrics {
	var acc eval.Accumulator
	var ins []eval.Instance
	next := -1 // distinct pseudo-cluster per unassigned slot
	for _, name := range names {
		ins = ins[:0]
		for _, pid := range corpus.PapersWithName(name) {
			p := corpus.Paper(pid)
			idx := p.AuthorIndex(name)
			cl := net.ClusterOfSlot(core.Slot{Paper: pid, Index: idx})
			if cl < 0 {
				cl = next
				next--
			}
			ins = append(ins, eval.Instance{Cluster: cl, Truth: int(p.TruthAt(idx))})
		}
		acc.AddBlock(ins)
	}
	return acc.Metrics()
}

// Run executes the scenario: generate, batch-evaluate (with per-round
// curves), then split-replay-evaluate.
func Run(cfg Config) (*Result, error) {
	if cfg.MinAuthorsPerName < 2 {
		cfg.MinAuthorsPerName = 2
	}
	d := synth.Generate(cfg.Synth)
	names := d.AmbiguousNames(cfg.MinAuthorsPerName)
	if len(names) == 0 {
		return nil, fmt.Errorf("accuracy: corpus has no ambiguous names to evaluate")
	}
	slope, err := d.DegreeSlope()
	if err != nil {
		return nil, fmt.Errorf("accuracy: degree slope: %w", err)
	}
	res := &Result{
		Papers:         d.Corpus.Len(),
		Authors:        len(d.Authors),
		AmbiguousNames: len(names),
		DegreeSlope:    slope,
	}

	// Batch path: the full two-stage pipeline, per-round accuracy via
	// RoundHook (evaluating inside the hook is read-only).
	batchCfg := cfg.Core
	batchCfg.RoundHook = func(round int, net *core.Network) {
		res.Batch.Rounds = append(res.Batch.Rounds, RoundCurve{
			Round:   round,
			Metrics: EvaluateNetwork(d.Corpus, net, names),
		})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	pl, err := core.Run(d.Corpus, batchCfg)
	if err != nil {
		return nil, fmt.Errorf("accuracy: batch pipeline: %w", err)
	}
	res.Batch.WallNs = time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&after)
	res.Batch.TotalAllocBytes = after.TotalAlloc - before.TotalAlloc
	res.Batch.TotalAllocs = after.Mallocs - before.Mallocs
	res.Batch.Metrics = EvaluateNetwork(d.Corpus, pl.GCN, names)
	res.Batch.Vertices = pl.GCN.VertexCount()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pl)
	res.Batch.HeapInUseAfter = after.HeapInuse

	if cfg.PrefixFrac > 0 && cfg.PrefixFrac < 1 {
		inc, err := runIncremental(cfg, d, names)
		if err != nil {
			return nil, err
		}
		res.Incremental = inc
		res.PairwiseF1Gap = res.Batch.Metrics.Pairwise.MicroF - inc.Metrics.Pairwise.MicroF
	}
	return res, nil
}

// runIncremental fits the pipeline on an insertion-order prefix of the
// corpus and streams the remaining papers through AddPapers in batches,
// then scores the final assignments of ALL papers (prefix + streamed)
// against truth. Streamed paper IDs continue the prefix numbering in
// corpus order, so full-corpus slots address the incremental network
// directly.
func runIncremental(cfg Config, d *synth.Dataset, names []string) (*IncrementalResult, error) {
	total := d.Corpus.Len()
	prefix := int(float64(total) * cfg.PrefixFrac)
	if prefix < 1 || prefix >= total {
		return nil, fmt.Errorf("accuracy: PrefixFrac=%v leaves no stream (corpus %d)", cfg.PrefixFrac, total)
	}
	batch := cfg.ReplayBatch
	if batch < 1 {
		batch = 256
	}
	sub := d.Corpus.Subset(prefix)

	inc := &IncrementalResult{PrefixPapers: prefix, StreamedPapers: total - prefix}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	pl, err := core.Run(sub, cfg.Core)
	if err != nil {
		return nil, fmt.Errorf("accuracy: prefix pipeline (%d papers): %w", prefix, err)
	}
	replayStart := time.Now()
	stream := d.Corpus.Papers()[prefix:]
	for off := 0; off < len(stream); off += batch {
		end := off + batch
		if end > len(stream) {
			end = len(stream)
		}
		if _, err := pl.AddPapers(context.Background(), stream[off:end]); err != nil {
			return nil, fmt.Errorf("accuracy: replay batch at %d: %w", off, err)
		}
		inc.EpochPublishes++
	}
	inc.WallNs = time.Since(t0).Nanoseconds()
	inc.ReplayNs = time.Since(replayStart).Nanoseconds()
	runtime.ReadMemStats(&after)
	inc.TotalAllocBytes = after.TotalAlloc - before.TotalAlloc
	inc.TotalAllocs = after.Mallocs - before.Mallocs
	// Evaluate over the FULL corpus's name blocks: prefix slots keep
	// their IDs in the subset, and streamed slots were numbered
	// prefix..total-1 in corpus order by AddPapers, so every full-corpus
	// slot resolves in the incremental network.
	inc.Metrics = EvaluateNetwork(d.Corpus, pl.GCN, names)
	inc.Vertices = pl.GCN.VertexCount()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pl)
	inc.HeapInUseAfter = after.HeapInuse
	return inc, nil
}
