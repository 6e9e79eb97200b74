// Package iuad is the public API of this repository: an implementation of
// IUAD — the Incremental and Unsupervised Author Disambiguation algorithm
// of "On Disambiguating Authors: Collaboration Network Reconstruction in
// a Bottom-up Manner" (ICDE 2021).
//
// IUAD resolves which papers belong to which real-world author when many
// authors share a name. It works bottom-up: it first assumes every name
// occurrence is a different person, then (stage 1) recovers only the
// stable collaborative relations — co-author name pairs occurring at
// least η times — into a high-precision Stable Collaboration Network, and
// (stage 2) merges same-name vertices with a probabilistic generative
// model over six similarity functions (network structure, research
// interests, research communities) fitted by EM, yielding the Global
// Collaboration Network. Newly published papers are assigned
// incrementally with no retraining.
//
// # Quick start
//
// The primary surface is the Service: a concurrency-safe disambiguator
// you Open once and then query and feed for the life of the process.
//
//	corpus := iuad.NewCorpus(0)
//	corpus.MustAdd(iuad.Paper{
//		Title:   "Mining Frequent Patterns Without Candidate Generation",
//		Venue:   "SIGMOD",
//		Year:    2000,
//		Authors: []string{"Jia Xu", "Lin Huang"},
//	})
//	// ... add the rest of the paper database ...
//	corpus.Freeze()
//
//	svc, err := iuad.Open(corpus,
//		iuad.WithWorkers(8),            // worker pool (results identical for any value)
//		iuad.WithSnapshot("iuad.snap")) // restore if present; persist on Close
//	if err != nil { ... }
//	defer svc.Close()
//
//	// Query surface — lock-free, served from an immutable published view:
//	author, err := svc.ResolveSlot(iuad.Slot{Paper: 0, Index: 0}) // who wrote slot 0 of paper 0?
//	homonyms := svc.AuthorsByName("Jia Xu")                       // the split homonym set
//	peers, err := svc.Coauthors(author.ID)
//	stats := svc.Stats()
//
//	// Write surface — stream newly published papers (§V-E), no retraining.
//	// Batches share per-neighborhood work and publish one epoch:
//	assignments, err := svc.AddPapers(ctx, []iuad.Paper{ ... })
//
// Readers never block ingest and never observe a partially-applied
// write: each write batch publishes a new immutable epoch, swapped in
// with one atomic store. Open with WithSnapshot restores a saved
// service with no EM re-run and bit-identical behavior.
//
// Ingest is admission-controlled: a bounded queue (WithIngestQueue)
// group-commits concurrent batches into single epoch publishes —
// bit-identical to serial ingest — and sheds load past its bound with
// a typed, retryable error instead of queueing unboundedly. Batches
// are atomic: they either commit whole or (on overload, cancellation,
// or shutdown) leave no trace.
//
//	svc, err := iuad.Open(corpus, iuad.WithIngestQueue(256))
//	...
//	if _, err := svc.AddPapers(ctx, batch); err != nil {
//		var over *iuad.OverloadedError
//		if errors.As(err, &over) {
//			time.Sleep(over.RetryAfter) // backpressure: retry later
//		}
//	}
//
// For crash safety beyond the planned shutdown, open with a
// write-ahead journal instead of a plain snapshot (DESIGN.md §14):
// every acked batch is journaled before the ack, so a kill -9 — or,
// with the per-commit fsync policy, a power cut — loses nothing:
//
//	svc, err := iuad.Open(corpus, iuad.WithJournal("wal/")) // journal owns wal/base.snap
//	...
//	_, err = svc.AddPapers(ctx, batch) // journaled, fsync'd, THEN acked
//	// ... process is SIGKILLed here ...
//
//	// The restart replays the journal on top of the base snapshot and
//	// serves bit-identically to a process that never crashed:
//	svc, err = iuad.Open(nil, iuad.WithJournal("wal/"))
//	rep := svc.JournalRecovery() // batches replayed, torn tail truncated?
//
// cmd/iuadserver exposes the same contract over HTTP (429 +
// Retry-After, stable JSON error codes, SIGTERM drain-then-snapshot),
// and go run ./bench starts that server as a child and drives it over
// loopback with five read/ingest/recovery workloads, checking every
// answer — see DESIGN.md §12 and bench/README.md:
//
//	iuadserver -synthetic -addr :8080 -journal /var/lib/iuad-wal -ingest-queue 256
//	go run ./bench --workload ingest-durable
//
// The lower-level batch API (Disambiguate returning a bare Pipeline)
// remains for offline analysis — threshold sweeps, experiments,
// evaluation — and is what Service wraps.
//
// # Parallelism
//
// The pipeline is parallel over same-name blocks (the natural unit of
// stage-2 work) plus the per-paper scans of stage 1, the EM batch
// E-steps, and incremental candidate scoring. Config.Workers bounds the
// worker pool; DefaultConfig uses one worker per logical CPU and
// Workers=1 runs fully single-threaded.
//
// Determinism guarantee: blocks are processed in any order but results
// are reduced in stable block-key order, so every worker count produces
// bit-identical output — the same networks, the same fitted model, the
// same cluster assignments:
//
//	cfg := iuad.DefaultConfig()
//	cfg.Workers = 8 // identical results to cfg.Workers = 1, just faster
//
// # Snapshots
//
// A service persists itself via Service.Save / Service.Close (with
// WithSnapshot) and restores via Open — no EM re-run, bit-identical
// serving. The pipeline-level helpers remain underneath:
//
//	var buf bytes.Buffer
//	if err := iuad.SavePipeline(&buf, pipeline); err != nil { ... }
//	restored, err := iuad.LoadPipeline(&buf)
//	// restored.AddPaper(...) is bit-identical to pipeline.AddPaper(...)
//
// Internally all hot paths run on interned integer IDs (author names,
// venues and title tokens are hashed exactly once, at Corpus.Freeze);
// the string-based Paper type is the API boundary only. See DESIGN.md
// §4-§6 for the columnar core, the parallel engine and the snapshot
// format.
//
// See the examples/ directory for runnable programs, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the paper-vs-measured
// reproduction results.
package iuad

import (
	"io"
	"os"

	"iuad/internal/bib"
	"iuad/internal/core"
	"iuad/internal/synth"
)

// Paper is a bibliographic record: title, venue, year and the ordered
// co-author name list. Truth labels are optional and only used for
// evaluation.
type Paper = bib.Paper

// Corpus is an immutable paper database with derived indexes.
type Corpus = bib.Corpus

// PaperID identifies a paper within a corpus.
type PaperID = bib.PaperID

// AuthorID is a ground-truth author identity (evaluation corpora only).
type AuthorID = bib.AuthorID

// Slot identifies one author occurrence: the Index-th name of a paper.
type Slot = core.Slot

// Vertex is a conjectured author: a name plus its attributed papers.
type Vertex = core.Vertex

// Network is a collaboration network (SCN or GCN).
type Network = core.Network

// Config parameterizes the IUAD pipeline (η, δ, WL depth, sampling...).
type Config = core.Config

// Pipeline is a fitted disambiguator: the SCN, the GCN, the generative
// model, and the incremental AddPaper entry point.
type Pipeline = core.Pipeline

// Assignment is the incremental decision for one author slot.
type Assignment = core.Assignment

// LabeledPair is curator ground truth for the semi-supervised extension
// (Config.Labels): whether the occurrences of Name in papers A and B are
// the same person. Same-author labels merge unconditionally; both kinds
// anchor the generative model.
type LabeledPair = core.LabeledPair

// ShardInfo is the per-shard serving summary returned by
// Service.Shards (see WithShards and DESIGN.md §11).
type ShardInfo = core.ShardInfo

// ContentionStats is the write-path contention accounting returned by
// Service.Contention.
type ContentionStats = core.ContentionStats

// RecoveryReport describes what a partial snapshot load lost; returned
// by Service.Recovery (see WithPartialRecovery).
type RecoveryReport = core.RecoveryReport

// SyntheticConfig parameterizes the bundled DBLP-like corpus generator
// (used when no real bibliography is at hand; see DESIGN.md).
type SyntheticConfig = synth.Config

// SyntheticDataset is a generated corpus plus its ground truth.
type SyntheticDataset = synth.Dataset

// Similarity-function indexes for Config.FeatureMask and Config.Families
// (γ¹..γ⁶ of the paper's §V-B).
const (
	SimWLKernel     = core.SimWLKernel
	SimCliques      = core.SimCliques
	SimInterests    = core.SimInterests
	SimTimeConsist  = core.SimTimeConsist
	SimRepCommunity = core.SimRepCommunity
	SimCommunity    = core.SimCommunity

	// NumSimilarities is the length FeatureMask/Families must have.
	NumSimilarities = core.NumSimilarities
)

// NewCorpus returns an empty corpus with a capacity hint.
func NewCorpus(paperHint int) *Corpus { return bib.NewCorpus(paperHint) }

// ReadCorpus loads a JSONL corpus (one paper object per line).
func ReadCorpus(r io.Reader) (*Corpus, error) { return bib.ReadJSON(r) }

// WriteCorpus streams a corpus as JSONL.
func WriteCorpus(w io.Writer, c *Corpus) error { return bib.WriteJSON(w, c) }

// LoadCorpusFile reads a JSONL corpus from disk.
func LoadCorpusFile(path string) (*Corpus, error) { return bib.LoadFile(path) }

// SaveCorpusFile writes a JSONL corpus to disk.
func SaveCorpusFile(path string, c *Corpus) error { return bib.SaveFile(path, c) }

// DBLPStats reports what a DBLP parse saw and skipped, including the
// dump's ground-truth label table (see ParseDBLPLabeled).
type DBLPStats = bib.DBLPStats

// DBLPLabels is the ground-truth identity table of a DBLP parse:
// AuthorID ↔ the pre-normalization author key ("Wei Wang 0001").
type DBLPLabels = bib.DBLPLabels

// ParseDBLP streams a dblp.xml-format document into a corpus (maxPapers
// 0 = unlimited). It tolerates the real dump's ISO-8859-1 encoding and
// normalizes DBLP's numeric homonym suffixes away from the names the
// disambiguator sees — but no longer discards what the suffixes encode:
// each author slot's Paper.Truth carries the ground-truth identity the
// dump's curators assigned, so parsed corpora are evaluation-ready.
// Use ParseDBLPLabeled to also receive the parse stats and the label
// table itself.
func ParseDBLP(r io.Reader, maxPapers int) (*Corpus, error) {
	c, _, err := bib.ParseDBLP(r, maxPapers)
	return c, err
}

// ParseDBLPLabeled is ParseDBLP returning the parse stats alongside
// the corpus: record/skip counters plus the ground-truth label table
// (DBLPStats.Labels) mined from DBLP's numeric homonym suffixes — the
// human-curated disambiguation decisions, exactly what evaluation
// needs as ground truth.
func ParseDBLPLabeled(r io.Reader, maxPapers int) (*Corpus, DBLPStats, error) {
	return bib.ParseDBLP(r, maxPapers)
}

// DefaultConfig returns the paper-faithful parameterization (η=2, δ=0,
// h=2, 10% training-pair sampling, vertex splitting on).
func DefaultConfig() Config { return core.DefaultConfig() }

// Disambiguate runs the full two-stage IUAD algorithm (Alg. 1) on a
// frozen corpus, returning the bare fitted pipeline.
//
// Deprecated: servers should use Open, which wraps this fit in the
// concurrency-safe Service (lock-free queries, batched ingest,
// snapshot-on-close). Disambiguate remains fully supported for
// offline/batch analysis that needs the Pipeline directly (threshold
// sweeps, experiments, evaluation).
func Disambiguate(corpus *Corpus, cfg Config) (*Pipeline, error) {
	return core.Run(corpus, cfg)
}

// SavePipeline serializes a fitted pipeline as a versioned binary
// snapshot: the corpus, interned symbol tables, keyword embeddings, the
// SCN and GCN, the fitted generative model, the calibrated threshold,
// and any incrementally streamed papers. A restarted server loads the
// snapshot and answers AddPaper immediately — no EM re-run — with
// assignments bit-identical to the pipeline that never stopped.
//
// Deprecated: servers should persist through Service.Save (or Close
// with WithSnapshot), which additionally records the serving epoch.
// SavePipeline remains supported for pipeline-level tooling.
func SavePipeline(w io.Writer, pl *Pipeline) error { return core.SavePipeline(w, pl) }

// LoadPipeline reconstructs a pipeline saved by SavePipeline.
//
// Deprecated: servers should restore through Open with WithSnapshot.
// LoadPipeline remains supported for pipeline-level tooling.
func LoadPipeline(r io.Reader) (*Pipeline, error) { return core.LoadPipeline(r) }

// SavePipelineFile writes a pipeline snapshot to path.
func SavePipelineFile(path string, pl *Pipeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := core.SavePipeline(f, pl); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadPipelineFile reads a pipeline snapshot from path.
func LoadPipelineFile(path string) (*Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadPipeline(f)
}

// BuildSCN runs only stage 1 (useful to inspect the high-precision
// stable collaboration network on its own).
func BuildSCN(corpus *Corpus, cfg Config) (*Network, error) {
	return core.BuildSCN(corpus, cfg)
}

// DefaultSyntheticConfig parameterizes the bundled corpus generator.
func DefaultSyntheticConfig() SyntheticConfig { return synth.DefaultConfig() }

// GenerateSynthetic builds a labeled DBLP-like corpus for experiments.
func GenerateSynthetic(cfg SyntheticConfig) *SyntheticDataset { return synth.Generate(cfg) }
