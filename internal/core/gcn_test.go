package core

import (
	"math"
	"testing"
	"time"

	"iuad/internal/bib"
	"iuad/internal/eval"
	"iuad/internal/synth"
)

// testDataset generates a small labeled corpus for pipeline tests. The
// higher repeat bias compensates for the small world (cf.
// experiments.QuickOptions).
func testDataset(seed int64) *synth.Dataset {
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.Authors = 500
	cfg.Communities = 12
	cfg.Vocabulary = 500
	cfg.TopicWordsPerCommunity = 40
	cfg.RepeatCollabBias = 0.75
	return synth.Generate(cfg)
}

// fastCoreConfig shrinks the embedding training for test speed.
func fastCoreConfig() Config {
	cfg := DefaultConfig()
	cfg.Embedding.Dim = 24
	cfg.Embedding.Epochs = 2
	cfg.SampleRate = 0.5 // small corpora need more training pairs
	return cfg
}

// metricsOf evaluates a network's slot assignment over the given names.
func metricsOf(corpus *bib.Corpus, net *Network, names []string) eval.Metrics {
	var pc eval.PairCounts
	for _, name := range names {
		var ins []eval.Instance
		for _, pid := range corpus.PapersWithName(name) {
			p := corpus.Paper(pid)
			idx := p.AuthorIndex(name)
			cluster := net.ClusterOfSlot(Slot{Paper: pid, Index: idx})
			ins = append(ins, eval.Instance{Cluster: cluster, Truth: int(p.TruthAt(idx))})
		}
		pc.AddName(ins)
	}
	return pc.Metrics()
}

func TestRunPipelineEndToEnd(t *testing.T) {
	d := testDataset(23)
	names := d.AmbiguousNames(2)
	if len(names) < 5 {
		t.Fatalf("only %d ambiguous names", len(names))
	}
	cfg := fastCoreConfig()
	pl, err := Run(d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.SCN.Validate(); err != nil {
		t.Fatalf("SCN invalid: %v", err)
	}
	if err := pl.GCN.Validate(); err != nil {
		t.Fatalf("GCN invalid: %v", err)
	}

	scnM := metricsOf(d.Corpus, pl.SCN, names)
	gcnM := metricsOf(d.Corpus, pl.GCN, names)
	t.Logf("SCN: %v", scnM)
	t.Logf("GCN: %v", gcnM)

	// Table IV shape: stage 1 is high precision / low recall; stage 2
	// lifts recall substantially while precision stays in the same band.
	if scnM.MicroP < 0.8 {
		t.Fatalf("SCN precision=%.3f, want ≥0.8 (stage-1 guarantee)", scnM.MicroP)
	}
	if gcnM.MicroR < scnM.MicroR+0.1 {
		t.Fatalf("GCN recall=%.3f did not improve over SCN recall=%.3f by ≥0.1",
			gcnM.MicroR, scnM.MicroR)
	}
	if gcnM.MicroP < scnM.MicroP-0.25 {
		t.Fatalf("GCN precision=%.3f collapsed from SCN precision=%.3f",
			gcnM.MicroP, scnM.MicroP)
	}
	if gcnM.MicroF <= scnM.MicroF {
		t.Fatalf("GCN F1=%.3f not above SCN F1=%.3f", gcnM.MicroF, scnM.MicroF)
	}

	// Every slot must be assigned in the GCN.
	for i := 0; i < d.Corpus.Len(); i++ {
		p := d.Corpus.Paper(bib.PaperID(i))
		for idx := range p.Authors {
			if pl.GCN.ClusterOfSlot(Slot{Paper: p.ID, Index: idx}) < 0 {
				t.Fatalf("unassigned GCN slot (%d,%d)", i, idx)
			}
		}
	}
}

func TestRemergeAtExtremes(t *testing.T) {
	d := testDataset(22)
	pl, err := Run(d.Corpus, fastCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	// +inf threshold: nothing merges; the GCN vertex count equals SCN's.
	high := pl.RemergeAt(math.Inf(1))
	if high.VertexCount() != pl.SCN.VertexCount() {
		t.Fatalf("δ=+inf vertices=%d, want %d", high.VertexCount(), pl.SCN.VertexCount())
	}
	// -inf threshold: every candidate pair merges; per name at most one
	// vertex among candidates remains.
	low := pl.RemergeAt(math.Inf(-1))
	if low.VertexCount() >= high.VertexCount() {
		t.Fatalf("δ=-inf vertices=%d not below δ=+inf vertices=%d",
			low.VertexCount(), high.VertexCount())
	}
	// Monotonicity: lower δ merges at least as much.
	mid := pl.RemergeAt(0)
	if !(low.VertexCount() <= mid.VertexCount() && mid.VertexCount() <= high.VertexCount()) {
		t.Fatalf("vertex counts not monotone in δ: %d, %d, %d",
			low.VertexCount(), mid.VertexCount(), high.VertexCount())
	}
}

func TestPipelineDeterministic(t *testing.T) {
	d := testDataset(23)
	cfg := fastCoreConfig()
	p1, err := Run(d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Run(d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1.GCN.VertexCount() != p2.GCN.VertexCount() {
		t.Fatalf("nondeterministic GCN size: %d vs %d",
			p1.GCN.VertexCount(), p2.GCN.VertexCount())
	}
	for slot, v1 := range p1.GCN.SlotVertex {
		if v2 := p2.GCN.SlotVertex[slot]; v1 != v2 {
			t.Fatalf("slot %+v assigned differently: %d vs %d", slot, v1, v2)
		}
	}
}

// TestRunReportsEveryStage: a fit through Run laps stage 1 and the
// embedding fit through StageHook, once each and before any stage-2
// phase, so a caller that sums the hook's durations has the whole fit.
func TestRunReportsEveryStage(t *testing.T) {
	cfg := fastCoreConfig()
	var stages []string
	cfg.StageHook = func(stage string, d time.Duration) {
		if d < 0 {
			t.Errorf("stage %q took %v", stage, d)
		}
		stages = append(stages, stage)
	}
	if _, err := Run(testDataset(21).Corpus, cfg); err != nil {
		t.Fatal(err)
	}
	if len(stages) < 3 || stages[0] != "scn" || stages[1] != "embeddings" || stages[2] != "score-initial" {
		t.Fatalf("stages %q, want scn, embeddings, score-initial, …", stages)
	}
	for _, s := range stages[2:] {
		if s == "scn" || s == "embeddings" {
			t.Fatalf("stages %q: %q reported twice", stages, s)
		}
	}
}

func TestSingleFeatureMask(t *testing.T) {
	d := testDataset(24)
	cfg := fastCoreConfig()
	cfg.FeatureMask = make([]bool, NumSimilarities)
	cfg.FeatureMask[SimCommunity] = true
	pl, err := Run(d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pl.Model.Specs); got != 1 {
		t.Fatalf("single-feature model has %d specs", got)
	}
	names := d.AmbiguousNames(2)
	scnM := metricsOf(d.Corpus, pl.SCN, names)
	// Fig. 6 protocol: a single similarity must do real work — lift
	// recall above the SCN's — at SOME threshold offset in its sweep.
	improved := false
	for _, delta := range []float64{-60, -40, -25, -15, -8, -4, 0, 4} {
		m := metricsOf(d.Corpus, pl.RemergeAt(delta), names)
		if m.MicroR > scnM.MicroR {
			improved = true
			break
		}
	}
	if !improved {
		t.Fatal("single-feature GCN never improved recall across the δ sweep")
	}
}

func TestIncrementalAddPaper(t *testing.T) {
	d := testDataset(25)
	// Hold out the newest 60 papers (corpus is year-ordered).
	n := d.Corpus.Len()
	held := 60
	base := d.Corpus.Subset(n - held)
	pl, err := Run(base, fastCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	sizeBefore := pl.GCN.VertexCount()

	correct, scoredSlots := 0, 0
	for i := n - held; i < n; i++ {
		orig := d.Corpus.Paper(bib.PaperID(i))
		p := bib.Paper{
			Title: orig.Title, Venue: orig.Venue, Year: orig.Year,
			Authors: append([]string(nil), orig.Authors...),
		}
		assignments, err := pl.AddPaper(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(assignments) != len(orig.Authors) {
			t.Fatalf("assignments=%d, authors=%d", len(assignments), len(orig.Authors))
		}
		for idx, a := range assignments {
			if a.Created {
				continue
			}
			// The assigned vertex's majority ground-truth author should
			// match the slot's truth.
			maj := majorityTruth(base, pl.GCN, a.Vertex)
			if maj == int(orig.TruthAt(idx)) {
				correct++
			}
			scoredSlots++
		}
	}
	if scoredSlots == 0 {
		t.Fatal("no held-out slot attached to an existing vertex")
	}
	acc := float64(correct) / float64(scoredSlots)
	t.Logf("incremental attach accuracy=%.3f over %d slots", acc, scoredSlots)
	if acc < 0.75 {
		t.Fatalf("incremental attach accuracy=%.3f, want ≥0.75", acc)
	}
	if pl.GCN.VertexCount() < sizeBefore {
		t.Fatal("vertex count shrank during incremental updates")
	}
	if err := pl.GCN.Validate(); err != nil {
		t.Fatalf("GCN invalid after incremental updates: %v", err)
	}
}

// majorityTruth returns the most common ground-truth author among the
// base-corpus papers of vertex v (for the vertex's own name).
func majorityTruth(corpus *bib.Corpus, net *Network, v int) int {
	name := net.Verts[v].Name
	counts := map[int]int{}
	for _, pid := range net.Verts[v].Papers {
		if int(pid) >= corpus.Len() {
			continue
		}
		p := corpus.Paper(pid)
		idx := p.AuthorIndex(name)
		if idx < 0 {
			continue
		}
		counts[int(p.TruthAt(idx))]++
	}
	best, bestN := -1, 0
	for tr, c := range counts {
		if c > bestN {
			best, bestN = tr, c
		}
	}
	return best
}

func TestAddPaperValidation(t *testing.T) {
	d := testDataset(26)
	pl, err := Run(d.Corpus, fastCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.AddPaper(bib.Paper{Title: "no authors"}); err == nil {
		t.Fatal("authorless paper accepted")
	}
	var empty Pipeline
	if _, err := empty.AddPaper(bib.Paper{Title: "x", Authors: []string{"A"}}); err == nil {
		t.Fatal("AddPaper before BuildGCN accepted")
	}
}
