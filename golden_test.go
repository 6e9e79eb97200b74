package iuad_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"iuad"
)

// -update regenerates testdata/golden_equiv.json from the current
// implementation. The committed file was generated by the pre-intern
// string-keyed pipeline; the interned columnar core must reproduce it
// bit for bit.
var updateGolden = flag.Bool("update", false, "rewrite golden pipeline fixtures")

// goldenPipeline pins every numeric output of one Disambiguate run.
// Floats are stored as IEEE-754 bit patterns so "equal" means identical
// to the last ulp, not approximately equal after decimal round-trips.
type goldenPipeline struct {
	Corpus          string             `json:"corpus"`
	Papers          int                `json:"papers"`
	SCNVerts        int                `json:"scn_verts"`
	SCNEdges        int                `json:"scn_edges"`
	GCNVerts        int                `json:"gcn_verts"`
	GCNEdges        int                `json:"gcn_edges"`
	TrainingPairs   int                `json:"training_pairs"`
	CalibratedDelta uint64             `json:"calibrated_delta_bits"`
	ModelP          uint64             `json:"model_p_bits"`
	ModelLL         uint64             `json:"model_ll_bits"`
	ModelIters      int                `json:"model_iters"`
	MatchedMeans    []uint64           `json:"matched_mean_bits"`
	UnmatchedMeans  []uint64           `json:"unmatched_mean_bits"`
	ScoredPairs     int                `json:"scored_pairs"`
	ScoredHash      uint64             `json:"scored_hash"`
	SlotHash        uint64             `json:"slot_hash"`
	Incremental     []goldenAssignment `json:"incremental"`
}

// goldenAssignment pins one AddPaper slot decision.
type goldenAssignment struct {
	Vertex  int    `json:"vertex"`
	Created bool   `json:"created"`
	Score   uint64 `json:"score_bits"`
}

func writeU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func capturePipeline(t *testing.T, label string, scfg iuad.SyntheticConfig) goldenPipeline {
	t.Helper()
	d := iuad.GenerateSynthetic(scfg)
	pl, err := iuad.Disambiguate(d.Corpus, equivCoreConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	g := goldenPipeline{
		Corpus:          label,
		Papers:          d.Corpus.Len(),
		SCNVerts:        pl.SCN.VertexCount(),
		SCNEdges:        pl.SCN.EdgeCount(),
		GCNVerts:        pl.GCN.VertexCount(),
		GCNEdges:        pl.GCN.EdgeCount(),
		TrainingPairs:   pl.TrainingPairs,
		CalibratedDelta: math.Float64bits(pl.CalibratedDelta),
		ModelP:          math.Float64bits(pl.Model.P),
		ModelLL:         math.Float64bits(pl.Model.LogLikelihood),
		ModelIters:      pl.Model.Iterations,
	}
	for i := range pl.Model.Specs {
		g.MatchedMeans = append(g.MatchedMeans, math.Float64bits(pl.Model.MatchedMean(i)))
		g.UnmatchedMeans = append(g.UnmatchedMeans, math.Float64bits(pl.Model.UnmatchedMean(i)))
	}
	scored := pl.ScoredPairs()
	g.ScoredPairs = len(scored)
	sh := fnv.New64a()
	for _, sp := range scored {
		writeU64(sh, uint64(sp.A))
		writeU64(sh, uint64(sp.B))
		writeU64(sh, math.Float64bits(sp.Score))
	}
	g.ScoredHash = sh.Sum64()

	// Slot assignments hashed in (paper, index) order — the full cluster
	// assignment of every author occurrence.
	th := fnv.New64a()
	for i := 0; i < d.Corpus.Len(); i++ {
		p := d.Corpus.Paper(iuad.PaperID(i))
		for idx := range p.Authors {
			v := pl.GCN.ClusterOfSlot(iuad.Slot{Paper: p.ID, Index: idx})
			writeU64(th, uint64(i))
			writeU64(th, uint64(idx))
			writeU64(th, uint64(int64(v)))
		}
	}
	g.SlotHash = th.Sum64()

	// Incremental probes: same construction as TestParallelSerialEquivalence.
	for k := 0; k < 3; k++ {
		paper := iuad.Paper{
			Title:   fmt.Sprintf("parallel equivalence probe %d", k),
			Venue:   d.Corpus.Paper(iuad.PaperID(k)).Venue,
			Year:    2021,
			Authors: []string{d.Corpus.Paper(iuad.PaperID(k)).Authors[0]},
		}
		as, err := pl.AddPaper(paper)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range as {
			g.Incremental = append(g.Incremental, goldenAssignment{
				Vertex:  a.Vertex,
				Created: a.Created,
				Score:   math.Float64bits(a.Score),
			})
		}
	}
	return g
}

// TestGoldenPipelineRegression asserts the pipeline reproduces, bit for
// bit, the cluster assignments, model parameters, pair scores and
// incremental decisions recorded from the pre-refactor string-keyed
// implementation. Run with -update to regenerate the fixture.
func TestGoldenPipelineRegression(t *testing.T) {
	path := filepath.Join("testdata", "golden_equiv.json")
	var got []goldenPipeline
	for ci, scfg := range equivSynthConfigs() {
		label := fmt.Sprintf("corpus%d_seed%d", ci, scfg.Seed)
		got = append(got, capturePipeline(t, label, scfg))
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with -update): %v", err)
	}
	var want []goldenPipeline
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d corpora, current harness has %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Corpus != g.Corpus {
			t.Fatalf("corpus %d: label %q, fixture %q", i, g.Corpus, w.Corpus)
		}
		compareGolden(t, w, g)
	}
}

func compareGolden(t *testing.T, want, got goldenPipeline) {
	t.Helper()
	fail := func(field string, g, w interface{}) {
		t.Errorf("%s: %s = %v, golden %v", want.Corpus, field, g, w)
	}
	if got.Papers != want.Papers {
		fail("papers", got.Papers, want.Papers)
	}
	if got.SCNVerts != want.SCNVerts {
		fail("scn_verts", got.SCNVerts, want.SCNVerts)
	}
	if got.SCNEdges != want.SCNEdges {
		fail("scn_edges", got.SCNEdges, want.SCNEdges)
	}
	if got.GCNVerts != want.GCNVerts {
		fail("gcn_verts", got.GCNVerts, want.GCNVerts)
	}
	if got.GCNEdges != want.GCNEdges {
		fail("gcn_edges", got.GCNEdges, want.GCNEdges)
	}
	if got.TrainingPairs != want.TrainingPairs {
		fail("training_pairs", got.TrainingPairs, want.TrainingPairs)
	}
	if got.CalibratedDelta != want.CalibratedDelta {
		fail("calibrated_delta_bits", got.CalibratedDelta, want.CalibratedDelta)
	}
	if got.ModelP != want.ModelP {
		fail("model_p_bits", got.ModelP, want.ModelP)
	}
	if got.ModelLL != want.ModelLL {
		fail("model_ll_bits", got.ModelLL, want.ModelLL)
	}
	if got.ModelIters != want.ModelIters {
		fail("model_iters", got.ModelIters, want.ModelIters)
	}
	for i := range want.MatchedMeans {
		if i >= len(got.MatchedMeans) || got.MatchedMeans[i] != want.MatchedMeans[i] {
			fail(fmt.Sprintf("matched_mean_bits[%d]", i), got.MatchedMeans, want.MatchedMeans)
			break
		}
	}
	for i := range want.UnmatchedMeans {
		if i >= len(got.UnmatchedMeans) || got.UnmatchedMeans[i] != want.UnmatchedMeans[i] {
			fail(fmt.Sprintf("unmatched_mean_bits[%d]", i), got.UnmatchedMeans, want.UnmatchedMeans)
			break
		}
	}
	if got.ScoredPairs != want.ScoredPairs {
		fail("scored_pairs", got.ScoredPairs, want.ScoredPairs)
	}
	if got.ScoredHash != want.ScoredHash {
		fail("scored_hash", got.ScoredHash, want.ScoredHash)
	}
	if got.SlotHash != want.SlotHash {
		fail("slot_hash", got.SlotHash, want.SlotHash)
	}
	if len(got.Incremental) != len(want.Incremental) {
		fail("incremental len", len(got.Incremental), len(want.Incremental))
		return
	}
	for i := range want.Incremental {
		if got.Incremental[i] != want.Incremental[i] {
			fail(fmt.Sprintf("incremental[%d]", i), got.Incremental[i], want.Incremental[i])
		}
	}
}
