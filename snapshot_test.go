package iuad_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iuad"
)

// streamProbes builds a deterministic mix of incremental papers: known
// authors, brand-new co-authors, known and never-seen venues, titles
// with out-of-corpus keywords — every symbol path of the interned
// tables.
func streamProbes(d *iuad.SyntheticDataset, phase string, n int) []iuad.Paper {
	var out []iuad.Paper
	for k := 0; k < n; k++ {
		p0 := d.Corpus.Paper(iuad.PaperID(k % d.Corpus.Len()))
		paper := iuad.Paper{
			Title: fmt.Sprintf("snapshot %s probe %d on quantum flux taxonomy", phase, k),
			Venue: p0.Venue,
			Year:  2021 + k%3,
			Authors: []string{
				p0.Authors[0],
				fmt.Sprintf("Brand New %s Author %d", phase, k),
			},
		}
		if k%3 == 1 {
			paper.Venue = fmt.Sprintf("NEWVENUE-%s-%d", phase, k)
		}
		if k%3 == 2 && len(p0.Authors) > 1 {
			paper.Authors = []string{p0.Authors[1]}
		}
		out = append(out, paper)
	}
	return out
}

func addAll(t *testing.T, pl *iuad.Pipeline, papers []iuad.Paper) [][]iuad.Assignment {
	t.Helper()
	var out [][]iuad.Assignment
	for _, p := range papers {
		as, err := pl.AddPaper(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, as)
	}
	return out
}

func assertSameAssignments(t *testing.T, label string, live, loaded [][]iuad.Assignment) {
	t.Helper()
	if len(live) != len(loaded) {
		t.Fatalf("%s: %d vs %d papers", label, len(live), len(loaded))
	}
	for i := range live {
		if len(live[i]) != len(loaded[i]) {
			t.Fatalf("%s paper %d: %d vs %d assignments", label, i, len(live[i]), len(loaded[i]))
		}
		for j := range live[i] {
			a, b := live[i][j], loaded[i][j]
			if a.Slot != b.Slot || a.Vertex != b.Vertex || a.Created != b.Created ||
				math.Float64bits(a.Score) != math.Float64bits(b.Score) {
				t.Fatalf("%s paper %d slot %d: live %+v, loaded %+v", label, i, j, a, b)
			}
		}
	}
}

// saveBase writes pl as a base snapshot the way a fitted pipeline is saved
// (NewService, then SaveFile) and returns the file.
func saveBase(t *testing.T, pl *iuad.Pipeline) string {
	t.Helper()
	svc, err := iuad.NewService(pl)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.snap")
	if err := svc.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// restoreBase opens a base snapshot the way iuadserver -snapshot does. The
// service is not closed: Close would write the file back.
func restoreBase(t *testing.T, path string) *iuad.Service {
	t.Helper()
	svc, err := iuad.Open(nil, iuad.WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// addAllService is addAll through a service, one paper per batch.
func addAllService(t *testing.T, svc *iuad.Service, papers []iuad.Paper) [][]iuad.Assignment {
	t.Helper()
	var out [][]iuad.Assignment
	for _, p := range papers {
		as, err := svc.AddPaper(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, as)
	}
	return out
}

// TestSnapshotRoundTrip is the serving contract of the base snapshot: a
// pipeline saved mid-stream and restored must answer AddPaper exactly
// like the pipeline that never stopped — same vertices, same scores to
// the last bit — for serial and parallel configurations alike.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			scfg := iuad.DefaultSyntheticConfig()
			scfg.Seed = 11
			scfg.Authors = 300
			scfg.Communities = 8
			d := iuad.GenerateSynthetic(scfg)
			live, err := iuad.Disambiguate(d.Corpus, equivCoreConfig(workers))
			if err != nil {
				t.Fatal(err)
			}
			// Stream papers BEFORE saving, so the snapshot carries extra
			// papers and late-interned symbols (names, venues, keywords).
			preAssignments := addAll(t, live, streamProbes(d, "pre", 6))

			path := saveBase(t, live)
			svc := restoreBase(t, path)
			loaded := svc.Pipeline()
			if svc.Epoch() != 0 {
				t.Fatalf("restored epoch %d, want 0", svc.Epoch())
			}
			if fi, err := os.Stat(path); err == nil {
				t.Logf("snapshot: %d bytes", fi.Size())
			}

			// Static state must match bit for bit.
			if got, want := loaded.CalibratedDelta, live.CalibratedDelta; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("CalibratedDelta %v vs %v", got, want)
			}
			if got, want := loaded.TrainingPairs, live.TrainingPairs; got != want {
				t.Errorf("TrainingPairs %d vs %d", got, want)
			}
			for _, net := range []struct {
				name         string
				live, loaded *iuad.Network
			}{{"SCN", live.SCN, loaded.SCN}, {"GCN", live.GCN, loaded.GCN}} {
				if got, want := net.loaded.VertexCount(), net.live.VertexCount(); got != want {
					t.Fatalf("%s verts %d vs %d", net.name, got, want)
				}
				if got, want := net.loaded.EdgeCount(), net.live.EdgeCount(); got != want {
					t.Fatalf("%s edges %d vs %d", net.name, got, want)
				}
				if err := net.loaded.Validate(); err != nil {
					t.Fatalf("%s: %v", net.name, err)
				}
			}
			ss, ls := live.ScoredPairs(), loaded.ScoredPairs()
			if len(ss) != len(ls) {
				t.Fatalf("scored pairs %d vs %d", len(ls), len(ss))
			}
			for i := range ss {
				if ss[i] != ls[i] {
					t.Fatalf("scored pair %d: %+v vs %+v", i, ls[i], ss[i])
				}
			}
			for i := range live.Model.Specs {
				if live.Model.MatchedMean(i) != loaded.Model.MatchedMean(i) ||
					live.Model.UnmatchedMean(i) != loaded.Model.UnmatchedMean(i) {
					t.Fatalf("model means diverge at feature %d", i)
				}
			}
			// Pre-save slot assignments are part of the snapshot.
			for _, as := range preAssignments {
				for _, a := range as {
					if got := loaded.GCN.ClusterOfSlot(a.Slot); got != a.Vertex {
						t.Fatalf("pre-save slot %+v: loaded %d, live %d", a.Slot, got, a.Vertex)
					}
				}
			}

			// The contract: the live pipeline and the restored service
			// stream the same future papers to bit-identical assignments.
			post := streamProbes(d, "post", 9)
			assertSameAssignments(t, "post-save",
				addAll(t, live, post), addAllService(t, svc, post))
		})
	}
}

// TestSnapshotDeterministicBytes pins the encode side: saving the same
// service twice, or saving a restored service, must produce identical
// bytes (maps are serialized in sorted order).
func TestSnapshotDeterministicBytes(t *testing.T) {
	scfg := iuad.DefaultSyntheticConfig()
	scfg.Seed = 7
	scfg.Authors = 200
	d := iuad.GenerateSynthetic(scfg)
	pl, err := iuad.Disambiguate(d.Corpus, equivCoreConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, pl, streamProbes(d, "det", 3))
	svc, err := iuad.NewService(pl)
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := svc.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := svc.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of one service differ")
	}
	path := filepath.Join(t.TempDir(), "base.snap")
	if err := os.WriteFile(path, a.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := restoreBase(t, path).Save(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("save→restore→save is not byte-stable")
	}
}

// TestSnapshotEmptyCorpus round-trips the degenerate model-less pipeline
// (empty frozen corpus): AddPaper must keep working after restore.
func TestSnapshotEmptyCorpus(t *testing.T) {
	c := iuad.NewCorpus(0)
	c.Freeze()
	pl, err := iuad.Disambiguate(c, iuad.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	svc := restoreBase(t, saveBase(t, pl))
	paper := iuad.Paper{Title: "first ever", Venue: "V", Year: 2021, Authors: []string{"Solo Author"}}
	al, err := pl.AddPaper(paper)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := svc.AddPaper(context.Background(), paper)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssignments(t, "empty-corpus", [][]iuad.Assignment{al}, [][]iuad.Assignment{bl})
}

// openRefused requires Open over the base at path to fail with the
// typed *SnapshotError naming path.
func openRefused(t *testing.T, label, path string, corpus *iuad.Corpus, opts ...iuad.Option) {
	t.Helper()
	svc, err := iuad.Open(corpus, opts...)
	if err == nil {
		svc.Close()
		t.Fatalf("%s: Open succeeded", label)
	}
	var se *iuad.SnapshotError
	if !errors.As(err, &se) || se.Path != path || !strings.Contains(err.Error(), path) {
		t.Fatalf("%s: Open = %v, want a *iuad.SnapshotError naming %s", label, err, path)
	}
}

// TestSnapshotRejectsGarbage pins the failure modes: a file that is not
// a snapshot and every truncation of one are refused with the typed
// error, not a panic and not "no snapshot".
func TestSnapshotRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.snap")
	if err := os.WriteFile(path, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	openRefused(t, "garbage", path, nil, iuad.WithSnapshot(path))

	c := iuad.NewCorpus(0)
	c.Freeze()
	pl, err := iuad.Disambiguate(c, iuad.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(saveBase(t, pl))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		openRefused(t, fmt.Sprintf("truncation at %d of %d", cut, len(full)), path, nil, iuad.WithSnapshot(path))
	}
}

// TestSnapshotCorruptBaseRefused pins the base's checksum: 401 evenly
// spaced single-bit flips, one appended byte and a cut-off CRC trailer
// are each refused by Open — through WithSnapshot and through a
// journal's base — with the typed error naming the file. None of them
// is read as "no snapshot": the corpus is at hand, and a fit fails the
// test. The refused file is left byte-identical.
func TestSnapshotCorruptBaseRefused(t *testing.T) {
	d := serviceDataset(5)
	cfg := equivCoreConfig(1)
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var buf bytes.Buffer
	if err := svc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	type variant struct {
		name string
		b    []byte
	}
	var variants []variant
	const flips = 401
	for i := 0; i < flips; i++ {
		off := i * (len(full) - 1) / (flips - 1)
		b := bytes.Clone(full)
		b[off] ^= 1 << (i % 8)
		variants = append(variants, variant{fmt.Sprintf("flip byte %d bit %d", off, i%8), b})
	}
	variants = append(variants,
		variant{"appended byte", append(bytes.Clone(full), 0)},
		variant{"CRC cut by 1", full[:len(full)-1]},
		variant{"CRC cut off", full[:len(full)-4]},
	)

	snap := filepath.Join(t.TempDir(), "svc.snap")
	jdir := t.TempDir()
	for _, tc := range []struct {
		name string
		path string
		opt  iuad.Option
	}{
		{"WithSnapshot", snap, iuad.WithSnapshot(snap)},
		{"WithJournal", iuad.JournalBasePath(jdir), iuad.WithJournal(jdir)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := cfg
			// The intact base opens: what follows is refused for its damage.
			if err := os.WriteFile(tc.path, full, 0o644); err != nil {
				t.Fatal(err)
			}
			ok, err := iuad.Open(nil, tc.opt)
			if err != nil {
				t.Fatalf("intact base: %v", err)
			}
			if ok.Stats() != svc.Stats() {
				t.Fatalf("intact base restored %+v, want %+v", ok.Stats(), svc.Stats())
			}
			if err := ok.Close(); err != nil { // releases the journal's directory lock
				t.Fatal(err)
			}
			cfg.StageHook = func(stage string, _ time.Duration) {
				t.Errorf("Open over a corrupt base fitted the corpus (stage %s)", stage)
			}
			for _, v := range variants {
				if err := os.WriteFile(tc.path, v.b, 0o644); err != nil {
					t.Fatal(err)
				}
				openRefused(t, v.name, tc.path, d.Corpus, iuad.WithConfig(cfg), tc.opt)
				if got, err := os.ReadFile(tc.path); err != nil || !bytes.Equal(got, v.b) {
					t.Fatalf("%s: the refused base changed on disk (err %v)", v.name, err)
				}
			}
		})
	}
}
