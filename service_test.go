package iuad_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iuad"
	"iuad/internal/snapshot"
)

func serviceDataset(seed int64) *iuad.SyntheticDataset {
	scfg := iuad.DefaultSyntheticConfig()
	scfg.Seed = seed
	scfg.Authors = 300
	scfg.Communities = 8
	return iuad.GenerateSynthetic(scfg)
}

func TestOpenTypedErrors(t *testing.T) {
	if _, err := iuad.Open(nil); !errors.Is(err, iuad.ErrNoCorpus) {
		t.Fatalf("Open(nil) = %v, want ErrNoCorpus", err)
	}
	// With no corpus and no file where the snapshot should be, the
	// error names the path that was looked at.
	missing := filepath.Join(t.TempDir(), "missing.snap")
	freshJournal := t.TempDir()
	for _, tc := range []struct {
		opt  iuad.Option
		path string
	}{
		{iuad.WithSnapshot(missing), missing},
		{iuad.WithJournal(freshJournal), iuad.JournalBasePath(freshJournal)},
	} {
		if _, err := iuad.Open(nil, tc.opt); !errors.Is(err, iuad.ErrNoCorpus) || !strings.Contains(err.Error(), tc.path) {
			t.Fatalf("Open(nil) with no snapshot at %s = %v, want ErrNoCorpus naming the path", tc.path, err)
		}
	}
	unfrozen := iuad.NewCorpus(0)
	unfrozen.MustAdd(iuad.Paper{Title: "t", Authors: []string{"A B"}})
	if _, err := iuad.Open(unfrozen); !errors.Is(err, iuad.ErrNotFrozen) {
		t.Fatalf("Open(unfrozen) = %v, want ErrNotFrozen", err)
	}

	// A retired sharded composite base (format 1002) is refused by
	// name — never mistaken for "no snapshot" and silently refit over,
	// and never rewritten.
	d := serviceDataset(5)
	cfg := equivCoreConfig(1)
	cfg.StageHook = func(stage string, _ time.Duration) {
		t.Errorf("Open over a version-1002 base fitted the corpus (stage %s)", stage)
	}
	composite := func(path string) []byte {
		t.Helper()
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := snapshot.NewWriter(f, 1002).Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	snap := filepath.Join(t.TempDir(), "svc.snap")
	jdir := t.TempDir()
	base := iuad.JournalBasePath(jdir)
	for _, tc := range []struct {
		name string
		path string
		opt  iuad.Option
	}{
		{"WithSnapshot", snap, iuad.WithSnapshot(snap)},
		{"WithJournal", base, iuad.WithJournal(jdir)},
	} {
		want := composite(tc.path)
		svc, err := iuad.Open(d.Corpus, iuad.WithConfig(cfg), tc.opt)
		if err == nil {
			svc.Close()
			t.Fatalf("%s: Open over a version-1002 base succeeded", tc.name)
		}
		var se *iuad.SnapshotError
		var ve *iuad.VersionError
		if !errors.As(err, &ve) || ve.Version != 1002 || ve.LastBuild != "3d80390" || !errors.As(err, &se) || se.Path != tc.path {
			t.Fatalf("%s: Open over a version-1002 base = %v, want a *iuad.SnapshotError for %s wrapping a *iuad.VersionError for 1002 naming build 3d80390", tc.name, err, tc.path)
		}
		if got, err := os.ReadFile(tc.path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: the refused base changed on disk (err %v)", tc.name, err)
		}
	}
}

// TestServiceQuerySurface exercises the serving API end to end: open,
// query authors through every read path, ingest through the write
// path, and observe the published epoch advance.
func TestServiceQuerySurface(t *testing.T) {
	d := serviceDataset(41)
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(4)))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	st := svc.Stats()
	if st.Epoch != 0 || st.CorpusPapers != d.Corpus.Len() || st.StreamedPapers != 0 {
		t.Fatalf("initial stats %+v", st)
	}
	if st.Authors == 0 || st.Slots == 0 {
		t.Fatalf("empty published network: %+v", st)
	}

	// Every corpus slot resolves, and the resolved author owns the paper.
	slot := iuad.Slot{Paper: 0, Index: 0}
	author, err := svc.ResolveSlot(slot)
	if err != nil {
		t.Fatal(err)
	}
	if author.Name != d.Corpus.Paper(0).Authors[0] {
		t.Fatalf("slot 0/0 resolved to %q, want %q", author.Name, d.Corpus.Paper(0).Authors[0])
	}
	owns := false
	for _, pid := range author.Papers {
		if pid == 0 {
			owns = true
		}
	}
	if !owns {
		t.Fatalf("author %d does not own paper 0: %v", author.ID, author.Papers)
	}
	if author.FirstYear == 0 || author.LastYear < author.FirstYear {
		t.Fatalf("year span [%d,%d]", author.FirstYear, author.LastYear)
	}
	if len(author.Venues) == 0 {
		t.Fatal("author has no venues despite owning papers")
	}

	// AuthorsByName covers the homonym set; Author round-trips by ID.
	byName := svc.AuthorsByName(author.Name)
	if len(byName) == 0 {
		t.Fatalf("AuthorsByName(%q) empty", author.Name)
	}
	found := false
	for _, a := range byName {
		if a.ID == author.ID {
			found = true
		}
		if a.Name != author.Name {
			t.Fatalf("homonym set leaked name %q", a.Name)
		}
	}
	if !found {
		t.Fatal("resolved author missing from its homonym set")
	}
	again, err := svc.Author(author.ID)
	if err != nil || again.Name != author.Name {
		t.Fatalf("Author(%d) = %+v, %v", author.ID, again, err)
	}

	// Coauthors are consistent with the degree the author reports.
	peers, err := svc.Coauthors(author.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != author.Coauthors {
		t.Fatalf("Coauthors len %d, author.Coauthors %d", len(peers), author.Coauthors)
	}

	// Typed errors on the unknown paths.
	if _, err := svc.Author(st.Authors + 100); !errors.Is(err, iuad.ErrUnknownAuthor) {
		t.Fatalf("unknown author: %v", err)
	}
	if _, err := svc.Coauthors(-1); !errors.Is(err, iuad.ErrUnknownAuthor) {
		t.Fatalf("unknown coauthors: %v", err)
	}
	if _, err := svc.ResolveSlot(iuad.Slot{Paper: iuad.PaperID(st.Papers), Index: 0}); !errors.Is(err, iuad.ErrUnknownSlot) {
		t.Fatalf("unknown slot: %v", err)
	}
	if got := svc.AuthorsByName("No Such Name Anywhere"); len(got) != 0 {
		t.Fatalf("unknown name returned %d authors", len(got))
	}

	// Write path: a batch publishes exactly one new epoch and its
	// assignments are immediately queryable.
	batch := []iuad.Paper{
		{Title: "Serving Probe One", Venue: "VLDB", Year: 2022, Authors: []string{author.Name}},
		{Title: "Serving Probe Two", Venue: "KDD", Year: 2022, Authors: []string{"Brand New Service Author"}},
	}
	res, err := svc.AddPapers(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("batch results %d", len(res))
	}
	st2 := svc.Stats()
	if st2.Epoch != 1 || st2.StreamedPapers != 2 || st2.Papers != st.Papers+2 {
		t.Fatalf("post-batch stats %+v", st2)
	}
	if !res[1][0].Created {
		t.Fatal("brand-new name did not create a vertex")
	}
	created, err := svc.Author(res[1][0].Vertex)
	if err != nil || created.Name != "Brand New Service Author" {
		t.Fatalf("created author %+v, %v", created, err)
	}
	got, err := svc.ResolveSlot(res[0][0].Slot)
	if err != nil || got.ID != res[0][0].Vertex {
		t.Fatalf("streamed slot resolved to %+v, %v", got, err)
	}
	if _, err := svc.Paper(res[0][0].Slot.Paper); err != nil {
		t.Fatal(err)
	}

	// Close shuts the write API, reads keep serving the last epoch.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddPaper(context.Background(), batch[0]); !errors.Is(err, iuad.ErrClosed) {
		t.Fatalf("write after Close: %v", err)
	}
	if svc.Stats().Epoch != 1 {
		t.Fatal("reads stopped after Close")
	}
}

// TestServiceSnapshotRoundTrip is the serving restart contract: a
// service closed with WithSnapshot and reopened from the file restores
// the epoch and answers queries and ingest bit-identically to the
// service that never stopped.
func TestServiceSnapshotRoundTrip(t *testing.T) {
	d := serviceDataset(43)
	path := filepath.Join(t.TempDir(), "svc.snap")

	live, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(2)), iuad.WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	pre := streamProbes(d, "svc", 5)
	if _, err := live.AddPapers(context.Background(), pre); err != nil {
		t.Fatal(err)
	}
	liveStats := live.Stats()
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := iuad.Open(nil, iuad.WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	rs := restored.Stats()
	if rs != liveStats {
		t.Fatalf("restored stats %+v, want %+v", rs, liveStats)
	}

	// Post-restore ingest matches a reference pipeline that never
	// stopped, bit for bit.
	ref, err := iuad.Disambiguate(d.Corpus, equivCoreConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, ref, pre)
	post := streamProbes(d, "post", 5)
	want := addAll(t, ref, post)
	got, err := restored.AddPapers(context.Background(), post)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			a, b := want[i][j], got[i][j]
			if a.Slot != b.Slot || a.Vertex != b.Vertex || a.Created != b.Created ||
				math.Float64bits(a.Score) != math.Float64bits(b.Score) {
				t.Fatalf("paper %d slot %d: ref %+v, restored %+v", i, j, a, b)
			}
		}
	}
	if got := restored.Stats(); got.Epoch != liveStats.Epoch+1 {
		t.Fatalf("restored epoch %d, want %d", got.Epoch, liveStats.Epoch+1)
	}

	// A second restart picks the post-close state up again.
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
	third, err := iuad.Open(nil, iuad.WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if st := third.Stats(); st.StreamedPapers != 10 {
		t.Fatalf("second restore streamed papers %d, want 10", st.StreamedPapers)
	}
}

// TestNewServiceWrapsPipeline checks the shim path: an already-fitted
// pipeline serves through the façade.
func TestNewServiceWrapsPipeline(t *testing.T) {
	d := serviceDataset(47)
	pl, err := iuad.Disambiguate(d.Corpus, equivCoreConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := iuad.NewService(pl)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got, want := svc.Stats().Authors, pl.GCN.VertexCount(); got != want {
		t.Fatalf("served authors %d, pipeline vertices %d", got, want)
	}
	name := d.Corpus.Paper(0).Authors[0]
	if len(svc.AuthorsByName(name)) == 0 {
		t.Fatalf("AuthorsByName(%q) empty through the wrap", name)
	}
	if _, err := iuad.NewService(nil); err == nil {
		t.Fatal("NewService(nil) succeeded")
	}
}
