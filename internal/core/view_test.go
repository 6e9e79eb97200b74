package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"iuad/internal/bib"
	"iuad/internal/synth"
)

// streamBatch builds deterministic incremental papers mixing known
// authors, brand-new names, known and new venues.
func streamBatch(d *synth.Dataset, n int) []bib.Paper {
	out := make([]bib.Paper, 0, n)
	for k := 0; k < n; k++ {
		p0 := d.Corpus.Paper(bib.PaperID(k % d.Corpus.Len()))
		p := bib.Paper{
			Title: fmt.Sprintf("batch probe %d on adaptive manifold routing", k),
			Venue: p0.Venue,
			Year:  2021 + k%3,
			Authors: []string{
				p0.Authors[0],
				fmt.Sprintf("Batch Author %d", k%7),
			},
		}
		if k%4 == 1 {
			p.Venue = fmt.Sprintf("BATCHVENUE-%d", k)
		}
		if k%4 == 3 && len(p0.Authors) > 1 {
			p.Authors = []string{p0.Authors[1]}
		}
		out = append(out, p)
	}
	return out
}

// TestAddPapersBatchEquivalence is the batched-ingest contract: one
// AddPapers call must register the whole batch with assignments — and
// resulting network state — bit-identical to the serial AddPaper
// stream, for serial and parallel configurations alike.
func TestAddPapersBatchEquivalence(t *testing.T) {
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d := testDataset(17)
			cfg := fastCoreConfig()
			cfg.Workers = workers
			serial, err := Run(d.Corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := Run(d.Corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			papers := streamBatch(d, 24)
			var serialOut [][]Assignment
			for _, p := range papers {
				as, err := serial.AddPaper(p)
				if err != nil {
					t.Fatal(err)
				}
				serialOut = append(serialOut, as)
			}
			batchOut, err := batched.AddPapers(context.Background(), papers)
			if err != nil {
				t.Fatal(err)
			}
			if len(batchOut) != len(serialOut) {
				t.Fatalf("batch ingested %d papers, serial %d", len(batchOut), len(serialOut))
			}
			for i := range serialOut {
				for j := range serialOut[i] {
					a, b := serialOut[i][j], batchOut[i][j]
					if a.Slot != b.Slot || a.Vertex != b.Vertex || a.Created != b.Created ||
						math.Float64bits(a.Score) != math.Float64bits(b.Score) {
						t.Fatalf("paper %d slot %d: serial %+v, batch %+v", i, j, a, b)
					}
				}
			}
			if sv, bv := serial.GCN.VertexCount(), batched.GCN.VertexCount(); sv != bv {
				t.Fatalf("vertex counts diverge: %d vs %d", sv, bv)
			}
			if se, be := serial.GCN.EdgeCount(), batched.GCN.EdgeCount(); se != be {
				t.Fatalf("edge counts diverge: %d vs %d", se, be)
			}
			for s, v := range serial.GCN.SlotVertex {
				if bvv, ok := batched.GCN.SlotVertex[s]; !ok || bvv != v {
					t.Fatalf("slot %+v: serial vertex %d, batch %d (ok=%v)", s, v, bvv, ok)
				}
			}
			if err := batched.GCN.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAddPapersContextCancel checks the partial-prefix contract: a
// cancelled context stops the batch between papers, keeps the ingested
// prefix registered, and reports the context error.
func TestAddPapersContextCancel(t *testing.T) {
	d := testDataset(17)
	pl, err := Run(d.Corpus, fastCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := len(pl.GCN.SlotVertex)
	out, err := pl.AddPapers(ctx, streamBatch(d, 4))
	if err == nil {
		t.Fatal("cancelled batch reported no error")
	}
	if len(out) != 0 {
		t.Fatalf("pre-cancelled context ingested %d papers", len(out))
	}
	if got := len(pl.GCN.SlotVertex); got != before {
		t.Fatalf("slot table grew from %d to %d despite cancellation", before, got)
	}
	// A live context ingests the whole batch.
	out, err = pl.AddPapers(context.Background(), streamBatch(d, 4))
	if err != nil || len(out) != 4 {
		t.Fatalf("live batch: %d papers, err=%v", len(out), err)
	}
}

// TestViewPublisher drives the publisher through enough epochs to
// cross the delta-flatten threshold, checking after every publish that
// the view answers exactly like the pipeline it was derived from and
// that earlier views were not corrupted by later publishes.
func TestViewPublisher(t *testing.T) {
	d := testDataset(17)
	pl, err := Run(d.Corpus, fastCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	vp := NewViewPublisher(pl, 0)
	checkView := func(v *View) {
		t.Helper()
		st := v.Stats()
		if st.Authors != len(pl.GCN.Verts) || st.Papers != pl.Corpus.Len()+len(pl.extra) {
			t.Fatalf("stats %+v out of sync with pipeline", st)
		}
		for id := 0; id < st.Authors; id++ {
			name, ok := v.AuthorName(id)
			if !ok || name != pl.GCN.Verts[id].Name {
				t.Fatalf("vertex %d name %q (ok=%v), want %q", id, name, ok, pl.GCN.Verts[id].Name)
			}
			papers, ok := v.AuthorPapers(id)
			if !ok || len(papers) != len(pl.GCN.Verts[id].Papers) {
				t.Fatalf("vertex %d: %d papers, want %d", id, len(papers), len(pl.GCN.Verts[id].Papers))
			}
			for k := range papers {
				if papers[k] != pl.GCN.Verts[id].Papers[k] {
					t.Fatalf("vertex %d paper %d diverges", id, k)
				}
			}
			co, _ := v.Coauthors(id)
			if len(co) != pl.GCN.G.Degree(id) {
				t.Fatalf("vertex %d: %d coauthors, want degree %d", id, len(co), pl.GCN.G.Degree(id))
			}
		}
		for s, want := range pl.GCN.SlotVertex {
			got, ok := v.ResolveSlot(s)
			if !ok || got != want {
				t.Fatalf("slot %+v resolved to %d (ok=%v), want %d", s, got, ok, want)
			}
		}
	}
	checkView(vp.Current())
	if _, ok := vp.Current().ResolveSlot(Slot{Paper: bib.PaperID(pl.Corpus.Len() + 99), Index: 0}); ok {
		t.Fatal("unpublished slot resolved")
	}

	first := vp.Current()
	firstAuthors := first.Stats().Authors
	// Enough single-paper publishes to force delta flattening
	// (flattenMin entries touch well past the threshold).
	papers := streamBatch(d, 2*flattenMin)
	for _, p := range papers {
		as, err := pl.AddPapers(context.Background(), []bib.Paper{p})
		if err != nil {
			t.Fatal(err)
		}
		v := vp.Publish(as)
		if v != vp.Current() {
			t.Fatal("Publish result is not Current")
		}
		checkView(v)
	}
	if got := vp.Current().Epoch(); got != uint64(len(papers)) {
		t.Fatalf("epoch %d after %d publishes", got, len(papers))
	}
	// The epoch-0 view still answers from its own snapshot: stats did
	// not move and no new vertices leaked in.
	if st := first.Stats(); st.Authors != firstAuthors || st.StreamedPapers != 0 {
		t.Fatalf("old view mutated: %+v", st)
	}
	if _, ok := first.ResolveSlot(Slot{Paper: bib.PaperID(pl.Corpus.Len()), Index: 0}); ok {
		t.Fatal("old view resolves a slot published after it")
	}
}

// TestViewMatchesPipeline checks that the initial view answers every
// vertex, name listing and slot exactly as the pipeline it was built
// from.
func TestViewMatchesPipeline(t *testing.T) {
	d := testDataset(21)
	pl, err := Run(d.Corpus, fastCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := NewViewPublisher(pl, 0).Current()
	for id := range pl.GCN.Verts {
		vert := &pl.GCN.Verts[id]
		name, ok := v.AuthorName(id)
		if !ok || name != vert.Name {
			t.Fatalf("AuthorName(%d) = %q/%v, want %q", id, name, ok, vert.Name)
		}
		papers, _ := v.AuthorPapers(id)
		if len(papers) != len(vert.Papers) {
			t.Fatalf("vertex %d papers %d, want %d", id, len(papers), len(vert.Papers))
		}
		for i := range papers {
			if papers[i] != vert.Papers[i] {
				t.Fatalf("vertex %d paper %d differs", id, i)
			}
		}
		nbrs, _ := v.Coauthors(id)
		want := appendNeighborIDs(pl.GCN, id, nil)
		if len(nbrs) != len(want) {
			t.Fatalf("vertex %d degree %d, want %d", id, len(nbrs), len(want))
		}
		for i := range nbrs {
			if nbrs[i] != want[i] {
				t.Fatalf("vertex %d neighbor %d differs", id, i)
			}
		}
		found := false
		for _, x := range v.VerticesOfName(vert.Name) {
			found = found || int(x) == id
		}
		if !found {
			t.Fatalf("VerticesOfName(%q) misses vertex %d", vert.Name, id)
		}
	}
	for slot, want := range pl.GCN.SlotVertex {
		got, ok := v.ResolveSlot(slot)
		if !ok || got != want {
			t.Fatalf("ResolveSlot(%+v) = %d/%v, want %d", slot, got, ok, want)
		}
		// An index past the paper's slots must not wrap onto a real one.
		if _, ok := v.ResolveSlot(Slot{Paper: slot.Paper, Index: slot.Index + 1<<32}); ok {
			t.Fatalf("ResolveSlot(%+v + 2^32) resolved", slot)
		}
	}
}

// TestPublishEquivalence streams batches through a publisher and
// requires, after every publish, that the incrementally published view
// answers exactly like a view built from scratch over the same
// pipeline — the base+delta layering must be invisible.
func TestPublishEquivalence(t *testing.T) {
	d := testDataset(22)
	pl, err := Run(d.Corpus, fastCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	vp := NewViewPublisher(pl, 0)
	const rounds, per = 6, 5
	for r := 0; r < rounds; r++ {
		batch := streamBatch(d, per*(r+1))[per*r:]
		res, err := pl.AddPapers(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		got := vp.Publish(res)
		want := NewViewPublisher(pl, got.Epoch()).Current()
		if got.Stats() != want.Stats() {
			t.Fatalf("round %d: stats %+v, want %+v", r, got.Stats(), want.Stats())
		}
		for id := 0; id < got.Stats().Authors; id++ {
			gn, gok := got.AuthorName(id)
			wn, wok := want.AuthorName(id)
			if gn != wn || gok != wok {
				t.Fatalf("round %d: AuthorName(%d) = %q, want %q", r, id, gn, wn)
			}
			if gv, wv := got.VerticesOfName(gn), want.VerticesOfName(wn); fmt.Sprint(gv) != fmt.Sprint(wv) {
				t.Fatalf("round %d: VerticesOfName(%q) = %v, want %v", r, gn, gv, wv)
			}
			gp, _ := got.AuthorPapers(id)
			wp, _ := want.AuthorPapers(id)
			if fmt.Sprint(gp) != fmt.Sprint(wp) {
				t.Fatalf("round %d: vertex %d papers %v, want %v", r, id, gp, wp)
			}
			gc, _ := got.Coauthors(id)
			wc, _ := want.Coauthors(id)
			if fmt.Sprint(gc) != fmt.Sprint(wc) {
				t.Fatalf("round %d: vertex %d coauthors %v, want %v", r, id, gc, wc)
			}
		}
		for p := 0; p < got.Stats().Papers; p++ {
			meta, _ := got.PaperMeta(bib.PaperID(p))
			for i := range meta.Authors {
				s := Slot{Paper: bib.PaperID(p), Index: i}
				gv, gok := got.ResolveSlot(s)
				wv, wok := want.ResolveSlot(s)
				if gv != wv || gok != wok {
					t.Fatalf("round %d: ResolveSlot(%+v) = %d/%v, want %d/%v", r, s, gv, gok, wv, wok)
				}
			}
		}
	}
}
