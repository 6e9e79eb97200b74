package core

import (
	"io"

	"iuad/internal/bib"
	"iuad/internal/intern"
	"iuad/internal/snapshot"
)

// This file writes base snapshots from a pinned View, so a base
// compaction holds the service's write lock only for Pin and encodes
// beside later commits. BasePin.Encode is the one writer of the base:
// Save, SaveFile, Close and every compaction call it. That is sound
// because a View is deeply immutable and carries the whole GCN at its
// epoch, the intern-table tails and the incremental stream are
// append-only, and ingest writes nothing else a snapshot holds (Cfg,
// corpus, Emb, Model, δ). The one thing a View does not store is
// per-edge paper sets: recoverRelations and addPaper make every pair of
// slots of a paper an edge, so EdgePapers(u,v) is exactly Papers(u) ∩
// Papers(v). A pinned epoch encodes to the same bytes as a View built
// afresh from the pipeline at that epoch, and its decode has the live
// GCN; TestPinnedSnapshotMatchesReference pins both.

// BasePin is the state of one epoch pinned for a snapshot.
type BasePin struct {
	pl    *Pipeline
	view  *View
	tails [3][]string // name, venue, word
}

// Pin pins the published epoch. It must run under the owning
// service's write lock, which the writer holds across every ingest and
// publish — that is what keeps the tails and the view at the same
// epoch. O(1).
func (vp *ViewPublisher) Pin() *BasePin {
	c := vp.pl.Corpus
	return &BasePin{
		pl:    vp.pl,
		view:  vp.cur.Load(),
		tails: [3][]string{c.NameTable().Tail(), c.VenueTable().Tail(), c.WordTable().Tail()},
	}
}

// Epoch returns the pinned epoch.
func (p *BasePin) Epoch() uint64 { return p.view.Epoch() }

// Encode writes the base snapshot (BaseVersion) of the pinned epoch.
func (p *BasePin) Encode(w io.Writer) error { return writeBase(w, p) }

// SaveFile writes the pinned epoch to path crash-safely (see
// WriteFileAtomic).
func (p *BasePin) SaveFile(path string) error {
	return WriteFileAtomic(path, p.Encode)
}

// eachEdge visits every collaboration edge once, ascending by (lo, hi).
func (v *View) eachEdge(fn func(u, x int)) {
	for u := 0; u < v.stats.Authors; u++ {
		nbrs, _ := v.Coauthors(u)
		for _, x := range nbrs {
			if int(x) > u {
				fn(u, int(x))
			}
		}
	}
}

// eachSlot visits every assigned slot ascending by (paper, index).
func (v *View) eachSlot(fn func(s Slot, vert int)) {
	for p := 0; p < v.stats.Papers; p++ {
		lo, hi := v.slotOff[p], v.slotOff[p+1]
		for i := lo; i < hi; i++ {
			if vert := v.slotVert[i]; vert >= 0 {
				fn(Slot{Paper: bib.PaperID(p), Index: int(i - lo)}, int(vert))
			}
		}
	}
}

// encodeNetwork writes the pinned GCN: its vertices (interned name,
// isolation, paper set), its collaboration edges ascending by (lo, hi)
// with their paper sets, and its assigned slots ascending by (paper,
// index) with their vertices. The order is fixed, so equal networks
// encode to equal bytes.
func (v *View) encodeNetwork(w *snapshot.Writer) {
	w.Int(v.stats.Authors)
	for id := 0; id < v.stats.Authors; id++ {
		nameID, iso, papers := v.vertexRow(id)
		w.Varint(int64(nameID))
		w.Bool(iso)
		encodePaperIDs(w, papers)
	}
	edges := 0
	v.eachEdge(func(int, int) { edges++ })
	w.Int(edges)
	var buf []bib.PaperID
	v.eachEdge(func(u, x int) {
		w.Int(u)
		w.Int(x)
		buf = v.edgePapers(u, x, buf[:0])
		encodePaperIDs(w, buf)
	})
	slots := 0
	v.eachSlot(func(Slot, int) { slots++ })
	w.Int(slots)
	v.eachSlot(func(s Slot, vert int) {
		w.Varint(int64(s.Paper))
		w.Int(s.Index)
		w.Int(vert)
	})
}

func (v *View) vertexRow(id int) (intern.ID, bool, []bib.PaperID) {
	papers, _ := v.AuthorPapers(id)
	return v.nameIDs[id], v.isolated[id], papers
}

// edgePapers appends Papers(u) ∩ Papers(x) to buf: the papers of edge
// (u,x), see the file comment.
func (v *View) edgePapers(u, x int, buf []bib.PaperID) []bib.PaperID {
	a, _ := v.AuthorPapers(u)
	b, _ := v.AuthorPapers(x)
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			buf = append(buf, a[i])
			i++
			j++
		}
	}
	return buf
}
