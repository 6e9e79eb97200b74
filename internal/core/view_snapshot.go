package core

import (
	"fmt"
	"io"

	"iuad/internal/bib"
	"iuad/internal/intern"
	"iuad/internal/snapshot"
)

// This file writes service snapshots from a pinned View instead of the
// live pipeline, so a base compaction holds the service's write lock
// only for Pin and encodes beside later commits. That is sound because
// a View is deeply immutable and carries the whole GCN at its epoch,
// the intern-table tails and the incremental stream are append-only,
// and ingest writes nothing else a snapshot holds (Cfg, corpus, Emb,
// SCN, Model, δ, scored, forcedMerges). The one thing a View does not
// store is per-edge paper sets: recoverRelations and addPaper make every
// pair of slots of a paper an edge, so EdgePapers(u,v) is exactly
// Papers(u) ∩ Papers(v). The output is byte-identical to the reference
// writers (SaveService / SaveShardedService) at the same epoch;
// TestPinnedSnapshotMatchesReference pins it.

// BasePin is the state of one epoch pinned for a snapshot.
type BasePin struct {
	pl    *Pipeline
	view  *View
	tails [3][]string // name, venue, word
}

// Pin waits for the captured epoch to be published and pins it. It
// must run under the owning service's write lock — that is what keeps
// the tails and the view at the same epoch — and is O(1) apart from
// the wait for an in-flight Apply.
func (vp *ViewPublisher) Pin() *BasePin {
	vp.Sync(vp.epoch)
	c := vp.pl.Corpus
	return &BasePin{
		pl:    vp.pl,
		view:  vp.cur.Load(),
		tails: [3][]string{c.NameTable().Tail(), c.VenueTable().Tail(), c.WordTable().Tail()},
	}
}

// Epoch returns the pinned epoch.
func (p *BasePin) Epoch() uint64 { return p.view.Epoch() }

// Encode writes the single-file (v1001) service snapshot of the pinned
// epoch. Like SaveService it refuses dead vertices.
func (p *BasePin) Encode(w io.Writer) error {
	if len(p.view.deadVertices()) > 0 {
		return fmt.Errorf("core: pipeline carries dead vertices from a partial recovery; only the sharded snapshot format can save it")
	}
	sw := snapshot.NewWriter(w, ServiceSnapshotVersion)
	sw.Uvarint(p.Epoch())
	body := bodyParts{tails: p.tails, extra: p.view.extra, gcn: p.view.encodeNetwork}
	if err := encodePipelineBody(sw, p.pl, body); err != nil {
		return err
	}
	return sw.Close()
}

// SaveFile writes the pinned epoch to path crash-safely: the composite
// manifest-plus-segments format when the view is sharded or carries
// dead vertices, the single-file format otherwise.
func (p *BasePin) SaveFile(path string) error {
	v := p.view
	dead := v.deadVertices()
	if len(v.shards) == 1 && len(dead) == 0 {
		return WriteFileAtomic(path, p.Encode)
	}
	segs := make([]shardSegment, len(v.shards))
	seeds := make([]ShardSeed, len(v.shards))
	for sh, sv := range v.shards {
		seeds[sh] = ShardSeed{Epoch: sv.epoch, Publishes: sv.pubs}
	}
	for id := 0; id < v.stats.Authors; id++ {
		if v.nameIDs[id] >= 0 {
			seg := &segs[v.vertShard[id]]
			seg.verts = append(seg.verts, id)
		}
	}
	v.eachEdge(func(u, x int) {
		seg := &segs[v.vertShard[u]]
		seg.edges = append(seg.edges, [2]int{u, x})
	})
	v.eachSlot(func(s Slot, vert int) {
		seg := &segs[v.vertShard[vert]]
		seg.slots = append(seg.slots, segSlot{slot: s, vert: vert})
	})
	body := bodyParts{tails: p.tails, extra: v.extra}
	return writeComposite(path, p.pl, p.Epoch(), seeds, v.stats.Authors, segs, dead, v, body)
}

// deadVertices lists the vertices voided by a partial recovery.
func (v *View) deadVertices() []int {
	var dead []int
	for id, nid := range v.nameIDs[:v.stats.Authors] {
		if nid < 0 {
			dead = append(dead, id)
		}
	}
	return dead
}

// eachEdge visits every collaboration edge once, ascending by (lo, hi)
// — the order the reference writers sort EdgePapers keys into.
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

// encodeNetwork writes the pinned GCN in encodeNetwork's layout.
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
