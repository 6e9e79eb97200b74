package core

import (
	"testing"

	"iuad/internal/bib"
)

// TestPipelinePartitionProperty checks the structural invariants the GCN
// must satisfy regardless of merge quality, across several seeds:
//
//  1. Every author slot is assigned to exactly one vertex of its name.
//  2. A vertex's paper set is exactly the set of papers whose slots
//     resolve to it (the slot → vertex map is a partition refinement of
//     the paper sets).
//  3. Recovered edges only connect vertices that actually share a paper.
func TestPipelinePartitionProperty(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		d := testDataset(seed)
		pl, err := Run(d.Corpus, fastCoreConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		net := pl.GCN
		if err := net.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Invariant 2: reconstruct vertex paper sets from slots.
		fromSlots := make(map[int]map[bib.PaperID]struct{})
		for i := 0; i < d.Corpus.Len(); i++ {
			p := d.Corpus.Paper(bib.PaperID(i))
			for idx := range p.Authors {
				v := net.ClusterOfSlot(Slot{Paper: p.ID, Index: idx})
				if v < 0 {
					t.Fatalf("seed %d: unassigned slot (%d,%d)", seed, i, idx)
				}
				if net.Verts[v].Name != p.Authors[idx] {
					t.Fatalf("seed %d: slot name mismatch", seed)
				}
				if fromSlots[v] == nil {
					fromSlots[v] = map[bib.PaperID]struct{}{}
				}
				fromSlots[v][p.ID] = struct{}{}
			}
		}
		for v := range net.Verts {
			papers := net.Verts[v].Papers
			slotSet := fromSlots[v]
			if len(slotSet) != len(papers) {
				t.Fatalf("seed %d: vertex %d papers=%d but %d slot papers",
					seed, v, len(papers), len(slotSet))
			}
			for _, pid := range papers {
				if _, ok := slotSet[pid]; !ok {
					t.Fatalf("seed %d: vertex %d carries paper %d with no slot",
						seed, v, pid)
				}
			}
		}

		// Invariant 3: every recovered edge's papers contain both
		// endpoints' names.
		for key, papers := range net.EdgePapers {
			nu := net.Verts[key[0]].Name
			nv := net.Verts[key[1]].Name
			for _, pid := range papers {
				p := d.Corpus.Paper(pid)
				if p.AuthorIndex(nu) < 0 || p.AuthorIndex(nv) < 0 {
					t.Fatalf("seed %d: edge %v paper %d lacks endpoint names",
						seed, key, pid)
				}
			}
		}
	}
}

// TestIncrementalNewNames streams papers whose author names do not exist
// in the corpus at all: every slot must create a fresh vertex.
func TestIncrementalNewNames(t *testing.T) {
	d := testDataset(8)
	pl, err := Run(d.Corpus, fastCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	as, err := pl.AddPaper(bib.Paper{
		Title: "Entirely New Team", Venue: "NEWVENUE", Year: 2021,
		Authors: []string{"Zz Unseen", "Qq Unknown"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		if !a.Created {
			t.Fatalf("unseen name attached to existing vertex: %+v", a)
		}
	}
	// The two fresh vertices are linked by the recovered relation.
	if !pl.GCN.G.HasEdge(as[0].Vertex, as[1].Vertex) {
		t.Fatal("recovered relation missing between new vertices")
	}
	// A second paper by the same new pair should now attach to them:
	// their names exist, and the pair has history.
	as2, err := pl.AddPaper(bib.Paper{
		Title: "Entirely New Team Strikes Again", Venue: "NEWVENUE", Year: 2022,
		Authors: []string{"Zz Unseen", "Qq Unknown"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(as2) != 2 {
		t.Fatalf("assignments=%d", len(as2))
	}
}
