package core

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// TestShardOfName pins the placement function: deterministic, in
// range, degenerate at n=1, and actually spreading real-shaped names
// over every shard at modest counts.
func TestShardOfName(t *testing.T) {
	names := make([]string, 0, 512)
	for i := 0; i < 512; i++ {
		names = append(names, fmt.Sprintf("Author Name %d", i))
	}
	for _, n := range []int{1, 2, 4, 8, MaxShards} {
		hit := make([]bool, n)
		for _, name := range names {
			sh := ShardOfName(name, n)
			if sh < 0 || sh >= n {
				t.Fatalf("ShardOfName(%q, %d) = %d out of range", name, n, sh)
			}
			if sh != ShardOfName(name, n) {
				t.Fatalf("ShardOfName(%q, %d) not deterministic", name, n)
			}
			hit[sh] = true
		}
		if n == 1 && ShardOfName("anything", 1) != 0 {
			t.Fatal("n=1 must place everything on shard 0")
		}
		if n <= 8 {
			for sh, ok := range hit {
				if !ok {
					t.Fatalf("no name of %d landed on shard %d of %d", len(names), sh, n)
				}
			}
		}
	}
	if NormShards(0) != 1 || NormShards(-3) != 1 || NormShards(5) != 5 || NormShards(100000) != MaxShards {
		t.Fatal("NormShards clamp broken")
	}
}

// TestShardedViewMatchesPipeline builds the composite view at several
// shard counts and checks every vertex, name listing, and slot answers
// exactly as the pipeline — the fan-out/merge layer must be invisible.
func TestShardedViewMatchesPipeline(t *testing.T) {
	d := testDataset(21)
	pl, err := Run(d.Corpus, fastCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		vp := NewShardedViewPublisher(pl, 0, shards, nil)
		v := vp.Current()
		if got := v.Stats().Shards; got != shards {
			t.Fatalf("stats report %d shards, want %d", got, shards)
		}
		for id := range pl.GCN.Verts {
			vert := &pl.GCN.Verts[id]
			name, ok := v.AuthorName(id)
			if !ok || name != vert.Name {
				t.Fatalf("shards=%d: AuthorName(%d) = %q/%v, want %q", shards, id, name, ok, vert.Name)
			}
			papers, _ := v.AuthorPapers(id)
			if len(papers) != len(vert.Papers) {
				t.Fatalf("shards=%d: vertex %d papers %d, want %d", shards, id, len(papers), len(vert.Papers))
			}
			for i := range papers {
				if papers[i] != vert.Papers[i] {
					t.Fatalf("shards=%d: vertex %d paper %d differs", shards, id, i)
				}
			}
			nbrs, _ := v.Coauthors(id)
			want := appendNeighborIDs(pl.GCN, id, nil)
			if len(nbrs) != len(want) {
				t.Fatalf("shards=%d: vertex %d degree %d, want %d", shards, id, len(nbrs), len(want))
			}
			for i := range nbrs {
				if nbrs[i] != want[i] {
					t.Fatalf("shards=%d: vertex %d neighbor %d differs", shards, id, i)
				}
			}
			ids := v.VerticesOfName(vert.Name)
			found := false
			for _, x := range ids {
				if int(x) == id {
					found = true
				}
			}
			if !found {
				t.Fatalf("shards=%d: VerticesOfName(%q) misses vertex %d", shards, vert.Name, id)
			}
		}
		for slot, want := range pl.GCN.SlotVertex {
			got, ok := v.ResolveSlot(slot)
			if !ok || got != want {
				t.Fatalf("shards=%d: ResolveSlot(%+v) = %d/%v, want %d", shards, slot, got, ok, want)
			}
		}
	}
}

// TestShardedPublishEquivalence streams the same batches through
// publishers at every shard count and requires the views to answer
// identically after every publish.
func TestShardedPublishEquivalence(t *testing.T) {
	d := testDataset(22)
	build := func() *Pipeline {
		pl, err := Run(d.Corpus, fastCoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	refPl := build()
	ref := NewViewPublisher(refPl, 0)
	const rounds, per = 6, 5
	type round struct{ batches [][]Assignment }
	var rounds6 []round
	for r := 0; r < rounds; r++ {
		batch := streamBatch(d, per*(r+1))[per*r:]
		res, err := refPl.AddPapers(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		ref.Publish(res)
		rounds6 = append(rounds6, round{batches: res})
	}
	want := ref.Current()

	for _, shards := range []int{2, 4, 8} {
		pl := build()
		vp := NewShardedViewPublisher(pl, 0, shards, nil)
		for r := 0; r < rounds; r++ {
			batch := streamBatch(d, per*(r+1))[per*r:]
			res, err := pl.AddPapers(context.Background(), batch)
			if err != nil {
				t.Fatal(err)
			}
			for i := range res {
				if len(res[i]) != len(rounds6[r].batches[i]) {
					t.Fatalf("shards=%d round %d: assignment shape differs", shards, r)
				}
				for j := range res[i] {
					a, b := res[i][j], rounds6[r].batches[i][j]
					if a.Slot != b.Slot || a.Vertex != b.Vertex || a.Created != b.Created ||
						math.Float64bits(a.Score) != math.Float64bits(b.Score) {
						t.Fatalf("shards=%d round %d: assignment %d/%d differs: %+v vs %+v",
							shards, r, i, j, a, b)
					}
				}
			}
			vp.Publish(res)
		}
		got := vp.Current()
		if got.Epoch() != want.Epoch() {
			t.Fatalf("shards=%d: epoch %d, want %d", shards, got.Epoch(), want.Epoch())
		}
		if gs, ws := got.Stats(), want.Stats(); gs.Authors != ws.Authors || gs.Edges != ws.Edges || gs.Slots != ws.Slots {
			t.Fatalf("shards=%d: stats %+v, want %+v", shards, gs, ws)
		}
		for id := 0; id < got.Stats().Authors; id++ {
			gn, gok := got.AuthorName(id)
			wn, wok := want.AuthorName(id)
			if gn != wn || gok != wok {
				t.Fatalf("shards=%d: AuthorName(%d) = %q, want %q", shards, id, gn, wn)
			}
			gp, _ := got.AuthorPapers(id)
			wp, _ := want.AuthorPapers(id)
			if len(gp) != len(wp) {
				t.Fatalf("shards=%d: vertex %d papers %d, want %d", shards, id, len(gp), len(wp))
			}
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("shards=%d: vertex %d paper %d differs", shards, id, i)
				}
			}
			gc, _ := got.Coauthors(id)
			wc, _ := want.Coauthors(id)
			if len(gc) != len(wc) {
				t.Fatalf("shards=%d: vertex %d degree differs", shards, id)
			}
			for i := range gc {
				if gc[i] != wc[i] {
					t.Fatalf("shards=%d: vertex %d neighbor %d differs", shards, id, i)
				}
			}
		}
	}
}
