package bib

import (
	"reflect"
	"testing"
	"testing/quick"
)

func mkPaper(title, venue string, year int, authors ...string) Paper {
	return Paper{Title: title, Venue: venue, Year: year, Authors: authors}
}

func TestPaperValidate(t *testing.T) {
	tests := []struct {
		name    string
		paper   Paper
		wantErr bool
	}{
		{"ok", mkPaper("t", "v", 2000, "A B"), false},
		{"no authors", Paper{Title: "t"}, true},
		{"empty author", mkPaper("t", "v", 2000, " "), true},
		{"duplicate author", mkPaper("t", "v", 2000, "A", "A"), true},
		{"truth mismatch", Paper{Authors: []string{"A"}, Truth: []AuthorID{1, 2}}, true},
		{"truth aligned", Paper{Authors: []string{"A"}, Truth: []AuthorID{1}}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.paper.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() err=%v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

func TestCorpusAddAssignsSequentialIDs(t *testing.T) {
	c := NewCorpus(0)
	for i := 0; i < 5; i++ {
		id, err := c.Add(mkPaper("t", "v", 2000, "A", "B"))
		if err != nil {
			t.Fatal(err)
		}
		if id != PaperID(i) {
			t.Fatalf("Add #%d returned id %d", i, id)
		}
	}
	if c.Len() != 5 {
		t.Fatalf("Len=%d, want 5", c.Len())
	}
}

func TestCorpusFreezeIndexes(t *testing.T) {
	c := NewCorpus(0)
	c.MustAdd(mkPaper("Deep Graph Kernels", "KDD", 2015, "Ann Lee", "Bo Chen"))
	c.MustAdd(mkPaper("Graph Neural Nets", "KDD", 2017, "Ann Lee"))
	c.MustAdd(mkPaper("Streaming Joins", "VLDB", 2018, "Cara Diaz"))
	c.Freeze()

	if got := c.PapersWithName("Ann Lee"); len(got) != 2 {
		t.Fatalf("PapersWithName(Ann Lee)=%v, want 2 papers", got)
	}
	if got := c.VenueFrequency("KDD"); got != 2 {
		t.Fatalf("VenueFrequency(KDD)=%d, want 2", got)
	}
	if got := c.VenueFrequency("ICDE"); got != 0 {
		t.Fatalf("VenueFrequency(ICDE)=%d, want 0", got)
	}
	// "graph" appears in two papers (dedup within a title).
	if got := c.WordFrequency("graph"); got != 2 {
		t.Fatalf("WordFrequency(graph)=%d, want 2", got)
	}
	names := c.Names()
	want := []string{"Ann Lee", "Bo Chen", "Cara Diaz"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names()=%v, want %v", names, want)
	}
}

func TestCorpusAddAfterFreeze(t *testing.T) {
	c := NewCorpus(0)
	c.MustAdd(mkPaper("t", "v", 2000, "A"))
	c.Freeze()
	if _, err := c.Add(mkPaper("t2", "v", 2001, "B")); err != ErrFrozen {
		t.Fatalf("Add after Freeze: err=%v, want ErrFrozen", err)
	}
}

func TestCorpusUnfrozenPanics(t *testing.T) {
	c := NewCorpus(0)
	c.MustAdd(mkPaper("t", "v", 2000, "A"))
	defer func() {
		if recover() == nil {
			t.Fatal("PapersWithName before Freeze did not panic")
		}
	}()
	c.PapersWithName("A")
}

func TestCorpusSubset(t *testing.T) {
	c := NewCorpus(0)
	for i := 0; i < 10; i++ {
		c.MustAdd(Paper{Title: "t", Authors: []string{"A"}, Truth: []AuthorID{AuthorID(i)}})
	}
	c.Freeze()
	sub := c.Subset(4)
	if sub.Len() != 4 {
		t.Fatalf("Subset(4).Len=%d", sub.Len())
	}
	if !sub.Frozen() {
		t.Fatal("Subset result not frozen")
	}
	if got := sub.Paper(3).TruthAt(0); got != 3 {
		t.Fatalf("subset paper 3 truth=%d, want 3", got)
	}
	// Oversized request clamps.
	if got := c.Subset(99).Len(); got != 10 {
		t.Fatalf("Subset(99).Len=%d, want 10", got)
	}
	// Mutating the subset's slices must not touch the original.
	sub.Paper(0).Authors[0] = "Z"
	if c.Paper(0).Authors[0] != "A" {
		t.Fatal("Subset shares author slice with parent corpus")
	}
}

func TestTruthAt(t *testing.T) {
	p := Paper{Authors: []string{"A", "B"}, Truth: []AuthorID{7, 9}}
	if got := p.TruthAt(1); got != 9 {
		t.Fatalf("TruthAt(1)=%d", got)
	}
	if got := p.TruthAt(5); got != UnknownAuthor {
		t.Fatalf("TruthAt(5)=%d, want UnknownAuthor", got)
	}
	unlabeled := Paper{Authors: []string{"A"}}
	if got := unlabeled.TruthAt(0); got != UnknownAuthor {
		t.Fatalf("TruthAt on unlabeled=%d, want UnknownAuthor", got)
	}
}

func TestAuthorIndex(t *testing.T) {
	p := mkPaper("t", "v", 2000, "A", "B", "C")
	if p.AuthorIndex("C") != 2 || p.AuthorIndex("Z") != -1 {
		t.Fatal("AuthorIndex wrong")
	}
}

func TestLabeled(t *testing.T) {
	c := NewCorpus(0)
	c.MustAdd(Paper{Authors: []string{"A"}, Truth: []AuthorID{1}})
	if !c.Labeled() {
		t.Fatal("fully labeled corpus reported unlabeled")
	}
	c.MustAdd(Paper{Authors: []string{"B"}})
	if c.Labeled() {
		t.Fatal("partially labeled corpus reported labeled")
	}
	if NewCorpus(0).Labeled() {
		t.Fatal("empty corpus reported labeled")
	}
}

// Property: names indexed by Freeze exactly cover the names present in
// papers, with one posting per (paper, name).
func TestFreezeIndexProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := NewCorpus(0)
		namePool := []string{"A", "B", "C", "D", "E"}
		n := int(seed%17) + 1
		state := uint64(seed)
		next := func(m int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(m))
		}
		want := map[string]int{}
		for i := 0; i < n; i++ {
			k := next(len(namePool)) + 1
			perm := append([]string(nil), namePool...)
			for j := range perm {
				o := next(len(perm))
				perm[j], perm[o] = perm[o], perm[j]
			}
			authors := perm[:k]
			for _, a := range authors {
				want[a]++
			}
			c.MustAdd(Paper{Title: "t", Authors: authors})
		}
		c.Freeze()
		got := 0
		for _, name := range c.Names() {
			got += len(c.PapersWithName(name))
			if len(c.PapersWithName(name)) != want[name] {
				return false
			}
		}
		total := 0
		for _, v := range want {
			total += v
		}
		return got == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
