package bib

import (
	"fmt"
	"testing"
)

func columnarCorpus(t *testing.T) *Corpus {
	t.Helper()
	c := NewCorpus(8)
	add := func(title, venue string, year int, authors ...string) {
		if _, err := c.Add(Paper{Title: title, Venue: venue, Year: year, Authors: authors}); err != nil {
			t.Fatal(err)
		}
	}
	add("Mining Frequent Patterns Without Candidate Generation", "SIGMOD", 2000, "Jia Xu", "Lin Huang")
	add("Graph Mining with the Mining of Graphs", "KDD", 2001, "Lin Huang")
	add("A Study", "", 2002, "Wei Wang", "Jia Xu")
	add("mining patterns", "SIGMOD", 2003, "Wei Wang")
	c.Freeze()
	return c
}

// TestColumnarMatchesStrings pins the contract of the interned columnar
// view: every ID accessor resolves to exactly the strings of the public
// API, and ID-keyed frequencies match string-keyed ones.
func TestColumnarMatchesStrings(t *testing.T) {
	c := columnarCorpus(t)
	names, venues, words := c.NameTable(), c.VenueTable(), c.WordTable()

	for i := 0; i < c.Len(); i++ {
		p := c.Paper(PaperID(i))
		ids := c.AuthorIDs(p.ID)
		if len(ids) != len(p.Authors) {
			t.Fatalf("paper %d: %d author IDs, %d authors", i, len(ids), len(p.Authors))
		}
		for k, id := range ids {
			if got := names.String(id); got != p.Authors[k] {
				t.Fatalf("paper %d slot %d: interned %q, string %q", i, k, got, p.Authors[k])
			}
		}
		if p.Venue == "" {
			if c.VenueIDOf(p.ID) != -1 {
				t.Fatalf("paper %d: empty venue has ID %d", i, c.VenueIDOf(p.ID))
			}
		} else if got := venues.String(c.VenueIDOf(p.ID)); got != p.Venue {
			t.Fatalf("paper %d: venue %q vs %q", i, got, p.Venue)
		}
		kw := Keywords(p.Title)
		kids := c.KeywordIDs(p.ID)
		if len(kids) != len(kw) {
			t.Fatalf("paper %d: %d keyword IDs, %d keywords (%v)", i, len(kids), len(kw), kw)
		}
		for k, id := range kids {
			if got := words.String(id); got != kw[k] {
				t.Fatalf("paper %d keyword %d: %q vs %q", i, k, got, kw[k])
			}
		}
	}

	// Inverted index and frequencies agree with the string API.
	for _, n := range c.Names() {
		id, ok := names.Lookup(n)
		if !ok {
			t.Fatalf("name %q not interned", n)
		}
		a, b := c.PapersWithName(n), c.byNameID[id]
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("name %q: %v vs %v", n, a, b)
		}
	}
	for _, v := range []string{"SIGMOD", "KDD", "nowhere"} {
		want := c.VenueFrequency(v)
		id, ok := venues.Lookup(v)
		got := 0
		if ok {
			got = c.VenueFrequencyID(id)
		}
		if got != want {
			t.Fatalf("venue %q: freq %d vs %d", v, got, want)
		}
	}
	for _, w := range []string{"mining", "patterns", "a", "zzz"} {
		want := c.WordFrequency(w)
		id, ok := words.Lookup(w)
		got := 0
		if ok {
			got = c.WordFrequencyID(id)
		}
		if got != want {
			t.Fatalf("word %q: freq %d vs %d", w, got, want)
		}
	}
	// "mining" appears twice in paper 1's title but counts once; "a" is a
	// stop word yet still a counted title token.
	if got := c.WordFrequency("mining"); got != 3 {
		t.Fatalf("WordFrequency(mining)=%d want 3", got)
	}
	if got := c.WordFrequency("a"); got != 1 {
		t.Fatalf("WordFrequency(a)=%d want 1", got)
	}
}

// TestColumnarLateIntern pins the out-of-range tolerance of the ID-keyed
// frequency accessors: symbols interned after Freeze (incremental path)
// have zero corpus frequency.
func TestColumnarLateIntern(t *testing.T) {
	c := columnarCorpus(t)
	wid := c.WordTable().Intern("quantum")
	if got := c.WordFrequencyID(wid); got != 0 {
		t.Fatalf("late word freq=%d want 0", got)
	}
	vid := c.VenueTable().Intern("VLDB")
	if got := c.VenueFrequencyID(vid); got != 0 {
		t.Fatalf("late venue freq=%d want 0", got)
	}
	c.NameTable().Intern("New Person")
	if got := c.PapersWithName("New Person"); got != nil {
		t.Fatalf("late name papers=%v want nil", got)
	}
	// Names() still reports only the frozen corpus names.
	for _, n := range c.Names() {
		if n == "New Person" {
			t.Fatal("late-interned name leaked into Names()")
		}
	}
}
