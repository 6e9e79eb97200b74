package bib

import (
	"strings"
	"testing"
)

const sampleDBLP = `<?xml version="1.0" encoding="ISO-8859-1"?>
<dblp>
<article mdate="2020-01-01" key="journals/x/LeeC18">
  <author>Ann Lee</author>
  <author>Bo Chen 0002</author>
  <title>Streaming Joins at Scale.</title>
  <journal>VLDB J.</journal>
  <year>2018</year>
  <volume>27</volume>
</article>
<inproceedings key="conf/kdd/Diaz15">
  <author>Cara   Diaz</author>
  <title>Graph Kernels.</title>
  <booktitle>KDD</booktitle>
  <year>2015</year>
  <pages>1-10</pages>
</inproceedings>
<proceedings key="conf/kdd/2015">
  <editor>Someone Else</editor>
  <title>KDD Proceedings</title>
  <year>2015</year>
</proceedings>
<article key="journals/bad/NoYear">
  <author>Dee Fu</author>
  <title>No Year Here</title>
  <journal>Misc</journal>
  <year>MMXV</year>
</article>
</dblp>`

func TestParseDBLP(t *testing.T) {
	c, stats, err := ParseDBLP(strings.NewReader(sampleDBLP), 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 4 {
		t.Fatalf("Records=%d, want 4", stats.Records)
	}
	// The editor-only proceedings record has no <author> and is skipped.
	if stats.Kept != 3 || c.Len() != 3 {
		t.Fatalf("Kept=%d Len=%d, want 3", stats.Kept, c.Len())
	}
	if stats.SkippedNoAuth != 1 {
		t.Fatalf("SkippedNoAuth=%d, want 1", stats.SkippedNoAuth)
	}
	if stats.SkippedBadYear != 1 {
		t.Fatalf("SkippedBadYear=%d, want 1", stats.SkippedBadYear)
	}

	p := c.Paper(0)
	if p.Venue != "VLDB J." || p.Year != 2018 {
		t.Fatalf("paper 0 = %+v", p)
	}
	// Homonym suffix removed, whitespace collapsed.
	if p.Authors[1] != "Bo Chen" {
		t.Fatalf("author normalization: %q", p.Authors[1])
	}
	if c.Paper(1).Authors[0] != "Cara Diaz" {
		t.Fatalf("whitespace collapse: %q", c.Paper(1).Authors[0])
	}
	if c.Paper(2).Year != 0 {
		t.Fatalf("bad year should parse as 0, got %d", c.Paper(2).Year)
	}

	// The numeric homonym suffixes are curated ground truth: stripped
	// from the names the disambiguator sees, recorded as per-slot Truth.
	if !c.Labeled() {
		t.Fatal("parsed corpus should carry ground-truth labels")
	}
	if stats.LabeledSlots != 4 {
		t.Fatalf("LabeledSlots=%d, want 4", stats.LabeledSlots)
	}
	if stats.SuffixedSlots != 1 {
		t.Fatalf("SuffixedSlots=%d, want 1 (Bo Chen 0002)", stats.SuffixedSlots)
	}
	if stats.Labels.Len() != 4 {
		t.Fatalf("Labels.Len=%d, want 4 distinct identities", stats.Labels.Len())
	}
	id := p.TruthAt(1)
	if key := stats.Labels.keys[id]; key != "Bo Chen 0002" {
		t.Fatalf("identity key of slot 0/1 = %q, want pre-strip suffix kept", key)
	}
}

func TestParseDBLPMaxPapers(t *testing.T) {
	c, stats, err := ParseDBLP(strings.NewReader(sampleDBLP), 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept != 1 || c.Len() != 1 {
		t.Fatalf("maxPapers=1: Kept=%d Len=%d", stats.Kept, c.Len())
	}
}

func TestNormalizeName(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Wei Wang 0001", "Wei Wang"},
		{"Wei   Wang", "Wei Wang"},
		{"  Wei Wang  ", "Wei Wang"},
		{"0001", "0001"}, // lone numeric token is kept (it is the whole name)
		{"Wei Wang Jr", "Wei Wang Jr"},
	}
	for _, tc := range tests {
		if got := NormalizeName(tc.in); got != tc.want {
			t.Errorf("NormalizeName(%q)=%q, want %q", tc.in, got, tc.want)
		}
	}
}
