// Package bib defines the bibliographic data model shared by every other
// package in this repository: papers with co-author lists, titles, venues
// and years, plus the Corpus container with the derived indexes the IUAD
// pipeline and its baselines query (papers per name, venue frequencies,
// title-word frequencies).
//
// The model follows the paper's problem definition (§III-A): the input is
// a paper database D where each paper carries exactly four attributes —
// co-author list, title, published venue, and published year. Author
// *names* are strings that may be shared by several distinct authors;
// ground-truth author identities (when known, e.g. from the synthetic
// generator) are carried separately so that unsupervised code cannot
// accidentally peek at them.
package bib

import (
	"errors"
	"fmt"
	"strings"

	"iuad/internal/intern"
)

// PaperID identifies a paper inside one Corpus. IDs are dense indexes
// assigned in insertion order, which lets hot paths use slices instead of
// maps.
type PaperID int32

// AuthorID is a ground-truth author identity. It is only meaningful for
// corpora that carry labels (synthetic data or a labeled evaluation
// subset). AuthorID -1 means "unknown".
type AuthorID int32

// UnknownAuthor marks an author slot without ground-truth identity.
const UnknownAuthor AuthorID = -1

// Paper is a single bibliographic record.
type Paper struct {
	ID    PaperID
	Title string
	Venue string
	Year  int

	// Authors holds the co-author list in print order. Names are the
	// ambiguous strings the disambiguator sees.
	Authors []string

	// Truth holds the ground-truth identity for each author slot, aligned
	// with Authors. Empty for unlabeled corpora.
	Truth []AuthorID
}

// Validate reports structural problems on a single record.
func (p *Paper) Validate() error {
	if len(p.Authors) == 0 {
		return fmt.Errorf("bib: paper %d (%q) has no authors", p.ID, p.Title)
	}
	if len(p.Truth) != 0 && len(p.Truth) != len(p.Authors) {
		return fmt.Errorf("bib: paper %d has %d authors but %d truth labels",
			p.ID, len(p.Authors), len(p.Truth))
	}
	seen := make(map[string]struct{}, len(p.Authors))
	for _, a := range p.Authors {
		if strings.TrimSpace(a) == "" {
			return fmt.Errorf("bib: paper %d has an empty author name", p.ID)
		}
		if _, dup := seen[a]; dup {
			return fmt.Errorf("bib: paper %d lists author %q twice", p.ID, a)
		}
		seen[a] = struct{}{}
	}
	return nil
}

// TruthAt returns the ground-truth identity of the i-th author slot, or
// UnknownAuthor when the corpus is unlabeled.
func (p *Paper) TruthAt(i int) AuthorID {
	if i < 0 || i >= len(p.Authors) {
		return UnknownAuthor
	}
	if len(p.Truth) == 0 {
		return UnknownAuthor
	}
	return p.Truth[i]
}

// AuthorIndex returns the slot index of name in the co-author list, or -1.
func (p *Paper) AuthorIndex(name string) int {
	for i, a := range p.Authors {
		if a == name {
			return i
		}
	}
	return -1
}

// Corpus is an in-memory paper database plus derived indexes. Build one
// with NewCorpus / Add / Freeze, or load one with ReadJSON.
//
// A Corpus is immutable after Freeze; all read methods are then safe for
// concurrent use. The only exception is the intern tables themselves:
// the incremental pipeline grows them (single-goroutine) when newly
// streamed papers carry names, venues or title tokens the frozen corpus
// has never seen — see the columnar accessors in columnar.go.
type Corpus struct {
	papers []Paper
	frozen bool

	// Interned symbol tables, built by Freeze. IDs of corpus symbols are
	// sorted ranks (intern.Build), so ascending-ID iteration equals the
	// lexicographic iteration of the former string-keyed indexes.
	nameTab  *intern.Table // author names
	venueTab *intern.Table // non-empty venue strings
	wordTab  *intern.Table // lowercased title tokens

	// Columnar per-paper attributes (CSR layout), built by Freeze. The
	// string-based Paper records stay the API boundary; hot paths index
	// these slices instead of re-hashing strings.
	authorOff []int32     // len(papers)+1 offsets into authorIDs
	authorIDs []intern.ID // slot name IDs, print order
	venueIDs  []intern.ID // per paper; intern.None for empty venues
	kwOff     []int32     // len(papers)+1 offsets into kwIDs
	kwIDs     []intern.ID // keyword token IDs, title order, duplicates kept

	// Inverted/frequency indexes over IDs.
	byNameID   [][]PaperID // NameID -> papers containing the name
	venueFreqs []int32     // VenueID -> number of papers
	wordFreqs  []int32     // TokenID -> papers whose title contains it
}

// NewCorpus returns an empty corpus with capacity hints.
func NewCorpus(paperHint int) *Corpus {
	return &Corpus{
		papers: make([]Paper, 0, paperHint),
	}
}

// ErrFrozen is returned by Add after Freeze has been called.
var ErrFrozen = errors.New("bib: corpus is frozen")

// Add validates and appends a paper, assigning its ID. The caller's slice
// headers are retained (no deep copy); do not mutate them afterwards.
func (c *Corpus) Add(p Paper) (PaperID, error) {
	if c.frozen {
		return 0, ErrFrozen
	}
	p.ID = PaperID(len(c.papers))
	if err := p.Validate(); err != nil {
		return 0, err
	}
	c.papers = append(c.papers, p)
	return p.ID, nil
}

// MustAdd is Add for construction code paths where the input is known
// valid (tests, generators). It panics on error.
func (c *Corpus) MustAdd(p Paper) PaperID {
	id, err := c.Add(p)
	if err != nil {
		panic(err)
	}
	return id
}

// Freeze builds the interned tables and columnar indexes, making the
// corpus immutable. Calling Freeze twice is a no-op. Symbols are hashed
// exactly once here; afterwards every hot path works on dense int32 IDs.
func (c *Corpus) Freeze() {
	if c.frozen {
		return
	}
	c.frozen = true

	// Pass 1: collect symbols (titles are tokenized once and reused).
	var nameSyms, venueSyms, wordSyms []string
	tokens := make([][]string, len(c.papers))
	for i := range c.papers {
		p := &c.papers[i]
		nameSyms = append(nameSyms, p.Authors...)
		if p.Venue != "" {
			venueSyms = append(venueSyms, p.Venue)
		}
		tokens[i] = TitleTokens(p.Title)
		wordSyms = append(wordSyms, tokens[i]...)
	}
	c.nameTab = intern.Build(nameSyms)
	c.venueTab = intern.Build(venueSyms)
	c.wordTab = intern.Build(wordSyms)

	// Pass 2: columnar fill + inverted/frequency indexes.
	c.authorOff = make([]int32, len(c.papers)+1)
	c.kwOff = make([]int32, len(c.papers)+1)
	c.venueIDs = make([]intern.ID, len(c.papers))
	c.byNameID = make([][]PaperID, c.nameTab.Len())
	c.venueFreqs = make([]int32, c.venueTab.Len())
	c.wordFreqs = make([]int32, c.wordTab.Len())
	seen := make([]int32, c.wordTab.Len()) // per-paper dedup marks (paper+1)
	for i := range c.papers {
		p := &c.papers[i]
		for _, a := range p.Authors {
			id, _ := c.nameTab.Lookup(a)
			c.authorIDs = append(c.authorIDs, id)
			c.byNameID[id] = append(c.byNameID[id], p.ID)
		}
		c.authorOff[i+1] = int32(len(c.authorIDs))
		c.venueIDs[i] = intern.None
		if p.Venue != "" {
			vid, _ := c.venueTab.Lookup(p.Venue)
			c.venueIDs[i] = vid
			c.venueFreqs[vid]++
		}
		for _, w := range tokens[i] {
			wid, _ := c.wordTab.Lookup(w)
			if seen[wid] != int32(i)+1 {
				seen[wid] = int32(i) + 1
				c.wordFreqs[wid]++
			}
			if isKeywordToken(w) {
				c.kwIDs = append(c.kwIDs, wid)
			}
		}
		c.kwOff[i+1] = int32(len(c.kwIDs))
	}
}

// Frozen reports whether Freeze has been called.
func (c *Corpus) Frozen() bool { return c.frozen }

// Len returns the number of papers.
func (c *Corpus) Len() int { return len(c.papers) }

// Paper returns the paper with the given ID. It panics on out-of-range
// IDs, mirroring slice indexing.
func (c *Corpus) Paper(id PaperID) *Paper { return &c.papers[id] }

// Papers returns the backing slice of papers. Callers must not mutate it
// after Freeze.
func (c *Corpus) Papers() []Paper { return c.papers }

// PapersWithName returns the IDs of papers whose co-author list contains
// name. The returned slice is owned by the corpus; do not mutate.
func (c *Corpus) PapersWithName(name string) []PaperID {
	c.mustBeFrozen("PapersWithName")
	id, ok := c.nameTab.Lookup(name)
	if !ok || int(id) >= len(c.byNameID) {
		return nil
	}
	return c.byNameID[id]
}

// Names returns all distinct author names of the frozen corpus, sorted.
// The slice is freshly allocated (callers historically reorder it); the
// strings are the intern table's own.
func (c *Corpus) Names() []string {
	c.mustBeFrozen("Names")
	frozen := c.nameTab.Strings()[:c.nameTab.FrozenLen()]
	return append([]string(nil), frozen...)
}

// VenueFrequency returns the number of papers published at venue
// (F_H(h) in §V-B3, Eq. 9).
func (c *Corpus) VenueFrequency(venue string) int {
	c.mustBeFrozen("VenueFrequency")
	id, ok := c.venueTab.Lookup(venue)
	if !ok {
		return 0
	}
	return c.VenueFrequencyID(id)
}

// WordFrequency returns the number of papers whose title contains the
// (lowercased) token w — F_B(b) in §V-B2, Eq. 7.
func (c *Corpus) WordFrequency(w string) int {
	c.mustBeFrozen("WordFrequency")
	id, ok := c.wordTab.Lookup(w)
	if !ok {
		return 0
	}
	return c.WordFrequencyID(id)
}

// Labeled reports whether every paper carries ground-truth labels.
func (c *Corpus) Labeled() bool {
	for i := range c.papers {
		if len(c.papers[i].Truth) != len(c.papers[i].Authors) {
			return false
		}
	}
	return len(c.papers) > 0
}

func (c *Corpus) mustBeFrozen(method string) {
	if !c.frozen {
		panic("bib: Corpus." + method + " called before Freeze")
	}
}

// Subset returns a new frozen corpus containing the first n papers (in
// insertion order). It is used by the data-scale experiments (Table V,
// Fig. 5) to emulate running on 20%..100% of the database.
func (c *Corpus) Subset(n int) *Corpus {
	if n > len(c.papers) {
		n = len(c.papers)
	}
	sub := NewCorpus(n)
	for i := 0; i < n; i++ {
		p := c.papers[i]
		cp := Paper{Title: p.Title, Venue: p.Venue, Year: p.Year}
		cp.Authors = append([]string(nil), p.Authors...)
		if len(p.Truth) > 0 {
			cp.Truth = append([]AuthorID(nil), p.Truth...)
		}
		sub.MustAdd(cp)
	}
	sub.Freeze()
	return sub
}
