package bib

import "iuad/internal/intern"

// Columnar accessors over the interned corpus representation. These are
// the hot-path views of the paper database: dense int32 IDs instead of
// strings, CSR slices instead of maps. Every accessor requires a frozen
// corpus.
//
// The *FrequencyID accessors tolerate IDs past the frozen table range
// (symbols interned later by the incremental pipeline): such symbols by
// definition occur in zero frozen-corpus papers, matching the former
// map-miss semantics of the string-keyed indexes.

// NameTable returns the author-name symbol table. The incremental
// pipeline may grow it via Intern; the frozen prefix is immutable.
func (c *Corpus) NameTable() *intern.Table {
	c.mustBeFrozen("NameTable")
	return c.nameTab
}

// VenueTable returns the venue symbol table.
func (c *Corpus) VenueTable() *intern.Table {
	c.mustBeFrozen("VenueTable")
	return c.venueTab
}

// WordTable returns the title-token symbol table (keywords are a subset
// of its symbols).
func (c *Corpus) WordTable() *intern.Table {
	c.mustBeFrozen("WordTable")
	return c.wordTab
}

// AuthorIDs returns the interned name IDs of paper id's author slots, in
// print order. Owned by the corpus; do not mutate.
func (c *Corpus) AuthorIDs(id PaperID) []intern.ID {
	c.mustBeFrozen("AuthorIDs")
	return c.authorIDs[c.authorOff[id]:c.authorOff[id+1]]
}

// VenueIDOf returns the interned venue of paper id, or intern.None.
func (c *Corpus) VenueIDOf(id PaperID) intern.ID {
	c.mustBeFrozen("VenueIDOf")
	return c.venueIDs[id]
}

// KeywordIDs returns the interned keyword tokens of paper id's title, in
// title order with duplicates kept — exactly Keywords(title), interned.
// Owned by the corpus; do not mutate.
func (c *Corpus) KeywordIDs(id PaperID) []intern.ID {
	c.mustBeFrozen("KeywordIDs")
	return c.kwIDs[c.kwOff[id]:c.kwOff[id+1]]
}

// VenueFrequencyID is VenueFrequency keyed by interned ID.
func (c *Corpus) VenueFrequencyID(id intern.ID) int {
	c.mustBeFrozen("VenueFrequencyID")
	if id < 0 || int(id) >= len(c.venueFreqs) {
		return 0
	}
	return int(c.venueFreqs[id])
}

// WordFrequencyID is WordFrequency keyed by interned ID.
func (c *Corpus) WordFrequencyID(id intern.ID) int {
	c.mustBeFrozen("WordFrequencyID")
	if id < 0 || int(id) >= len(c.wordFreqs) {
		return 0
	}
	return int(c.wordFreqs[id])
}
