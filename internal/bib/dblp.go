package bib

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// DBLP ingestion. The paper's corpus is the public dblp.xml dump
// (https://dblp.uni-trier.de/xml/). This streaming parser extracts the
// four attributes IUAD consumes (authors, title, venue, year) from the
// publication record elements of that dump. It is tolerant: records with
// missing titles or years are kept (venue/year default to zero values),
// records without authors are skipped and counted.
//
// The parser is offline-testable: it takes any io.Reader. It understands a
// practical subset of the DBLP schema — the record elements below with
// nested <author>, <title>, <journal>/<booktitle>, <year> children — which
// is exactly what author-disambiguation work consumes.

// dblpRecordElements are the publication record tags of dblp.xml.
var dblpRecordElements = map[string]struct{}{
	"article":       {},
	"inproceedings": {},
	"proceedings":   {},
	"book":          {},
	"incollection":  {},
	"phdthesis":     {},
	"mastersthesis": {},
	"www":           {},
}

// DBLPStats reports what a parse saw and skipped, and carries the
// ground-truth label table the dump encodes: DBLP's numeric homonym
// suffixes ("Wei Wang 0001") are the human-curated disambiguation
// decision this system is supposed to reproduce. The parser strips the
// suffix from the name the disambiguator sees (keeping it would leak
// the answer) but records the pre-strip name as each slot's
// ground-truth identity in Paper.Truth, keyed by the Labels table.
type DBLPStats struct {
	Records        int // publication records encountered
	Kept           int // records converted into papers
	SkippedNoAuth  int // records without any <author>
	SkippedBadYear int // records whose <year> failed to parse (kept, year 0)

	// LabeledSlots counts author slots carrying a ground-truth identity
	// (every kept slot: an unsuffixed DBLP name is a single author by
	// the dump's own convention, so it is its own identity).
	LabeledSlots int
	// SuffixedSlots counts slots whose identity came from an explicit
	// numeric homonym suffix — the hand-disambiguated subset.
	SuffixedSlots int
	// Labels is the ground-truth identity table: AuthorID ↔ the
	// pre-normalization DBLP author key ("Bo Chen 0002"). Always
	// non-nil after a successful parse.
	Labels *DBLPLabels
}

// DBLPLabels is the ground-truth label table of a DBLP parse: a dense
// AuthorID per distinct pre-normalization author key, in first-
// appearance order (deterministic for a given document).
type DBLPLabels struct {
	ids  map[string]AuthorID
	keys []string
}

// Len returns the number of distinct ground-truth identities.
func (l *DBLPLabels) Len() int {
	if l == nil {
		return 0
	}
	return len(l.keys)
}

// intern returns the identity of key, assigning the next dense ID on
// first sight.
func (l *DBLPLabels) intern(key string) AuthorID {
	if id, ok := l.ids[key]; ok {
		return id
	}
	id := AuthorID(len(l.keys))
	l.ids[key] = id
	l.keys = append(l.keys, key)
	return id
}

// ParseDBLP streams a dblp.xml-format document into a frozen Corpus.
// maxPapers > 0 truncates the parse after that many kept records (useful
// for sampling the 3+ GB real dump); 0 means no limit. The returned
// stats carry the dump's ground-truth label table (see DBLPStats); the
// corpus papers carry the matching per-slot Truth identities.
func ParseDBLP(r io.Reader, maxPapers int) (*Corpus, DBLPStats, error) {
	stats := DBLPStats{Labels: &DBLPLabels{ids: make(map[string]AuthorID)}}
	c := NewCorpus(4096)
	dec := xml.NewDecoder(r)
	// dblp.xml declares numeric character entities in its internal DTD
	// subset; resolving them as empty keeps the author names usable.
	dec.Strict = false
	dec.AutoClose = xml.HTMLAutoClose
	dec.Entity = xml.HTMLEntity
	dec.CharsetReader = charsetReader

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, stats, fmt.Errorf("bib: dblp parse: %w", err)
		}
		start, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		if _, isRecord := dblpRecordElements[start.Name.Local]; !isRecord {
			continue
		}
		stats.Records++
		paper, perr := parseDBLPRecord(dec, start.Name.Local, &stats)
		if perr != nil {
			return nil, stats, perr
		}
		if paper == nil {
			continue
		}
		// The co-author list parsed with DBLP's homonym suffixes intact
		// (whitespace already collapsed) — the suffixes are the curated
		// ground truth. Strip them from the names the disambiguator
		// sees; the raw keys become the slots' identities below, but
		// only once the record is known to be kept, so dropped records
		// never inflate the label table.
		raw := paper.Authors
		paper.Authors = make([]string, len(raw))
		for i, r := range raw {
			paper.Authors[i] = NormalizeName(r)
		}
		id, err := c.Add(*paper)
		if err != nil {
			// Duplicate author names inside one record occur in the real
			// dump (homonym co-authors); drop the record rather than fail.
			stats.SkippedNoAuth++
			continue
		}
		kept := c.Paper(id)
		kept.Truth = make([]AuthorID, len(raw))
		for i, r := range raw {
			kept.Truth[i] = stats.Labels.intern(r)
			if kept.Authors[i] != r {
				stats.SuffixedSlots++
			}
		}
		stats.Kept++
		stats.LabeledSlots += len(raw)
		if maxPapers > 0 && stats.Kept >= maxPapers {
			break
		}
	}
	c.Freeze()
	return c, stats, nil
}

// parseDBLPRecord consumes tokens until the record's end element.
func parseDBLPRecord(dec *xml.Decoder, recordTag string, stats *DBLPStats) (*Paper, error) {
	var p Paper
	var field string
	var text strings.Builder
	depth := 1
	for depth > 0 {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("bib: dblp record truncated: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if depth == 2 {
				field = t.Name.Local
				text.Reset()
			}
		case xml.CharData:
			if depth == 2 {
				text.Write(t)
			}
		case xml.EndElement:
			depth--
			if depth == 1 {
				assignDBLPField(&p, field, strings.TrimSpace(text.String()), stats)
				field = ""
			}
		}
	}
	if len(p.Authors) == 0 {
		stats.SkippedNoAuth++
		return nil, nil
	}
	_ = recordTag
	return &p, nil
}

func assignDBLPField(p *Paper, field, value string, stats *DBLPStats) {
	if value == "" {
		return
	}
	switch field {
	case "author", "editor":
		if field == "author" {
			// Collapse whitespace only; the numeric homonym suffix stays
			// on until ParseDBLP has recorded it as the slot's
			// ground-truth identity.
			p.Authors = append(p.Authors, collapseSpace(value))
		}
	case "title":
		p.Title = value
	case "journal", "booktitle":
		if p.Venue == "" {
			p.Venue = value
		}
	case "year":
		y, err := strconv.Atoi(value)
		if err != nil {
			stats.SkippedBadYear++
			return
		}
		p.Year = y
	}
}

// charsetReader handles the ISO-8859-1 declaration of the real dblp.xml
// dump (every Latin-1 byte maps directly to the same Unicode code point).
func charsetReader(charset string, input io.Reader) (io.Reader, error) {
	switch strings.ToLower(charset) {
	case "iso-8859-1", "latin1", "latin-1", "us-ascii", "utf-8":
		if strings.ToLower(charset) == "utf-8" {
			return input, nil
		}
		return &latin1Reader{r: input}, nil
	}
	return nil, fmt.Errorf("bib: unsupported charset %q", charset)
}

type latin1Reader struct {
	r   io.Reader
	buf [2048]byte
	// pending holds a decoded-but-undelivered UTF-8 tail.
	pending []byte
}

func (l *latin1Reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if len(l.pending) == 0 {
		max := len(l.buf) / 2 // worst case every byte expands to two
		n, err := l.r.Read(l.buf[:max])
		if n == 0 {
			return 0, err
		}
		out := make([]byte, 0, 2*n)
		for _, b := range l.buf[:n] {
			if b < 0x80 {
				out = append(out, b)
			} else {
				out = append(out, 0xC0|b>>6, 0x80|b&0x3F)
			}
		}
		l.pending = out
	}
	n := copy(p, l.pending)
	l.pending = l.pending[n:]
	return n, nil
}

// collapseSpace trims and collapses internal whitespace runs without
// touching DBLP's numeric homonym suffixes.
func collapseSpace(name string) string {
	return strings.Join(strings.Fields(name), " ")
}

// NormalizeName canonicalizes an author-name string: trims space,
// collapses internal whitespace runs, and removes DBLP's numeric homonym
// suffixes ("Wei Wang 0001" -> "Wei Wang"), since the suffix encodes the
// very disambiguation decision this system is supposed to make.
func NormalizeName(name string) string {
	fields := strings.Fields(name)
	// Drop a trailing all-digit disambiguation token.
	if n := len(fields); n > 1 {
		last := fields[n-1]
		allDigits := len(last) > 0
		for _, r := range last {
			if r < '0' || r > '9' {
				allDigits = false
				break
			}
		}
		if allDigits {
			fields = fields[:n-1]
		}
	}
	return strings.Join(fields, " ")
}
