package bib

import (
	"fmt"

	"iuad/internal/snapshot"
)

// EncodePaperSnapshot writes one paper record (the shared per-paper
// wire codec — the corpus body and the pipeline's incremental stream
// both use it, so the field sequence lives in exactly one place).
func EncodePaperSnapshot(w *snapshot.Writer, p *Paper) {
	w.String(p.Title)
	w.String(p.Venue)
	w.Int(p.Year)
	w.Strings(p.Authors)
	w.Int(len(p.Truth))
	for _, t := range p.Truth {
		w.Varint(int64(t))
	}
}

// DecodePaperSnapshot reads one paper record and validates it (the ID
// field is the caller's to assign). Structural violations — empty or
// duplicate author names, a truth list not matching the author list —
// are decode errors, never deferred panics.
func DecodePaperSnapshot(r *snapshot.Reader) (Paper, error) {
	var p Paper
	p.Title = r.String()
	p.Venue = r.String()
	p.Year = r.Int()
	p.Authors = r.Strings()
	nt := r.Int()
	if err := r.Err(); err != nil {
		return Paper{}, err
	}
	if nt < 0 || nt > len(p.Authors) {
		return Paper{}, fmt.Errorf("bib: snapshot paper has %d truth labels for %d authors", nt, len(p.Authors))
	}
	if nt > 0 {
		p.Truth = make([]AuthorID, nt)
		for k := range p.Truth {
			p.Truth[k] = AuthorID(r.Varint())
		}
	}
	if err := r.Err(); err != nil {
		return Paper{}, err
	}
	if err := p.Validate(); err != nil {
		return Paper{}, err
	}
	return p, nil
}

// EncodeSnapshot writes the raw paper records. The derived interned and
// columnar state is NOT serialized: Freeze rebuilds it deterministically
// on decode (intern.Build assigns sorted ranks, so the same papers always
// produce the same tables and IDs), which keeps the wire format small
// and immune to index-layout changes.
func (c *Corpus) EncodeSnapshot(w *snapshot.Writer) {
	c.mustBeFrozen("EncodeSnapshot")
	w.Int(len(c.papers))
	for i := range c.papers {
		EncodePaperSnapshot(w, &c.papers[i])
	}
}

// DecodeCorpusSnapshot reads a corpus written by EncodeSnapshot and
// freezes it, rebuilding every derived index.
func DecodeCorpusSnapshot(r *snapshot.Reader) (*Corpus, error) {
	n := r.Count("corpus papers")
	// Cap the capacity hint: n is untrusted until the papers actually
	// arrive, and a truncated stream errors out within one iteration.
	hint := n
	if hint > 1<<16 {
		hint = 1 << 16
	}
	c := NewCorpus(hint)
	for i := 0; i < n; i++ {
		p, err := DecodePaperSnapshot(r)
		if err != nil {
			return nil, fmt.Errorf("bib: snapshot paper %d: %w", i, err)
		}
		if _, err := c.Add(p); err != nil {
			return nil, fmt.Errorf("bib: snapshot paper %d: %w", i, err)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	c.Freeze()
	return c, nil
}
