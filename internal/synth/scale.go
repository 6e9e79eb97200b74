// Corpus scaling: preset configurations for the labeled accuracy
// scenario (10⁴–10⁶ papers) and the degree-distribution measurements the
// scale-free property tests and cmd/experiments -run accuracy report.
package synth

import (
	"math"

	"iuad/internal/bib"
	"iuad/internal/stats"
)

// ScaleConfig derives a generator configuration targeting roughly
// targetPapers papers (papers ≈ Authors × MeanPapersPerAuthor; the
// heavy-tailed productivity draw lands the realized count within ~15%).
// Unlike DefaultConfig it scales the community count, vocabulary and
// name space with the corpus and turns preferential attachment on, so
// corpora of every size keep:
//
//   - a controlled homonym-block ambiguity rate (HomonymRate of authors
//     in blocks of geometric size, like the small corpus),
//   - an accidental name-collision rate that stays realistic instead of
//     exploding quadratically (the name pool grows with ~Authors^0.5),
//   - a scale-free coauthor degree distribution (preferential
//     attachment over community collaboration bags).
//
// Generation is deterministic for (targetPapers, seed).
func ScaleConfig(targetPapers int, seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	authors := int(float64(targetPapers) / cfg.MeanPapersPerAuthor)
	if authors < 100 {
		authors = 100
	}
	cfg.Authors = authors
	// ~60 authors per community keeps community-venue/topic structure
	// meaningful at every scale (the quick corpus sits at 62).
	cfg.Communities = authors / 60
	if cfg.Communities < 16 {
		cfg.Communities = 16
	}
	// Vocabulary grows sublinearly (Heaps-law-like) and stays well under
	// the 1-3 syllable word space.
	vocab := int(18 * math.Pow(float64(authors), 0.55))
	if vocab < 1600 {
		vocab = 1600
	}
	if vocab > 50000 {
		vocab = 50000
	}
	cfg.Vocabulary = vocab
	// Name pool ∝ √Authors on each axis: accidental collisions then
	// scale linearly with Authors (E[collisions] ≈ A²/(2·S·G) ∝ A),
	// matching DBLP's regime where a constant fraction of names is
	// incidentally shared.
	sur := int(4 * math.Sqrt(float64(authors)))
	if sur < 120 {
		sur = 120
	}
	cfg.Surnames = sur
	cfg.GivenNames = 3 * sur
	cfg.HomonymBlockP = 0.55
	cfg.PreferentialAttachment = 0.5
	cfg.GlobalVenues = 8 + cfg.Communities/20
	return cfg
}

// CoauthorDegreeHistogram returns the histogram of distinct-coauthor
// counts per ground-truth author (authors with zero collaborations are
// excluded: log-log fits cannot hold zero-degree mass). Degrees are
// counted between true authors, not names, so the measurement is of the
// generated collaboration network itself.
func (d *Dataset) CoauthorDegreeHistogram() *stats.Histogram {
	partners := make([]map[bib.AuthorID]struct{}, len(d.Authors))
	for i := 0; i < d.Corpus.Len(); i++ {
		truth := d.Corpus.Paper(bib.PaperID(i)).Truth
		for x := 0; x < len(truth); x++ {
			for y := x + 1; y < len(truth); y++ {
				u, v := truth[x], truth[y]
				if partners[u] == nil {
					partners[u] = make(map[bib.AuthorID]struct{}, 4)
				}
				if partners[v] == nil {
					partners[v] = make(map[bib.AuthorID]struct{}, 4)
				}
				partners[u][v] = struct{}{}
				partners[v][u] = struct{}{}
			}
		}
	}
	h := stats.NewHistogram(nil)
	for _, set := range partners {
		if len(set) > 0 {
			h.Add(len(set))
		}
	}
	return h
}

// DegreeSlope fits the log-log slope of the coauthor degree
// distribution (the scale-free exponent is its negation). Collaboration
// networks measure γ ≈ 2–3.5; the generator's property test pins the
// slope inside a configured band.
func (d *Dataset) DegreeSlope() (float64, error) {
	slope, _, err := d.CoauthorDegreeHistogram().PowerLawFit()
	return slope, err
}
