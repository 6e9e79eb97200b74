package core

import (
	"math"
	"testing"

	"iuad/internal/bib"
)

// simFixture builds a corpus and SCN with known structure for direct
// similarity-function tests:
//
//	name "X" has three stable vertices:
//	  v0: KDD community — papers 0,1,2 with partners A,B (triangle X-A-B)
//	  v1: KDD community — papers 3,4 with partners A,B (same triangle names)
//	  v2: VLDB community — papers 5,6 with partners C,D
func simFixture(t *testing.T) (*bib.Corpus, *Network, *similarityComputer, []int) {
	t.Helper()
	c := bib.NewCorpus(0)
	add := func(title, venue string, year int, authors ...string) {
		c.MustAdd(bib.Paper{Title: title, Venue: venue, Year: year, Authors: authors})
	}
	// v0: X with A and B (stable triangle X-A-B).
	add("graph kernels alpha", "KDD", 2010, "X", "A", "B")
	add("graph kernels beta", "KDD", 2011, "X", "A", "B")
	add("graph mining gamma", "KDD", 2012, "X", "A")
	// v1: X' with A' and B' — same names A and B cannot be reused for a
	// second X vertex (they'd merge via slot conflicts); use E,F with
	// their own triangle.
	add("graph kernels delta", "KDD", 2013, "Y", "E", "F")
	add("graph kernels epsilon", "KDD", 2014, "Y", "E", "F")
	// v2: X with C and D at VLDB.
	add("query joins zeta", "VLDB", 2010, "X", "C", "D")
	add("query joins eta", "VLDB", 2011, "X", "C", "D")
	// Filler so venue/word frequencies are nontrivial.
	add("query storage theta", "VLDB", 2012, "M", "N")
	add("graph kernels iota", "KDD", 2013, "P", "Q")
	c.Freeze()
	cfg := DefaultConfig()
	scn, err := BuildSCN(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := newSimilarityComputer(scn, corpusSource{c}, nil, &cfg)
	xs := scn.VerticesOf("X")
	if len(xs) != 2 {
		t.Fatalf("fixture: X has %d vertices, want 2", len(xs))
	}
	return c, scn, sim, xs
}

func TestSimilaritiesKnownValues(t *testing.T) {
	_, scn, sim, xs := simFixture(t)
	// Identify which X vertex is the KDD one (3 papers).
	kdd, vldb := xs[0], xs[1]
	if len(scn.Verts[kdd].Papers) < len(scn.Verts[vldb].Papers) {
		kdd, vldb = vldb, kdd
	}
	g := sim.Similarities(kdd, vldb)

	// Different venues, disjoint keywords and partners: community and
	// interest features must be zero.
	if g[SimRepCommunity] != 0 {
		t.Fatalf("γ5=%v, want 0 (no shared venue)", g[SimRepCommunity])
	}
	if g[SimCommunity] != 0 {
		t.Fatalf("γ6=%v, want 0", g[SimCommunity])
	}
	if g[SimCliques] != 0 {
		t.Fatalf("γ2=%v, want 0 (different partner cliques)", g[SimCliques])
	}
	// Shared keyword "graph"? kdd titles use graph/kernels/mining; vldb
	// titles use query/joins — γ4 must be 0.
	if g[SimTimeConsist] != 0 {
		t.Fatalf("γ4=%v, want 0", g[SimTimeConsist])
	}
	// nil embeddings → γ3 = 0.
	if g[SimInterests] != 0 {
		t.Fatalf("γ3=%v, want 0 without embeddings", g[SimInterests])
	}
}

func TestSimilaritiesSameCommunityPair(t *testing.T) {
	c := bib.NewCorpus(0)
	add := func(title, venue string, year int, authors ...string) {
		c.MustAdd(bib.Paper{Title: title, Venue: venue, Year: year, Authors: authors})
	}
	// Two stable X vertices in the SAME venue with the same partner
	// names forming triangles.
	add("graph kernels one", "KDD", 2010, "X", "A", "B")
	add("graph kernels two", "KDD", 2011, "X", "A", "B")
	add("graph kernels three", "KDD", 2018, "X", "C", "D")
	add("graph kernels four", "KDD", 2019, "X", "C", "D")
	c.Freeze()
	cfg := DefaultConfig()
	scn, err := BuildSCN(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs := scn.VerticesOf("X")
	if len(xs) != 2 {
		t.Fatalf("X vertices=%d, want 2 (no stable triangle across phases)", len(xs))
	}
	sim := newSimilarityComputer(scn, corpusSource{c}, nil, &cfg)
	g := sim.Similarities(xs[0], xs[1])

	// Same top venue on both sides: γ5 = (2+2)/min(2,2) = 2.
	if g[SimRepCommunity] != 2 {
		t.Fatalf("γ5=%v, want 2", g[SimRepCommunity])
	}
	// Adamic/Adar over the shared venue: (1/log 4)/τ with F_KDD=4, τ=2.
	want := 1 / math.Log(4) / 2
	if math.Abs(g[SimCommunity]-want) > 1e-12 {
		t.Fatalf("γ6=%v, want %v", g[SimCommunity], want)
	}
	// Shared keywords "graph","kernels" (stop-worded title pieces
	// removed): both words appear in all 4 papers → F_B = 4; the year
	// gap is 2018-2011 = 7 → decay exp(-0.62·7).
	decay := math.Exp(-0.62 * 7)
	wantT := 2 * decay / math.Log(4) / 2
	if math.Abs(g[SimTimeConsist]-wantT) > 1e-9 {
		t.Fatalf("γ4=%v, want %v", g[SimTimeConsist], wantT)
	}
	// WL: both vertices have neighbors, structure is the mirrored star
	// triangle with different partner names — kernel in (0,1).
	if g[SimWLKernel] <= 0 || g[SimWLKernel] >= 1 {
		t.Fatalf("γ1=%v, want in (0,1)", g[SimWLKernel])
	}
}

func TestTauUsesSmallerPaperCount(t *testing.T) {
	a := &profile{paperCount: 10}
	b := &profile{paperCount: 3}
	if got := tau(a, b); got != 3 {
		t.Fatalf("tau=%v, want 3", got)
	}
	if got := tau(&profile{}, b); got != 1 {
		t.Fatalf("tau floor=%v, want 1", got)
	}
}

func TestMinYearDiff(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int
	}{
		{[]int32{2000, 2005}, []int32{2007}, 2},
		{[]int32{2000}, []int32{2000}, 0},
		{[]int32{1990, 2000}, []int32{1994, 1996}, 4},
		{[]int32{2010}, []int32{2000, 2009, 2020}, 1},
	}
	for _, tc := range cases {
		if got := minYearDiff32(tc.a, tc.b); got != tc.want {
			t.Fatalf("minYearDiff32(%v,%v)=%d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestProfileInvalidate(t *testing.T) {
	_, _, sim, xs := simFixture(t)
	p1 := sim.profileOf(xs[0])
	if p2 := sim.profileOf(xs[0]); p1 != p2 {
		t.Fatal("profile not cached")
	}
	sim.invalidate(xs[0])
	if p3 := sim.profileOf(xs[0]); p1 == p3 {
		t.Fatal("invalidate did not drop the cache")
	}
}

func TestGammaForProjection(t *testing.T) {
	cfg := DefaultConfig()
	full := [NumSimilarities]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	all := cfg.gammaFor(full)
	if len(all) != NumSimilarities || all[5] != 0.6 {
		t.Fatalf("unmasked projection=%v", all)
	}
	cfg.FeatureMask = []bool{false, true, false, false, false, true}
	masked := cfg.gammaFor(full)
	if len(masked) != 2 || masked[0] != 0.2 || masked[1] != 0.6 {
		t.Fatalf("masked projection=%v", masked)
	}
}
