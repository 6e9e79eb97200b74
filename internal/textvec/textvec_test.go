package textvec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// topicCorpus builds sentences from two disjoint topics so that
// within-topic words co-occur and cross-topic words never do.
func topicCorpus(n int, seed int64) [][]string {
	topicA := []string{"graph", "kernel", "vertex", "edge", "subgraph"}
	topicB := []string{"query", "index", "join", "scan", "btree"}
	rng := rand.New(rand.NewSource(seed))
	var out [][]string
	for i := 0; i < n; i++ {
		topic := topicA
		if i%2 == 1 {
			topic = topicB
		}
		var s []string
		for j := 0; j < 6; j++ {
			s = append(s, topic[rng.Intn(len(topic))])
		}
		out = append(out, s)
	}
	return out
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Dim = 16
	cfg.Epochs = 8
	cfg.MinCount = 1
	return cfg
}

func TestTrainSeparatesTopics(t *testing.T) {
	e := Train(topicCorpus(400, 3), fastConfig())
	centA := e.Centroid([]string{"graph", "kernel", "vertex"})
	centB := e.Centroid([]string{"query", "index", "join"})
	centA2 := e.Centroid([]string{"edge", "subgraph"})
	within := Cosine(centA, centA2)
	across := Cosine(centA, centB)
	if within <= across {
		t.Fatalf("within-topic cosine %.3f not above cross-topic %.3f", within, across)
	}
}

func TestTrainDeterministic(t *testing.T) {
	corpus := topicCorpus(100, 5)
	e1 := Train(corpus, fastConfig())
	e2 := Train(corpus, fastConfig())
	v1, _ := e1.Vector("graph")
	v2, _ := e2.Vector("graph")
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("training is nondeterministic for a fixed seed")
		}
	}
}

func TestVocabularyFiltering(t *testing.T) {
	cfg := fastConfig()
	cfg.MinCount = 2
	e := Train([][]string{
		{"common", "common", "rare"},
		{"common", "other", "other"},
	}, cfg)
	if _, ok := e.Vector("rare"); ok {
		t.Fatal("rare word kept despite MinCount=2")
	}
	if _, ok := e.Vector("common"); !ok {
		t.Fatal("common word missing")
	}
	if e.Len() != 2 {
		t.Fatalf("vocab size=%d, want 2", e.Len())
	}
	// Most frequent first.
	if e.words[0] != "common" {
		t.Fatalf("words[0]=%q", e.words[0])
	}
}

func TestCentroidUnknownWords(t *testing.T) {
	e := Train(topicCorpus(50, 1), fastConfig())
	if got := e.Centroid([]string{"zzzz", "yyyy"}); got != nil {
		t.Fatalf("centroid of OOV words=%v, want nil", got)
	}
	c := e.Centroid([]string{"graph", "zzzz"})
	v, _ := e.Vector("graph")
	for i := range c {
		if math.Abs(c[i]-float64(v[i])) > 1e-9 {
			t.Fatal("centroid with one known word should equal its vector")
		}
	}
}

func TestCosine(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	c := []float64{2, 0}
	if got := Cosine(a, b); got != 0 {
		t.Fatalf("orthogonal cosine=%g", got)
	}
	if got := Cosine(a, c); math.Abs(got-1) > 1e-12 {
		t.Fatalf("parallel cosine=%g", got)
	}
	if got := Cosine(a, []float64{-1, 0}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("antiparallel cosine=%g", got)
	}
	if Cosine(nil, a) != 0 || Cosine(a, []float64{0, 0}) != 0 || Cosine(a, []float64{1}) != 0 {
		t.Fatal("degenerate cosines should be 0")
	}
}

func TestTrainEmptyCorpus(t *testing.T) {
	e := Train(nil, fastConfig())
	if e.Len() != 0 {
		t.Fatalf("empty corpus vocab=%d", e.Len())
	}
	if got := e.Centroid([]string{"x"}); got != nil {
		t.Fatal("centroid on empty embeddings should be nil")
	}
	if got := e.Mean(); got != nil {
		t.Fatalf("mean of an empty vocabulary=%v, want nil", got)
	}
	if got := e.CenteredCentroidRows([]int32{-1}); got != nil {
		t.Fatalf("centered centroid on empty embeddings=%v, want nil", got)
	}
	// A vocabulary that MinCount empties is the same case.
	if e := Train([][]string{{"a", "b"}}, DefaultConfig()); e.Len() != 0 || e.Mean() != nil {
		t.Fatalf("all-rare corpus: vocab=%d mean=%v, want 0 and nil", e.Len(), e.Mean())
	}
}

func TestTrainPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dim=0 did not panic")
		}
	}()
	Train(nil, Config{Dim: 0, Epochs: 1})
}

// trainReference is the training loop as it stood before Train became a
// sample stream feeding a fused step kernel: one serial loop that draws,
// dots and updates pair by pair. TestTrainMatchesReference holds Train to
// its vectors bit for bit. The only edit is that each product is rounded
// to float32 before it is added, which is what amd64 computes anyway and
// keeps the comparison meaningful where the compiler may fuse
// multiply-add.
func trainReference(sentences [][]string, cfg Config) *Embeddings {
	if cfg.Dim <= 0 || cfg.Epochs <= 0 {
		panic("textvec: nonpositive Dim or Epochs")
	}
	if cfg.Window <= 0 {
		cfg.Window = 2
	}
	if cfg.MinCount < 1 {
		cfg.MinCount = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	freq := map[string]int{}
	for _, s := range sentences {
		for _, w := range s {
			freq[w]++
		}
	}
	type wc struct {
		w string
		c int
	}
	var kept []wc
	for w, c := range freq {
		if c >= cfg.MinCount {
			kept = append(kept, wc{w, c})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].c != kept[j].c {
			return kept[i].c > kept[j].c
		}
		return kept[i].w < kept[j].w
	})
	e := &Embeddings{
		dim:   cfg.Dim,
		index: make(map[string]int, len(kept)),
	}
	for i, k := range kept {
		e.index[k.w] = i
		e.words = append(e.words, k.w)
	}
	v := len(e.words)
	if v == 0 {
		e.vecs = nil
		return e
	}

	e.vecs = make([][]float32, v)
	out := make([][]float32, v)
	for i := 0; i < v; i++ {
		e.vecs[i] = make([]float32, cfg.Dim)
		out[i] = make([]float32, cfg.Dim)
		for d := 0; d < cfg.Dim; d++ {
			e.vecs[i][d] = (rng.Float32() - 0.5) / float32(cfg.Dim)
		}
	}

	cum := make([]float64, v)
	total := 0.0
	for i, k := range kept {
		total += math.Pow(float64(k.c), 0.75)
		cum[i] = total
	}
	sampleNeg := func() int {
		r := rng.Float64() * total
		lo, hi := 0, v-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	enc := make([][]int32, 0, len(sentences))
	tokens := 0
	for _, s := range sentences {
		row := make([]int32, 0, len(s))
		for _, w := range s {
			if id, ok := e.index[w]; ok {
				row = append(row, int32(id))
			}
		}
		if len(row) >= 2 {
			enc = append(enc, row)
			tokens += len(row)
		}
	}
	if tokens == 0 {
		return e
	}
	pair := func(vin, vout []float32, label float32, lr float32, grad []float32) {
		var dot float32
		for d := range vin {
			dot += float32(vin[d] * vout[d])
		}
		g := (label - sigmoid(dot)) * lr
		for d := range vin {
			grad[d] += float32(g * vout[d])
			vout[d] += float32(g * vin[d])
		}
	}
	steps := 0
	totalSteps := cfg.Epochs * tokens
	grad := make([]float32, cfg.Dim)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, row := range enc {
			for pos, wid := range row {
				steps++
				lr := float32(cfg.LR * (1 - float64(steps)/float64(totalSteps+1)))
				if lr < float32(cfg.LR)*0.01 {
					lr = float32(cfg.LR) * 0.01
				}
				win := 1 + rng.Intn(cfg.Window)
				for off := -win; off <= win; off++ {
					cpos := pos + off
					if off == 0 || cpos < 0 || cpos >= len(row) {
						continue
					}
					ctx := int(row[cpos])
					pair(e.vecs[wid], out[ctx], 1, lr, grad)
					for n := 0; n < cfg.Negatives; n++ {
						neg := sampleNeg()
						if neg == ctx {
							continue
						}
						pair(e.vecs[wid], out[neg], 0, lr, grad)
					}
					vin := e.vecs[wid]
					for d := range vin {
						vin[d] += grad[d]
						grad[d] = 0
					}
				}
			}
		}
	}
	return e
}

// wideCorpus draws sentences of varying length over a Zipf-like
// vocabulary of the given size: a few words in most sentences, a long
// tail that MinCount can cut.
func wideCorpus(sentences, vocab int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 2, uint64(vocab-1))
	out := make([][]string, sentences)
	for i := range out {
		s := make([]string, 1+rng.Intn(9))
		for j := range s {
			s[j] = fmt.Sprintf("w%d", zipf.Uint64())
		}
		out[i] = s
	}
	return out
}

// TestTrainMatchesReference holds the two-stage trainer to the textbook
// loop bit for bit, over inputs that force every path: the fused step,
// the fallback for repeated negatives and for skipped ones, target
// counts the fused step does not cover, plans that end mid-sentence,
// and the sampler's guide table on vocabularies from one word up.
func TestTrainMatchesReference(t *testing.T) {
	with := func(edit func(*Config)) Config {
		cfg := DefaultConfig()
		cfg.Epochs = 2
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name   string
		corpus [][]string
		cfg    Config
	}{
		{"default config, ten-word topics", topicCorpus(300, 3), DefaultConfig()},
		{"eight-word vocabulary", wideCorpus(300, 8, 1), DefaultConfig()},
		{"wide vocabulary, several plans", wideCorpus(1500, 400, 2), with(func(*Config) {})},
		{"no negatives", wideCorpus(200, 50, 3), with(func(c *Config) { c.Negatives = 0 })},
		{"one negative", wideCorpus(200, 50, 3), with(func(c *Config) { c.Negatives = 1 })},
		{"seven negatives", wideCorpus(200, 50, 3), with(func(c *Config) { c.Negatives = 7 })},
		{"seven negatives, tiny vocabulary", wideCorpus(200, 9, 3), with(func(c *Config) { c.Negatives = 7 })},
		{"window 1", wideCorpus(200, 50, 4), with(func(c *Config) { c.Window = 1 })},
		{"window defaulted", wideCorpus(200, 50, 4), with(func(c *Config) { c.Window = 0 })},
		{"dim 1", wideCorpus(200, 50, 5), with(func(c *Config) { c.Dim = 1 })},
		{"dim 16", wideCorpus(200, 50, 5), with(func(c *Config) { c.Dim = 16 })},
		{"min count 3", wideCorpus(300, 200, 6), with(func(c *Config) { c.MinCount = 3 })},
		{"one sentence", [][]string{{"a", "b", "c", "a", "d", "b", "e", "f", "g"}}, with(func(c *Config) { c.MinCount = 1 })},
		{"one word", [][]string{{"a", "a", "a"}, {"a", "a"}}, with(func(c *Config) { c.MinCount = 1 })},
		{"no sentence long enough", [][]string{{"a", "b"}, {"a", "c"}}, DefaultConfig()},
		{"another seed", wideCorpus(300, 100, 7), with(func(c *Config) { c.Seed = 99 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := trainReference(tc.corpus, tc.cfg)
			got := Train(tc.corpus, tc.cfg)
			if got.Len() != want.Len() || got.dim != want.dim {
				t.Fatalf("shape %d×%d, want %d×%d", got.Len(), got.dim, want.Len(), want.dim)
			}
			for i, w := range want.words {
				if got.words[i] != w {
					t.Fatalf("word %d is %q, want %q", i, got.words[i], w)
				}
				gv, _ := got.Vector(w)
				wv, _ := want.Vector(w)
				for d := range wv {
					if math.Float32bits(gv[d]) != math.Float32bits(wv[d]) {
						t.Fatalf("vector %q[%d] = %x, want %x", w, d, math.Float32bits(gv[d]), math.Float32bits(wv[d]))
					}
				}
			}
		})
	}
}

// TestTrainPathCoverage checks that the corpora of
// TestTrainMatchesReference reach the paths they are there for, so that
// the equality it asserts is not an equality of two fallbacks.
func TestTrainPathCoverage(t *testing.T) {
	count := func(corpus [][]string, cfg Config) (plans, fused, repeated, short int) {
		s := testSampler(corpus, cfg)
		p := s.newPlan()
		for s.fill(p) {
			plans++
			for _, st := range p.steps {
				switch {
				case !st.distinct:
					repeated++
				case int(st.n) == fusedTargets:
					fused++
				default:
					short++
				}
			}
		}
		return
	}
	plans, fused, repeated, short := count(wideCorpus(1500, 400, 2), DefaultConfig())
	if plans < 3 || fused == 0 || repeated == 0 || short == 0 {
		t.Errorf("wide corpus: %d plans, %d fused, %d repeated, %d short steps; want several plans and every kind", plans, fused, repeated, short)
	}
	_, fused, repeated, short = count(wideCorpus(300, 8, 1), DefaultConfig())
	if repeated < 10*fused || short == 0 {
		t.Errorf("eight-word corpus: %d fused, %d repeated, %d short steps; want mostly repeated negatives", fused, repeated, short)
	}
}

// testSampler builds the sample stream of a corpus the way Train does,
// with every word kept.
func testSampler(corpus [][]string, cfg Config) *sampler {
	index := map[string]int32{}
	var counts []float64
	enc := make([][]int32, 0, len(corpus))
	tokens := 0
	for _, s := range corpus {
		row := make([]int32, len(s))
		for i, w := range s {
			id, ok := index[w]
			if !ok {
				id = int32(len(counts))
				index[w] = id
				counts = append(counts, 0)
			}
			counts[id]++
			row[i] = id
		}
		if len(row) >= 2 {
			enc = append(enc, row)
			tokens += len(row)
		}
	}
	cum := make([]float64, len(counts))
	total := 0.0
	for i, c := range counts {
		total += math.Pow(c, 0.75)
		cum[i] = total
	}
	return newSampler(rand.New(rand.NewSource(cfg.Seed)), enc, tokens, cum, cfg)
}

// TestSampleNegMatchesBinarySearch drives the guided scan and the
// binary search it replaced with the same masses, including every
// boundary of the cumulative table and its neighbours.
func TestSampleNegMatchesBinarySearch(t *testing.T) {
	for _, vocab := range []int{1, 2, 3, 8, 100, 2146} {
		rng := rand.New(rand.NewSource(int64(vocab)))
		cum := make([]float64, vocab)
		total := 0.0
		for i := range cum {
			total += math.Pow(float64(1+rng.Intn(500)), 0.75)
			cum[i] = total
		}
		s := newSampler(nil, [][]int32{{0, 0}}, 2, cum, DefaultConfig())
		masses := []float64{0, total, math.Nextafter(total, 0)}
		for _, c := range cum {
			masses = append(masses, c, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)))
		}
		for i := 0; i < 2000; i++ {
			masses = append(masses, rng.Float64()*total)
		}
		for _, r := range masses {
			lo, hi := 0, vocab-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cum[mid] < r {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if got := s.locate(r); int(got) != lo {
				t.Fatalf("vocabulary %d, mass %v: word %d, binary search gives %d", vocab, r, got, lo)
			}
		}
	}
}

// TestTrainStopsSampler: the goroutine Train starts for the sample
// stream has exited when Train returns.
func TestTrainStopsSampler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		Train(topicCorpus(50, int64(i)), fastConfig())
	}
	// Train waits for the goroutine's last statement, not for the
	// runtime to retire it: give the last one a few scheduler turns.
	after := runtime.NumGoroutine()
	for i := 0; i < 1000 && after > before; i++ {
		runtime.Gosched()
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("%d goroutines before 20 fits, %d after", before, after)
	}
}
