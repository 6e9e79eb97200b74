// Package textvec trains word embeddings from scratch with skip-gram
// negative sampling (SGNS, Mikolov et al. 2013). IUAD's research-interest
// similarity γ³ (§V-B2) measures the cosine of keyword-vector centroids;
// the paper uses pretrained Word2Vec/GloVe/BERT vectors, which are not
// available offline, so this package trains equivalent distributional
// vectors on the corpus titles themselves (see DESIGN.md substitution 3).
//
// The trainer is deterministic for a fixed Config.Seed and uses no
// dependencies beyond the standard library. It runs in two stages that
// together perform exactly the float32 operations, in exactly the order,
// of the textbook loop (kept as trainReference in the tests):
//
//   - The sample stream (sample.go) draws every window width and every
//     negative in the textbook order into plans of a few thousand steps.
//     Draws depend on the seeded RNG and the encoded sentences only, never
//     on the vectors, so the stream can run ahead of the model.
//   - The step kernel (model.apply, below) consumes the plans. Within one
//     (center, context) step the input vector is read-only until the step
//     ends and each target's output row belongs to one pair only, so when
//     the six targets of a default step are distinct their dot products
//     are interleaved and their updates fused into one pass; a step with
//     a repeated negative, or with any other target count, runs the
//     textbook pair sequence.
//
// With more than one processor the stream fills plans on a goroutine that
// Train starts and waits for; with one it alternates with the kernel on
// the caller's goroutine. The vectors are the same bits either way, which
// is why there is no option to choose.
package textvec

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
)

// Config parameterizes SGNS training.
type Config struct {
	Dim       int     // embedding dimensionality
	Window    int     // max context offset
	Negatives int     // negative samples per positive pair
	Epochs    int     // passes over the corpus
	LR        float64 // initial learning rate (linearly decayed)
	MinCount  int     // discard words rarer than this
	Seed      int64
}

// DefaultConfig returns a laptop-scale parameterization adequate for
// title corpora.
func DefaultConfig() Config {
	return Config{Dim: 48, Window: 4, Negatives: 5, Epochs: 5, LR: 0.025, MinCount: 2, Seed: 1}
}

// Embeddings holds trained word vectors.
type Embeddings struct {
	dim   int
	index map[string]int
	vecs  [][]float32
	words []string
	mean  []float64 // set once by Train and DecodeEmbeddingsSnapshot; see Mean
}

// Dim returns the vector dimensionality.
func (e *Embeddings) Dim() int { return e.dim }

// Len returns the vocabulary size.
func (e *Embeddings) Len() int { return len(e.words) }

// Words returns the vocabulary, most frequent first.
func (e *Embeddings) Words() []string { return e.words }

// Vector returns the embedding of w and whether w is in vocabulary. The
// returned slice is owned by the Embeddings; do not mutate.
func (e *Embeddings) Vector(w string) ([]float32, bool) {
	i, ok := e.index[w]
	if !ok {
		return nil, false
	}
	return e.vecs[i], true
}

// Centroid returns the mean vector of the in-vocabulary words, or nil if
// none are known. This is W(v) of Eq. 6 — the center of all keyword
// vectors of a vertex.
func (e *Embeddings) Centroid(words []string) []float64 {
	out := make([]float64, e.dim)
	n := 0
	for _, w := range words {
		if v, ok := e.Vector(w); ok {
			for i, x := range v {
				out[i] += float64(x)
			}
			n++
		}
	}
	if n == 0 {
		return nil
	}
	for i := range out {
		out[i] /= float64(n)
	}
	return out
}

// Mean returns the average of all vocabulary vectors — the "common
// component" of the embedding space — or nil for an empty vocabulary.
// SGNS vectors share a large common direction (negative-sampling
// geometry), which saturates raw centroid cosines near 1; subtracting the
// mean restores discrimination. The returned slice is owned by the
// Embeddings; do not mutate.
func (e *Embeddings) Mean() []float64 { return e.mean }

// vocabularyMean sums the vectors in row order, so Train and a snapshot
// decode of the same vectors produce the same bits.
func (e *Embeddings) vocabularyMean() []float64 {
	if len(e.vecs) == 0 {
		return nil
	}
	out := make([]float64, e.dim)
	for _, v := range e.vecs {
		for i, x := range v {
			out[i] += float64(x)
		}
	}
	for i := range out {
		out[i] /= float64(len(e.vecs))
	}
	return out
}

// CenteredCentroid returns Centroid(words) minus the vocabulary mean —
// the similarity-ready representation of a word set.
func (e *Embeddings) CenteredCentroid(words []string) []float64 {
	c := e.Centroid(words)
	if c == nil {
		return nil
	}
	for i, m := range e.Mean() {
		c[i] -= m
	}
	return c
}

// RowOf returns the vocabulary row index of w, or -1 when w is out of
// vocabulary. Hot paths resolve words to rows once and then use
// CenteredCentroidRows, skipping the per-word map lookups.
func (e *Embeddings) RowOf(w string) int32 {
	if i, ok := e.index[w]; ok {
		return int32(i)
	}
	return -1
}

// CenteredCentroidRows is CenteredCentroid over pre-resolved vocabulary
// rows; entries < 0 (out of vocabulary) are skipped. The summation order
// is the row order, so resolving a word sequence to rows and calling
// this reproduces CenteredCentroid on that sequence bit for bit.
func (e *Embeddings) CenteredCentroidRows(rows []int32) []float64 {
	out := make([]float64, e.dim)
	n := 0
	for _, r := range rows {
		if r < 0 {
			continue
		}
		for i, x := range e.vecs[r] {
			out[i] += float64(x)
		}
		n++
	}
	if n == 0 {
		return nil
	}
	for i := range out {
		out[i] /= float64(n)
	}
	for i, m := range e.Mean() {
		out[i] -= m
	}
	return out
}

// Cosine returns the cosine similarity of two dense vectors; 0 when
// either is nil or zero.
func Cosine(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 || len(a) != len(b) {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Train builds SGNS embeddings from token sequences. Sentences shorter
// than two in-vocabulary tokens contribute nothing.
func Train(sentences [][]string, cfg Config) *Embeddings {
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

	// Vocabulary with frequency threshold, ordered by descending count
	// then lexicographically (deterministic).
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
		return e
	}

	// Flat v×Dim input and output tables; the rows of e.vecs are views
	// of the input table.
	m := &model{
		dim:  cfg.Dim,
		in:   make([]float32, v*cfg.Dim),
		out:  make([]float32, v*cfg.Dim),
		grad: make([]float32, cfg.Dim),
	}
	for i := range m.in {
		m.in[i] = (rng.Float32() - 0.5) / float32(cfg.Dim)
	}
	e.vecs = make([][]float32, v)
	for i := range e.vecs {
		e.vecs[i] = m.in[i*cfg.Dim : (i+1)*cfg.Dim : (i+1)*cfg.Dim]
	}

	// Unigram^0.75 negative-sampling table (alias-free cumulative scan).
	cum := make([]float64, v)
	total := 0.0
	for i, k := range kept {
		total += math.Pow(float64(k.c), 0.75)
		cum[i] = total
	}

	// Encode sentences once.
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
	if tokens > 0 {
		// From here on the RNG belongs to the sample stream.
		m.train(newSampler(rng, enc, tokens, cum, cfg))
	}
	e.mean = e.vocabularyMean()
	return e
}

// model is the state the step kernel updates: the input and output
// vector tables, flat with one Dim-long row per vocabulary word.
type model struct {
	dim     int
	in, out []float32
	grad    []float32 // input-gradient scratch of the textbook pair sequence; zero between steps
}

// plansInFlight is one plan being applied, one ready and one being
// filled, so neither stage waits unless the other is a whole plan behind.
const plansInFlight = 3

// train applies every plan of the sample stream in order. The stream
// never reads the model, so filling plans ahead of the kernel on another
// goroutine cannot change a bit of the result; the goroutine has exited
// when train returns.
func (m *model) train(s *sampler) {
	if runtime.GOMAXPROCS(0) == 1 {
		p := s.newPlan()
		for s.fill(p) {
			m.apply(p)
		}
		return
	}
	free := make(chan *plan, plansInFlight) // holds every plan, so handing one back never blocks
	for i := 0; i < plansInFlight; i++ {
		free <- s.newPlan()
	}
	ready := make(chan *plan, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ready)
		for {
			p := <-free
			if !s.fill(p) {
				return
			}
			ready <- p
		}
	}()
	for p := range ready {
		m.apply(p)
		free <- p
	}
	wg.Wait()
}

// fusedTargets is the target count the fused step covers: the context
// and the five negatives of every Config in this repository.
const fusedTargets = 6

// apply runs the steps of one plan against the model.
func (m *model) apply(p *plan) {
	targets := p.targets
	for _, st := range p.steps {
		tg := targets[:st.n]
		targets = targets[st.n:]
		vin := m.in[int(st.center)*m.dim:][:m.dim]
		if st.distinct && len(tg) == fusedTargets {
			m.fusedStep(vin, tg, st.lr)
			continue
		}
		// The textbook sequence: the pairs one after another, each seeing
		// the output rows the previous ones left.
		for k, t := range tg {
			label := float32(0)
			if k == 0 {
				label = 1
			}
			trainPair(vin, m.out[int(t)*m.dim:][:m.dim], label, st.lr, m.grad)
		}
		// Apply accumulated input-vector gradient.
		for d := range vin {
			vin[d] += m.grad[d]
			m.grad[d] = 0
		}
	}
}

// fusedStep is the textbook sequence of one step whose six targets
// (tg[0] the context, the rest negatives) are distinct rows. vin is not
// written before the end of a step, and with distinct targets no pair
// reads an output row another pair wrote, so the six dot products can
// be taken together, and every element of vin and of the six rows can
// then be updated in one pass. Each element still sees the same float32
// operations in the same order: six independent dot-product chains in
// place of six consecutive ones, and the input gradient summed from
// zero in target order.
func (m *model) fusedStep(vin []float32, tg []int32, lr float32) {
	dim := len(vin)
	o0 := m.out[int(tg[0])*dim:][:dim]
	o1 := m.out[int(tg[1])*dim:][:dim]
	o2 := m.out[int(tg[2])*dim:][:dim]
	o3 := m.out[int(tg[3])*dim:][:dim]
	o4 := m.out[int(tg[4])*dim:][:dim]
	o5 := m.out[int(tg[5])*dim:][:dim]
	var d0, d1, d2, d3, d4, d5 float32
	for d, x := range vin {
		d0 += float32(x * o0[d])
		d1 += float32(x * o1[d])
		d2 += float32(x * o2[d])
		d3 += float32(x * o3[d])
		d4 += float32(x * o4[d])
		d5 += float32(x * o5[d])
	}
	g0 := (1 - sigmoid(d0)) * lr
	g1 := (0 - sigmoid(d1)) * lr
	g2 := (0 - sigmoid(d2)) * lr
	g3 := (0 - sigmoid(d3)) * lr
	g4 := (0 - sigmoid(d4)) * lr
	g5 := (0 - sigmoid(d5)) * lr
	for d, x := range vin {
		var grad float32
		y := o0[d]
		grad += float32(g0 * y)
		o0[d] = y + float32(g0*x)
		y = o1[d]
		grad += float32(g1 * y)
		o1[d] = y + float32(g1*x)
		y = o2[d]
		grad += float32(g2 * y)
		o2[d] = y + float32(g2*x)
		y = o3[d]
		grad += float32(g3 * y)
		o3[d] = y + float32(g3*x)
		y = o4[d]
		grad += float32(g4 * y)
		o4[d] = y + float32(g4*x)
		y = o5[d]
		grad += float32(g5 * y)
		o5[d] = y + float32(g5*x)
		vin[d] = x + grad
	}
}

// trainPair performs one SGD step on (input, output) with target label
// (1 = observed context, 0 = negative sample), accumulating the input
// gradient into grad and updating the output vector in place. Products
// are rounded to float32 before they are added (as in fusedStep), so an
// architecture with fused multiply-add computes the same bits.
func trainPair(vin, vout []float32, label float32, lr float32, grad []float32) {
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

func sigmoid(x float32) float32 {
	if x > 8 {
		return 1
	}
	if x < -8 {
		return 0
	}
	return float32(1 / (1 + math.Exp(-float64(x))))
}
