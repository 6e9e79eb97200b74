package textvec

import "math/rand"

// step is one (center, context) pair with the negatives drawn for it:
// the unit after which the input vector of center is updated.
type step struct {
	center   int32
	n        int32   // targets of this step: the context, then the negatives that are not the context
	lr       float32 // learning rate of the center's corpus position
	distinct bool    // no two targets name the same word
}

// plan is a run of consecutive steps in training order. targets holds
// each step's n targets back to back.
type plan struct {
	steps   []step
	targets []int32
}

// planSteps is the step count at which a plan is handed over: long
// enough that a handover costs nothing against the work in it, short
// enough that the plans in flight stay in cache (about 160 KB each at
// the default five negatives).
const planSteps = 4096

// sampler is the sample stream: it walks the encoded corpus Epochs
// times and makes every random draw of SGNS training — a window width
// per position, then Negatives draws from the unigram^0.75 table per
// context — in the order the textbook loop makes them. It reads the
// RNG, the sentences and the frequency table, and nothing of the model.
type sampler struct {
	rng *rand.Rand
	enc [][]int32 // sentences of vocabulary rows, each at least two long
	cfg Config

	// cum[i] is the unigram^0.75 mass of words 0..i; total is cum's last
	// entry. guide[b] is a word near where bucket b of the mass range
	// [0, total) starts, and scale maps a mass to its bucket.
	cum   []float64
	total float64
	guide []int32
	scale float64

	epoch, row, pos int // next corpus position to draw for
	position        int // positions drawn so far, over all epochs
	positions       int // Epochs × corpus tokens
}

func newSampler(rng *rand.Rand, enc [][]int32, tokens int, cum []float64, cfg Config) *sampler {
	s := &sampler{
		rng:       rng,
		enc:       enc,
		cfg:       cfg,
		cum:       cum,
		total:     cum[len(cum)-1],
		guide:     make([]int32, 2*len(cum)),
		positions: cfg.Epochs * tokens,
	}
	s.scale = float64(len(s.guide)) / s.total
	i := 0
	for b := range s.guide {
		for i < len(cum)-1 && cum[i]*s.scale < float64(b) {
			i++
		}
		s.guide[b] = int32(i)
	}
	return s
}

// newPlan returns an empty plan with room for everything one fill puts
// in it: fill stops at the first position boundary at or past planSteps,
// and one position adds at most 2·Window steps.
func (s *sampler) newPlan() *plan {
	steps := planSteps + 2*s.cfg.Window
	return &plan{
		steps:   make([]step, 0, steps),
		targets: make([]int32, 0, steps*(s.cfg.Negatives+1)),
	}
}

// fill replaces the contents of p with the next steps of the stream and
// reports whether there were any.
func (s *sampler) fill(p *plan) bool {
	p.steps, p.targets = p.steps[:0], p.targets[:0]
	for s.epoch < s.cfg.Epochs && len(p.steps) < planSteps {
		row := s.enc[s.row]
		s.drawPosition(p, row, s.pos)
		if s.pos++; s.pos == len(row) {
			s.pos = 0
			if s.row++; s.row == len(s.enc) {
				s.row = 0
				s.epoch++
			}
		}
	}
	return len(p.steps) > 0
}

// drawPosition appends the steps centred on row[pos].
func (s *sampler) drawPosition(p *plan, row []int32, pos int) {
	s.position++
	lr := float32(s.cfg.LR * (1 - float64(s.position)/float64(s.positions+1)))
	if lr < float32(s.cfg.LR)*0.01 {
		lr = float32(s.cfg.LR) * 0.01
	}
	win := 1 + s.rng.Intn(s.cfg.Window)
	for off := -win; off <= win; off++ {
		cpos := pos + off
		if off == 0 || cpos < 0 || cpos >= len(row) {
			continue
		}
		ctx := row[cpos]
		first := len(p.targets)
		p.targets = append(p.targets, ctx)
		distinct := true
		for n := 0; n < s.cfg.Negatives; n++ {
			neg := s.sampleNeg()
			if neg == ctx {
				continue
			}
			for _, t := range p.targets[first+1:] {
				if t == neg {
					distinct = false
				}
			}
			p.targets = append(p.targets, neg)
		}
		p.steps = append(p.steps, step{
			center:   row[pos],
			n:        int32(len(p.targets) - first),
			lr:       lr,
			distinct: distinct,
		})
	}
}

// sampleNeg draws a word with probability proportional to its
// unigram^0.75 mass.
func (s *sampler) sampleNeg() int32 {
	return s.locate(s.rng.Float64() * s.total)
}

// locate returns the first i with cum[i] >= r, or the last word when
// rounding puts r past every entry: the index a binary search over cum
// returns. The guide table only chooses where the scan starts; the two
// loops move from there to that index by comparing r with cum itself, so
// a guide entry that is off changes the cost and never the answer.
func (s *sampler) locate(r float64) int32 {
	b := int(r * s.scale)
	if b >= len(s.guide) {
		b = len(s.guide) - 1
	}
	i := int(s.guide[b])
	for i > 0 && s.cum[i-1] >= r {
		i--
	}
	for i < len(s.cum)-1 && s.cum[i] < r {
		i++
	}
	return int32(i)
}
