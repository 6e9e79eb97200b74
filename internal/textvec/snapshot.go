package textvec

import (
	"fmt"

	"iuad/internal/snapshot"
)

// EncodeSnapshot writes the trained embedding tables: dimensionality,
// vocabulary (row order) and vectors as exact float32 bit patterns. The
// index map and the vocabulary mean are rebuilt on decode (the mean sums
// vectors in row order, so it round-trips bit for bit).
func (e *Embeddings) EncodeSnapshot(w *snapshot.Writer) {
	w.Int(e.dim)
	w.Strings(e.words)
	for _, v := range e.vecs {
		w.F32s(v)
	}
}

// DecodeEmbeddingsSnapshot reads embeddings written by EncodeSnapshot.
func DecodeEmbeddingsSnapshot(r *snapshot.Reader) (*Embeddings, error) {
	e := &Embeddings{
		dim:   r.Int(),
		words: r.Strings(),
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if e.dim < 0 {
		return nil, fmt.Errorf("textvec: snapshot dim %d", e.dim)
	}
	e.index = make(map[string]int, len(e.words))
	for i, w := range e.words {
		e.index[w] = i
	}
	if len(e.words) > 0 {
		e.vecs = make([][]float32, len(e.words))
		for i := range e.vecs {
			v := r.F32s()
			if len(v) != e.dim {
				if err := r.Err(); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("textvec: snapshot vector %d has %d dims, want %d", i, len(v), e.dim)
			}
			e.vecs[i] = v
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	e.mean = e.vocabularyMean()
	return e, nil
}
