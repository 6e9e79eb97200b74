package emfit

import "fmt"

// Matrix is the feature-major training matrix of the columnar EM
// engine: one flat []float64 per feature, rows appended across all
// columns at once. The layout matches how EM actually consumes samples
// — every E-step and M-step kernel streams one feature over all rows —
// so the engine never chases per-row slice headers, and callers that
// assemble training sets incrementally (the IUAD fit-prep path) write
// γ vectors straight into the columns instead of allocating one
// []float64 per sample.
//
// Rows reserved with Grow may be filled concurrently with SetRow as
// long as each row index is written by exactly one goroutine: distinct
// rows touch disjoint column elements, and no append happens between
// Grow and the writes.
type Matrix struct {
	rows int
	cols [][]float64
}

// NewMatrix returns an empty matrix with the given number of feature
// columns, each with capacity for capRows rows.
func NewMatrix(features, capRows int) *Matrix {
	if features < 0 {
		panic("emfit: negative feature count")
	}
	mx := &Matrix{cols: make([][]float64, features)}
	for i := range mx.cols {
		mx.cols[i] = make([]float64, 0, capRows)
	}
	return mx
}

// Features returns the number of feature columns.
func (mx *Matrix) Features() int { return len(mx.cols) }

// Rows returns the number of samples appended so far.
func (mx *Matrix) Rows() int { return mx.rows }

// AppendRow appends one sample across every column. The gamma slice is
// copied; the caller keeps ownership.
func (mx *Matrix) AppendRow(gamma []float64) {
	if len(gamma) != len(mx.cols) {
		panic(fmt.Sprintf("emfit: AppendRow with %d features, matrix has %d", len(gamma), len(mx.cols)))
	}
	for i, v := range gamma {
		mx.cols[i] = append(mx.cols[i], v)
	}
	mx.rows++
}

// Grow appends n zero rows and returns the index of the first new row.
// It is the reservation half of parallel row filling: reserve the block
// on one goroutine, then SetRow each reserved index from workers.
func (mx *Matrix) Grow(n int) int {
	first := mx.rows
	for i := range mx.cols {
		for len(mx.cols[i]) < first+n {
			mx.cols[i] = append(mx.cols[i], 0)
		}
	}
	mx.rows += n
	return first
}

// SetRow overwrites row j across every column. Safe to call from
// concurrent goroutines as long as each row is written by exactly one
// of them and j is below the current row count.
func (mx *Matrix) SetRow(j int, gamma []float64) {
	if len(gamma) != len(mx.cols) {
		panic(fmt.Sprintf("emfit: SetRow with %d features, matrix has %d", len(gamma), len(mx.cols)))
	}
	for i, v := range gamma {
		mx.cols[i][j] = v
	}
}
