// Package noise implements the k-valued noise matrices of the paper:
// row-stochastic matrices P where p_ij is the probability that a
// transmitted opinion i is received as opinion j (Section 2.1).
//
// The central concept is Definition 2, the (ε,δ)-majority-preserving
// property, which characterizes the noise patterns under which rumor
// spreading and plurality consensus are solvable. The package provides
// the paper's example matrices (the FHK binary matrix of Eq. (1), its
// uniform k-valued generalization, the diagonally-dominant cyclic
// counterexample of Section 4, and the near-uniform family of
// Eq. (17)), exact majority-preservation verification via the
// Section-4 linear program, and the closed-form sufficient condition
// of Eq. (18).
package noise

import (
	"fmt"
	"math"

	"github.com/gossipkit/noisyrumor/internal/dist"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// rowSumTol is the tolerance for row-stochasticity checks.
const rowSumTol = 1e-9

// Matrix is a k×k row-stochastic noise matrix. Opinions are 0-indexed
// internally (the paper writes {1,…,k}).
type Matrix struct {
	k int
	p []float64 // row-major
}

// New validates rows and builds a Matrix. Every row must have length k,
// non-negative entries, and sum to 1 within tolerance.
func New(rows [][]float64) (*Matrix, error) {
	k := len(rows)
	if k == 0 {
		return nil, fmt.Errorf("noise: empty matrix")
	}
	m := &Matrix{k: k, p: make([]float64, k*k)}
	for i, row := range rows {
		if len(row) != k {
			return nil, fmt.Errorf("noise: row %d has %d entries, want %d", i, len(row), k)
		}
		sum := 0.0
		for j, v := range row {
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("noise: entry (%d,%d) = %v is not a probability", i, j, v)
			}
			sum += v
			m.p[i*k+j] = v
		}
		if math.Abs(sum-1) > rowSumTol {
			return nil, fmt.Errorf("noise: row %d sums to %v, want 1", i, sum)
		}
	}
	return m, nil
}

// K returns the number of opinions.
func (m *Matrix) K() int { return m.k }

// At returns p_ij, the probability that opinion i is received as j.
func (m *Matrix) At(i, j int) float64 { return m.p[i*m.k+j] }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	return append([]float64(nil), m.p[i*m.k:(i+1)*m.k]...)
}

// Apply returns c·P: the expected opinion distribution of received
// messages when the sent distribution is c (Eq. (2) of the paper).
// dst is reused when it has length k.
func (m *Matrix) Apply(c []float64, dst []float64) []float64 {
	if len(c) != m.k {
		panic(fmt.Sprintf("noise: Apply with %d-vector on %d-matrix", len(c), m.k))
	}
	if len(dst) != m.k {
		dst = make([]float64, m.k)
	} else {
		for j := range dst {
			dst[j] = 0
		}
	}
	for i, ci := range c {
		if ci == 0 {
			continue
		}
		row := m.p[i*m.k : (i+1)*m.k]
		for j, pij := range row {
			dst[j] += ci * pij
		}
	}
	return dst
}

// Bias returns the δ for which c is exactly δ-biased toward opinion
// win (Definition 1): min over rivals of c[win]−c[i]. Negative values
// mean win is not the plurality.
func Bias(c []float64, win int) float64 {
	b := math.Inf(1)
	for i, v := range c {
		if i == win {
			continue
		}
		if d := c[win] - v; d < b {
			b = d
		}
	}
	if math.IsInf(b, 1) { // k == 1
		return 1
	}
	return b
}

// IsIdentity reports whether the matrix is exactly the identity
// (noiseless channel).
func (m *Matrix) IsIdentity() bool {
	for i := 0; i < m.k; i++ {
		for j := 0; j < m.k; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				return false
			}
		}
	}
	return true
}

// RowTables builds one alias table per row for O(1) perturbation of a
// pushed message. Rows that put all mass on the diagonal still get a
// table; the engine special-cases the identity matrix separately.
func (m *Matrix) RowTables() []*dist.AliasTable {
	tables := make([]*dist.AliasTable, m.k)
	for i := 0; i < m.k; i++ {
		tables[i] = dist.NewAliasTable(m.p[i*m.k : (i+1)*m.k])
	}
	return tables
}

// SplitCounts applies the channel to an aggregate sent multiset: the
// sent[i] messages of opinion i are re-colored with one k-way
// multinomial draw over row i — the exact joint law of perturbing
// every message independently — and the received totals are
// accumulated into dst. dst and scratch must have length k; dst is
// zeroed first, scratch is clobbered. This is the batch engine's
// noise step: O(k²) work regardless of the message count.
func (m *Matrix) SplitCounts(r *rng.Rand, sent []int, dst, scratch []int) {
	if len(sent) != m.k || len(dst) != m.k || len(scratch) != m.k {
		panic(fmt.Sprintf("noise: SplitCounts with lengths %d/%d/%d on a %d-matrix",
			len(sent), len(dst), len(scratch), m.k))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, h := range sent {
		if h == 0 {
			continue
		}
		// SampleMultinomial only reads the probabilities, so the row
		// can be passed without copying.
		dist.SampleMultinomial(r, h, m.p[i*m.k:(i+1)*m.k], scratch)
		for j, c := range scratch {
			dst[j] += c
		}
	}
}

// SplitCounts64 is SplitCounts over int64 multisets: the census
// engine's sent counts are population·rounds, beyond int32 (and, on
// 32-bit builds, beyond int) range long before n = 10⁹. Same exact
// law, same stream consumption pattern: one k-way multinomial draw
// per opinion row, rows in index order.
func (m *Matrix) SplitCounts64(r *rng.Rand, sent []int64, dst, scratch []int64) {
	if len(sent) != m.k || len(dst) != m.k || len(scratch) != m.k {
		panic(fmt.Sprintf("noise: SplitCounts64 with lengths %d/%d/%d on a %d-matrix",
			len(sent), len(dst), len(scratch), m.k))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, h := range sent {
		if h == 0 {
			continue
		}
		dist.SampleMultinomial64(r, h, m.p[i*m.k:(i+1)*m.k], scratch)
		for j, c := range scratch {
			dst[j] += c
		}
	}
}

// String renders the matrix with 4-decimal entries.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.k; i++ {
		for j := 0; j < m.k; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4f", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
