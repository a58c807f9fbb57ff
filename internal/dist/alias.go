package dist

import (
	"fmt"

	"github.com/gossipkit/noisyrumor/internal/rng"
)

// AliasTable draws from a fixed categorical distribution in O(1) per
// sample using the Walker/Vose alias method.
type AliasTable struct {
	prob  []float64 // acceptance threshold per column
	alias []int32   // fallback category per column
}

// NewAliasTable builds a table for the given non-negative weights
// (they need not sum to 1; they are normalized). It panics on an empty
// or all-zero weight vector, mirroring the contract of the noise
// matrices that feed it (rows are validated to sum to 1).
func NewAliasTable(weights []float64) *AliasTable {
	k := len(weights)
	if k == 0 {
		panic("dist: NewAliasTable with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("dist: NewAliasTable with negative weight %v", w))
		}
		total += w
	}
	if total <= 0 {
		panic("dist: NewAliasTable with zero total weight")
	}
	t := &AliasTable{
		prob:  make([]float64, k),
		alias: make([]int32, k),
	}
	// Scaled weights: mean 1 per column.
	scaled := make([]float64, k)
	small := make([]int32, 0, k)
	large := make([]int32, 0, k)
	for i, w := range weights {
		scaled[i] = w * float64(k) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Whatever remains is 1 up to float error.
	for _, l := range large {
		t.prob[l] = 1
		t.alias[l] = l
	}
	for _, s := range small {
		t.prob[s] = 1
		t.alias[s] = s
	}
	return t
}

// Sample draws one category.
func (t *AliasTable) Sample(r *rng.Rand) int {
	i := int(r.Uint64n(uint64(len(t.prob))))
	if r.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}
