//go:build !amd64

package power

import "superpose/internal/logic"

// No vectorized pricing kernel on this architecture; sparse pricing is
// the scalar loop.
func priceSparse(energy []float64, ids []int, masks []logic.Word, numLanes int, dst []float64) []float64 {
	return priceLanesSparse(energy, ids, masks, numLanes, dst)
}
