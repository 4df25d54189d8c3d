package power

import (
	"math"
	"testing"

	"superpose/internal/logic"
	"superpose/internal/stats"
)

// TestVectorPricingBitIdentity hammers the vectorized sparse kernel
// against the scalar reference over random encodings: dense and sparse
// masks, all-lanes entries, zero entries, every partial-lane count and
// the ragged 1-entry edge. Every lane must match by IEEE-754 bit
// pattern. On machines without AVX-512F priceSparse IS the
// scalar loop, so the test degenerates to a tautology rather than
// skipping — keeping the call sites covered everywhere.
func TestVectorPricingBitIdentity(t *testing.T) {
	rng := stats.NewRNG(97)

	energy := make([]float64, 3000)
	for i := range energy {
		energy[i] = 0.4 + 4.5*rng.Float64()
	}

	shapes := []struct {
		entries  int
		numLanes int
		allFrac  float64 // fraction of entries with an all-lanes mask
		zeroFrac float64 // fraction with a zero mask
	}{
		{0, 64, 0, 0},
		{1, 1, 0, 0},
		{1, 64, 1, 0},
		{7, 3, 0.5, 0.2},
		{100, 64, 0.8, 0.05},
		{100, 63, 0.8, 0.05},
		{100, 1, 0.3, 0.3},
		{5500, 64, 0.9, 0.01},
		{5500, 17, 0.9, 0.01},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 4; trial++ {
			ids := make([]int, sh.entries)
			masks := make([]logic.Word, sh.entries)
			id := 0
			for k := range ids {
				id += 1 + rng.Intn(3)
				ids[k] = id % len(energy)
				switch r := rng.Float64(); {
				case r < sh.zeroFrac:
					masks[k] = 0
				case r < sh.zeroFrac+sh.allFrac:
					masks[k] = ^logic.Word(0)
				default:
					masks[k] = logic.Word(rng.Uint64())
				}
			}
			want := priceLanesSparse(energy, ids, masks, sh.numLanes, nil)
			got := priceSparse(energy, ids, masks, sh.numLanes, nil)
			if len(got) != len(want) {
				t.Fatalf("%+v trial %d: %d lanes, want %d", sh, trial, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%+v trial %d lane %d: vec %x, scalar %x",
						sh, trial, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			// Reuse path: a dirty oversized dst must be re-zeroed.
			dirty := make([]float64, 64)
			for i := range dirty {
				dirty[i] = math.Inf(1)
			}
			got2 := priceSparse(energy, ids, masks, sh.numLanes, dirty)
			for i := range want {
				if math.Float64bits(got2[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%+v trial %d lane %d (dst reuse): vec %x, scalar %x",
						sh, trial, i, math.Float64bits(got2[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// scalarMeasureLanesSparse is the scalar reference of
// Chip.MeasureLanesSparse: the scalar pricing loop, then exactly
// numLanes noise draws in lane order.
func scalarMeasureLanesSparse(c *Chip, ids []int, masks []logic.Word, numLanes int) []float64 {
	out := priceLanesSparse(c.effective, ids, masks, numLanes, nil)
	if c.noiseSigma > 0 {
		for i := range out {
			out[i] += out[i] * c.noiseSigma * c.noiseRNG.Norm()
		}
	}
	return out
}

// TestMeasureLanesSparseVecNoiseStream pins the noise-stream contract:
// MeasureLanesSparse, which prices through the vectorized kernel, must
// match the scalar reference on a twin chip and consume exactly numLanes
// draws in lane order, leaving the chip's RNG where the scalar path
// leaves it — checked by measuring the twins repeatedly.
func TestMeasureLanesSparseVecNoiseStream(t *testing.T) {
	lib := SAED90Like()
	n := buildTiny(t)
	rng := stats.NewRNG(11)

	mkChip := func() *Chip {
		c := Manufacture(n, lib, ThreeSigmaIntra(0.12), 77)
		c.SetMeasurementNoise(0.02)
		return c
	}
	scalar, vec := mkChip(), mkChip()

	var ids []int
	var masks []logic.Word
	for id := 0; id < n.NumGates(); id += 2 {
		ids = append(ids, id)
		masks = append(masks, logic.Word(rng.Uint64()))
	}
	for round := 0; round < 3; round++ {
		lanes := []int{64, 5, 64}[round]
		want := scalarMeasureLanesSparse(scalar, ids, masks, lanes)
		got := vec.MeasureLanesSparse(ids, masks, lanes, nil)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d lane %d: vec %x, scalar %x",
					round, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}
