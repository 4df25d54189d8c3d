package power

import (
	"math"
	"testing"

	"superpose/internal/logic"
	"superpose/internal/stats"
)

// randomSparse draws a random dense mask array plus its sparse (ids,
// masks) encoding: ids ascending over every gate with a nonzero word,
// occasionally including zero-mask entries (the encoding permits them;
// pricing must skip them without touching the sums).
func randomSparse(rng *stats.RNG, numGates int) (dense []logic.Word, ids []int, masks []logic.Word) {
	dense = make([]logic.Word, numGates)
	for id := range dense {
		switch rng.Uint64() % 4 {
		case 0:
			dense[id] = logic.Word(rng.Uint64())
		case 1:
			dense[id] = 1 << (rng.Uint64() % 64)
		}
		if dense[id] != 0 || rng.Uint64()%8 == 0 {
			ids = append(ids, id)
			masks = append(masks, dense[id])
		}
	}
	return dense, ids, masks
}

// TestSparsePricingBitIdentical is the floating-point contract of the
// sweep engine: sparse pricing of a toggle encoding must produce
// bit-for-bit the sums dense pricing produces, because both add the
// same energies in the same ascending-gate-ID order.
func TestSparsePricingBitIdentical(t *testing.T) {
	n := buildTiny(t)
	lib := SAED90Like()
	m := NewModel(n, lib)
	rng := stats.NewRNG(0x9a75e)
	var dst []float64
	for trial := 0; trial < 50; trial++ {
		numLanes := 1 + int(rng.Uint64()%64)
		dense, ids, masks := randomSparse(rng, n.NumGates())
		want := m.NominalLanes(dense, numLanes)
		dst = m.NominalLanesSparse(ids, masks, numLanes, dst)
		if len(dst) != numLanes {
			t.Fatalf("trial %d: %d lanes, want %d", trial, len(dst), numLanes)
		}
		for lane := range want {
			if math.Float64bits(dst[lane]) != math.Float64bits(want[lane]) {
				t.Fatalf("trial %d lane %d: sparse %v != dense %v", trial, lane, dst[lane], want[lane])
			}
		}
	}
	// nil dst allocates; an oversized dst is truncated and reused.
	out := m.NominalLanesSparse(nil, nil, 3, nil)
	if len(out) != 3 || out[0] != 0 || out[1] != 0 || out[2] != 0 {
		t.Errorf("empty encoding priced %v", out)
	}
	big := make([]float64, 64)
	for i := range big {
		big[i] = math.NaN() // must be zeroed, not accumulated into
	}
	out = m.NominalLanesSparse(nil, nil, 2, big)
	if len(out) != 2 || out[0] != 0 || out[1] != 0 {
		t.Errorf("reused dst not zeroed: %v", out)
	}
}

// TestMeasureLanesSparseNoiseParity pins the RNG-stream contract: a
// sparse measurement must draw exactly numLanes noise values in lane
// order, so sweep readings consume the chip's noise stream identically
// to dense readings of the same toggles.
func TestMeasureLanesSparseNoiseParity(t *testing.T) {
	n := buildTiny(t)
	lib := SAED90Like()
	rng := stats.NewRNG(0xd01)
	for trial := 0; trial < 20; trial++ {
		seed := rng.Uint64()
		numLanes := 1 + int(rng.Uint64()%64)
		dense, ids, masks := randomSparse(rng, n.NumGates())

		chipA := Manufacture(n, lib, ThreeSigmaIntra(0.1), seed)
		chipA.SetMeasurementNoise(0.05)
		chipB := Manufacture(n, lib, ThreeSigmaIntra(0.1), seed)
		chipB.SetMeasurementNoise(0.05)

		want := chipA.MeasureLanes(dense, numLanes)
		got := chipB.MeasureLanesSparse(ids, masks, numLanes, nil)
		for lane := range want {
			if math.Float64bits(got[lane]) != math.Float64bits(want[lane]) {
				t.Fatalf("trial %d lane %d: sparse %v != dense %v", trial, lane, got[lane], want[lane])
			}
		}
		// Both streams must now be in the same position: a further
		// identical measurement still agrees.
		w2 := chipA.MeasureLanes(dense, numLanes)
		g2 := chipB.MeasureLanesSparse(ids, masks, numLanes, nil)
		for lane := range w2 {
			if math.Float64bits(g2[lane]) != math.Float64bits(w2[lane]) {
				t.Fatalf("trial %d: noise streams diverged after one measurement", trial)
			}
		}
	}
}

// TestSumSquaresLanesMatchesPerSet pins the squared-energy lane pricing
// the pair decomposition uses for UniqueEnergySq: every lane's sum must
// equal NominalSumSquares over that lane's toggle list bit for bit.
func TestSumSquaresLanesMatchesPerSet(t *testing.T) {
	n := buildTiny(t)
	m := NewModel(n, SAED90Like())
	rng := stats.NewRNG(0x5c5c)
	var dst []float64
	for trial := 0; trial < 50; trial++ {
		numLanes := 1 + int(rng.Uint64()%64)
		dense, ids, masks := randomSparse(rng, n.NumGates())
		dst = m.SumSquaresLanesSparse(ids, masks, numLanes, dst)
		for lane := 0; lane < numLanes; lane++ {
			var set []int
			for id, w := range dense {
				if w>>uint(lane)&1 != 0 {
					set = append(set, id)
				}
			}
			if want := m.NominalSumSquares(set); math.Float64bits(dst[lane]) != math.Float64bits(want) {
				t.Fatalf("trial %d lane %d: lane sum %v != per-set sum %v", trial, lane, dst[lane], want)
			}
		}
	}
}
