package power

import "superpose/internal/logic"

// haveVectorPricing is set once at init when the CPU and OS support the
// AVX-512F kernel (CPUID feature bit plus XCR0 opmask/ZMM state enabled).
var haveVectorPricing = detectAVX512F()

func detectAVX512F() bool {
	maxLeaf, _, _, _ := cpuidLeaf(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidLeaf(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	// XCR0 must enable x87/SSE/AVX state plus the AVX-512 opmask and
	// ZMM register state, or the kernel would fault on ZMM use.
	xcr0, _ := xgetbv0()
	const avx512State = 0xE6
	if xcr0&avx512State != avx512State {
		return false
	}
	_, ebx7, _, _ := cpuidLeaf(7, 0)
	const avx512f = 1 << 16
	return ebx7&avx512f != 0
}

// priceSparse prices the sparse encoding through the ZMM kernel,
// falling back to the scalar loop when AVX-512F is unavailable. The
// kernel always accumulates all 64 lanes (masked off by laneMask beyond
// numLanes, so the dead lanes stay zero) into a stack frame; only the
// first numLanes are copied out.
func priceSparse(energy []float64, ids []int, masks []logic.Word, numLanes int, dst []float64) []float64 {
	if !haveVectorPricing || len(ids) == 0 {
		return priceLanesSparse(energy, ids, masks, numLanes, dst)
	}
	if cap(dst) < numLanes {
		dst = make([]float64, numLanes)
	}
	dst = dst[:numLanes]
	var laneMask uint64 = ^uint64(0)
	if numLanes < 64 {
		laneMask = 1<<uint(numLanes) - 1
	}
	var acc [64]float64
	priceSparseZMM(&energy[0], &ids[0], &masks[0], len(ids), laneMask, &acc[0])
	copy(dst, acc[:numLanes])
	return dst
}

// priceSparseZMM accumulates, for each of the 64 lanes, the sum of
// energy[ids[k]] over every k whose masks[k] has that lane's bit set
// (after ANDing laneMask), in ascending k order per lane, and stores the
// 64 lane sums at out. Implemented in pricevec_amd64.s; requires
// AVX-512F.
//
//go:noescape
func priceSparseZMM(energy *float64, ids *int, masks *logic.Word, n int, laneMask uint64, out *float64)

// cpuidLeaf executes CPUID with the given EAX/ECX inputs.
//
//go:noescape
func cpuidLeaf(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0 (requires OSXSAVE, checked by the caller).
//
//go:noescape
func xgetbv0() (eax, edx uint32)
