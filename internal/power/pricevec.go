package power

// Vectorized sparse pricing: the kernel behind NominalLanesSparse and
// MeasureLanesSparse, which price every reading. On amd64 with AVX-512F the
// (ids, masks) encoding is priced by priceSparseZMM, which keeps all 64
// lane accumulators in eight ZMM registers and applies each entry's
// energy with a per-lane write mask. Every lane is an independent
// accumulator folding the same ascending-gate-ID addition sequence as
// the scalar loop, so the result is bit-identical to priceLanesSparse —
// the IEEE-754 contract the sweep equivalence suites pin. Everywhere
// else (or when the CPU lacks AVX-512F) priceSparse falls
// through to the scalar loop.
