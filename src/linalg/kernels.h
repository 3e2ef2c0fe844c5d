// Order-preserving double-precision kernels behind MatMul, Gram, LU and QR.
//
// Contract: every output element is computed by exactly the operations, in
// exactly the order, of the plain loops these kernels replaced (the oracle
// tests in tests/linalg_test.cc keep those loops verbatim): each product is
// rounded on its own and then added or subtracted, one index at a time in
// ascending order, into an accumulator that starts at +0 or at the stored
// value. Throughput comes only from register tiling, contiguous memory and
// vectorizing across *independent* output elements — never across a sum.
// MILR's recovered weights are therefore bit-identical whichever kernel,
// ISA or thread count computes them.
//
// Hence no FMA: a fused multiply-add skips the product's rounding and moves
// the result's last bits. The x86 clones target AVX2 without FMA, and the
// linalg and milr libraries build with -ffp-contract=off so no compiler flag
// (-march=native included) can fuse a multiply into an add.
#pragma once

#include <cstddef>

namespace milr::linalg_detail {

/// Below this many multiply-adds a kernel runs on the calling thread.
/// ParallelFor spawns fresh threads on every call (~70 µs on a 4-vCPU x86
/// VM), which is about what a million vectorized multiply-adds cost.
inline constexpr std::size_t kInlineWork = std::size_t{1} << 20;

/// Packs the kd×n matrix B, element (p, j) at b[p·rs + j·cs], into the
/// column panels GemmOrdered reads: panel j0 = 0, 8, 16, … holds columns
/// [j0, j0 + w), w = min(8, n − j0), as kd rows of w contiguous entries
/// starting at out + j0·kd. `out` holds kd·n doubles.
void PackPanels(const double* b, std::size_t rs, std::size_t cs,
                std::size_t kd, std::size_t n, double* out);

/// C = A·B for B packed by PackPanels. A is m×kd with element (i, p) at
/// a[i·rs + p·cs] (so Aᵀ of a row-major matrix is read in place); C is m×n
/// with row stride ldc and is overwritten. Each c[i][j] starts at +0 and
/// adds a(i, p)·b(p, j) for p ascending.
void GemmOrdered(const double* a, std::size_t rs, std::size_t cs,
                 const double* b_packed, double* c, std::size_t ldc,
                 std::size_t m, std::size_t n, std::size_t kd);

/// Applies LU elimination steps [s_begin, s_end) of the row-major n×n `lu`
/// to the block rows [r_begin, r_end) × columns [c_begin, n): for each step
/// s in ascending order, row[c] -= row[s]·lu[s][c], skipped when the stored
/// multiplier row[s] is zero. Rows s must already be final on those columns.
void LuApplySteps(double* lu, std::size_t n, std::size_t s_begin,
                  std::size_t s_end, std::size_t r_begin, std::size_t r_end,
                  std::size_t c_begin);

/// Applies the Householder reflector with scale `tau` and vector v (v[k] = 1
/// implicit, v[k+1..m) stored) to `count` ≤ 4 contiguous columns of length
/// m: dot = col[k] + Σ_{r>k} v[r]·col[r] (r ascending), then col[k] -= τ·dot
/// and col[r] -= (τ·dot)·v[r].
void ApplyReflector(const double* v, double tau, std::size_t k,
                    std::size_t m, double* const* cols, std::size_t count);

}  // namespace milr::linalg_detail
