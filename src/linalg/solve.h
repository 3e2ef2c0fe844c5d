// Linear system solvers backing MILR's backward passes and parameter
// recovery functions (Equations 2 and 3 of the paper).
//
// Three regimes appear in MILR:
//  * square well-posed systems  — dense-layer backward/solving with exactly
//    as many PRNG equations as unknowns → LU with partial pivoting;
//  * overdetermined systems     — conv-layer filter solving where G² > F²Z
//    equations cover F²Z unknowns → Householder-QR least squares;
//  * underdetermined systems    — whole-layer corruption of a
//    partially-recoverable conv (more unknowns than equations) → minimum-norm
//    least-squares attempt, mirroring the paper's "least-square solution"
//    fallback for Tables IV/VI/VIII.
//
// Factorizations are exposed as objects so one factorization can solve many
// right-hand sides (every conv filter shares the same patch matrix).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "support/status.h"

namespace milr {

/// LU factorization with partial pivoting of a square matrix.
class LuFactorization {
 public:
  /// Factors `a` (taken by value: pass an rvalue to factor in place);
  /// kUnsolvable if `a` is (numerically) singular.
  static Result<LuFactorization> Compute(Matrix a);

  /// Solves A·X = B for X; B must have rows() == n.
  Matrix Solve(const Matrix& rhs) const;

  std::size_t n() const { return lu_.rows(); }

 private:
  LuFactorization() = default;
  Matrix lu_;                      // packed L (unit diag) and U
  std::vector<std::size_t> perm_;  // row permutation
};

/// Householder QR of an m×n matrix with m ≥ n (economy form).
class QrFactorization {
 public:
  /// Factors `a` (m ≥ n required); kUnsolvable if rank-deficient.
  static Result<QrFactorization> Compute(const Matrix& a);

  /// Least-squares solution X (n×k) minimizing ‖A·X − B‖ for B (m×k).
  Matrix SolveLeastSquares(const Matrix& rhs) const;

  /// Shape of the factored A (m×n). The storage is transposed (n×m, one
  /// contiguous row per column of A), so these are qrt_'s cols and rows.
  std::size_t rows() const { return qrt_.cols(); }
  std::size_t cols() const { return qrt_.rows(); }

 private:
  QrFactorization() = default;
  // Row c holds column c of the packed factor: R(0..c, c) in entries 0..c,
  // reflector c's tail below the diagonal in entries c+1..m-1.
  Matrix qrt_;
  std::vector<double> tau_;  // reflector scales
};

/// Solves square A·X = B. kUnsolvable on singular A.
Result<Matrix> SolveLinear(const Matrix& a, const Matrix& b);

/// Solves X·A = B (right division) via the transposed system.
Result<Matrix> SolveLinearRight(const Matrix& a, const Matrix& b);

/// Least squares for any shape of A:
///  m ≥ n → Householder-QR minimizer;
///  m < n → minimum-norm solution x = Aᵀ·(A·Aᵀ)⁻¹·b of the underdetermined
///  system. It forms the Gram matrix A·Aᵀ and LU-solves it, which squares
///  A's condition number (QR of Aᵀ would not) — the price of MILR's
///  per-filter whole-layer fallback being cheap.
/// kUnsolvable on rank deficiency.
Result<Matrix> SolveLeastSquares(const Matrix& a, const Matrix& b);

/// Matrix inverse via LU. kUnsolvable on singular input.
Result<Matrix> Invert(const Matrix& a);

}  // namespace milr
