// The double-precision solver loops MILR's recovery ran before the
// order-preserving kernels of linalg/kernels.h, kept verbatim (renamed
// *Reference) as bit-identity oracles: the library's MatMul, Gram, LU, QR
// and least-squares results must equal these bit for bit on finite inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "support/parallel.h"
#include "support/status.h"

namespace milr::reference {

inline constexpr double kSingularRel = 1e-12;

inline Matrix MatMulReference(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("MatMul: inner dimensions " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  Matrix c(a.rows(), b.cols());
  const std::size_t n = b.cols();
  const std::size_t k_dim = a.cols();
  ParallelFor(0, a.rows(), [&](std::size_t r) {
    const double* arow = a.row(r);
    double* crow = c.row(r);
    // i-k-j loop order keeps the inner loop streaming over contiguous rows.
    for (std::size_t k = 0; k < k_dim; ++k) {
      const double aval = arow[k];
      if (aval == 0.0) continue;
      const double* brow = b.row(k);
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }, /*grain=*/8);
  return c;
}

class LuFactorizationReference {
 public:
  static Result<LuFactorizationReference> Compute(const Matrix& a);
  Matrix Solve(const Matrix& rhs) const;

 private:
  LuFactorizationReference() = default;
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

class QrFactorizationReference {
 public:
  static Result<QrFactorizationReference> Compute(const Matrix& a);
  Matrix SolveLeastSquares(const Matrix& rhs) const;

 private:
  QrFactorizationReference() = default;
  Matrix qr_;
  std::vector<double> tau_;
};

inline Result<LuFactorizationReference> LuFactorizationReference::Compute(
    const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status(StatusCode::kInvalidArgument,
                  "LU requires a square matrix, got " + a.ShapeString());
  }
  const std::size_t n = a.rows();
  LuFactorizationReference f;
  f.lu_ = a;
  f.perm_.resize(n);
  std::iota(f.perm_.begin(), f.perm_.end(), std::size_t{0});

  double max_abs = 0.0;
  for (const double v : a.flat()) max_abs = std::max(max_abs, std::abs(v));
  const double tiny = std::max(max_abs, 1.0) * kSingularRel;

  Matrix& lu = f.lu_;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude entry in column k.
    std::size_t pivot = k;
    double pivot_abs = std::abs(lu.at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu.at(r, k));
      if (v > pivot_abs) {
        pivot_abs = v;
        pivot = r;
      }
    }
    if (pivot_abs <= tiny) {
      return Status(StatusCode::kUnsolvable,
                    "LU: singular at column " + std::to_string(k));
    }
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu.at(k, c), lu.at(pivot, c));
      }
      std::swap(f.perm_[k], f.perm_[pivot]);
    }
    const double pivot_val = lu.at(k, k);
    const double* krow = lu.row(k);
    // Trailing update is the O(n³) hot loop; parallelize across rows.
    ParallelFor(k + 1, n, [&lu, krow, pivot_val, k, n](std::size_t r) {
      double* rrow = lu.row(r);
      const double factor = rrow[k] / pivot_val;
      rrow[k] = factor;
      if (factor == 0.0) return;
      for (std::size_t c = k + 1; c < n; ++c) rrow[c] -= factor * krow[c];
    }, /*grain=*/16);
  }
  return f;
}

inline Matrix LuFactorizationReference::Solve(const Matrix& rhs) const {
  const std::size_t n = lu_.rows();
  if (rhs.rows() != n) {
    throw std::invalid_argument("LU solve: rhs rows " + rhs.ShapeString() +
                                " != n=" + std::to_string(n));
  }
  const std::size_t k = rhs.cols();
  Matrix x(n, k);
  // Apply permutation.
  for (std::size_t r = 0; r < n; ++r) {
    const double* src = rhs.row(perm_[r]);
    double* dst = x.row(r);
    for (std::size_t c = 0; c < k; ++c) dst[c] = src[c];
  }
  // Forward substitution (L, unit diagonal). Columns are independent, rows
  // are not; iterate rows outer, vectorize across RHS columns.
  for (std::size_t r = 1; r < n; ++r) {
    double* xr = x.row(r);
    const double* lr = lu_.row(r);
    for (std::size_t j = 0; j < r; ++j) {
      const double l = lr[j];
      if (l == 0.0) continue;
      const double* xj = x.row(j);
      for (std::size_t c = 0; c < k; ++c) xr[c] -= l * xj[c];
    }
  }
  // Back substitution (U).
  for (std::size_t ri = n; ri-- > 0;) {
    double* xr = x.row(ri);
    const double* ur = lu_.row(ri);
    for (std::size_t j = ri + 1; j < n; ++j) {
      const double u = ur[j];
      if (u == 0.0) continue;
      const double* xj = x.row(j);
      for (std::size_t c = 0; c < k; ++c) xr[c] -= u * xj[c];
    }
    const double diag = ur[ri];
    for (std::size_t c = 0; c < k; ++c) xr[c] /= diag;
  }
  return x;
}

inline Result<QrFactorizationReference> QrFactorizationReference::Compute(
    const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m < n) {
    return Status(StatusCode::kInvalidArgument,
                  "QR requires rows >= cols, got " + a.ShapeString());
  }
  QrFactorizationReference f;
  f.qr_ = a;
  f.tau_.assign(n, 0.0);
  Matrix& qr = f.qr_;

  double max_abs = 0.0;
  for (const double v : a.flat()) max_abs = std::max(max_abs, std::abs(v));
  const double tiny = std::max(max_abs, 1.0) * kSingularRel;

  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder reflector for column k.
    double norm_sq = 0.0;
    for (std::size_t r = k; r < m; ++r) {
      const double v = qr.at(r, k);
      norm_sq += v * v;
    }
    const double norm = std::sqrt(norm_sq);
    if (norm <= tiny) {
      return Status(StatusCode::kUnsolvable,
                    "QR: rank deficient at column " + std::to_string(k));
    }
    const double alpha = qr.at(k, k) >= 0 ? -norm : norm;
    const double v0 = qr.at(k, k) - alpha;
    // Normalize so the reflector's leading element is 1 (stored implicitly).
    for (std::size_t r = k + 1; r < m; ++r) qr.at(r, k) /= v0;
    f.tau_[k] = -v0 / alpha;  // equals 2 / (vᵀv) with v0-scaling
    qr.at(k, k) = alpha;

    // Apply the reflector to the trailing columns (parallel across columns).
    const double tau = f.tau_[k];
    ParallelFor(k + 1, n, [&qr, tau, k, m](std::size_t c) {
      double dot = qr.at(k, c);
      for (std::size_t r = k + 1; r < m; ++r) {
        dot += qr.at(r, k) * qr.at(r, c);
      }
      const double scale = tau * dot;
      qr.at(k, c) -= scale;
      for (std::size_t r = k + 1; r < m; ++r) {
        qr.at(r, c) -= scale * qr.at(r, k);
      }
    }, /*grain=*/4);
  }
  return f;
}

inline Matrix QrFactorizationReference::SolveLeastSquares(
    const Matrix& rhs) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  if (rhs.rows() != m) {
    throw std::invalid_argument("QR solve: rhs rows mismatch");
  }
  const std::size_t k = rhs.cols();
  Matrix y = rhs;
  // Apply reflectors: y := Qᵀ·y, column-parallel.
  for (std::size_t j = 0; j < n; ++j) {
    const double tau = tau_[j];
    ParallelFor(0, k, [this, &y, tau, j, m](std::size_t c) {
      double dot = y.at(j, c);
      for (std::size_t r = j + 1; r < m; ++r) {
        dot += qr_.at(r, j) * y.at(r, c);
      }
      const double scale = tau * dot;
      y.at(j, c) -= scale;
      for (std::size_t r = j + 1; r < m; ++r) {
        y.at(r, c) -= scale * qr_.at(r, j);
      }
    }, /*grain=*/8);
  }
  // Back substitution on R (top n rows of y).
  Matrix x(n, k);
  for (std::size_t ri = n; ri-- > 0;) {
    double* xr = x.row(ri);
    const double* yr = y.row(ri);
    for (std::size_t c = 0; c < k; ++c) xr[c] = yr[c];
    for (std::size_t j = ri + 1; j < n; ++j) {
      const double u = qr_.at(ri, j);
      if (u == 0.0) continue;
      const double* xj = x.row(j);
      for (std::size_t c = 0; c < k; ++c) xr[c] -= u * xj[c];
    }
    const double diag = qr_.at(ri, ri);
    for (std::size_t c = 0; c < k; ++c) xr[c] /= diag;
  }
  return x;
}

inline Result<Matrix> SolveLinearReference(const Matrix& a, const Matrix& b) {
  auto lu = LuFactorizationReference::Compute(a);
  if (!lu.ok()) return lu.status();
  return lu.value().Solve(b);
}

inline Result<Matrix> SolveLeastSquaresReference(const Matrix& a,
                                                 const Matrix& b) {
  if (a.rows() >= a.cols()) {
    auto qr = QrFactorizationReference::Compute(a);
    if (!qr.ok()) return qr.status();
    return qr.value().SolveLeastSquares(b);
  }
  // Underdetermined: minimum-norm solution x = Aᵀ·(A·Aᵀ)⁻¹·b.
  const Matrix at = a.Transposed();
  auto inner = SolveLinearReference(MatMulReference(a, at), b);
  if (!inner.ok()) {
    return Status(StatusCode::kUnsolvable,
                  "least squares: underdetermined system is rank deficient (" +
                      a.ShapeString() + ")");
  }
  return MatMulReference(at, inner.value());
}

}  // namespace milr::reference
