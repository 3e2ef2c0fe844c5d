#include "linalg/solve.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "linalg/kernels.h"
#include "support/parallel.h"

namespace milr {
namespace {

// Relative threshold under which a pivot / diagonal entry is treated as zero.
constexpr double kSingularRel = 1e-12;

}  // namespace

Result<LuFactorization> LuFactorization::Compute(Matrix a) {
  if (a.rows() != a.cols()) {
    return Status(StatusCode::kInvalidArgument,
                  "LU requires a square matrix, got " + a.ShapeString());
  }
  const std::size_t n = a.rows();
  double max_abs = 0.0;
  for (const double v : a.flat()) max_abs = std::max(max_abs, std::abs(v));
  const double tiny = std::max(max_abs, 1.0) * kSingularRel;

  LuFactorization f;
  f.lu_ = std::move(a);
  f.perm_.resize(n);
  std::iota(f.perm_.begin(), f.perm_.end(), std::size_t{0});

  // Blocked right-looking elimination that keeps the unblocked algorithm's
  // arithmetic: every entry still receives its updates one step at a time,
  // in step order, each a rounded product then a rounded subtraction. Only
  // the columns right of the panel wait, and a row swap carries their
  // pending updates along with the row's multipliers.
  Matrix& lu = f.lu_;
  constexpr std::size_t kPanel = 16;
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    const std::size_t k1 = std::min(n, k0 + kPanel);
    for (std::size_t k = k0; k < k1; ++k) {
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
      // Multipliers, and step k on the panel's own columns.
      const double pivot_val = lu.at(k, k);
      const double* krow = lu.row(k);
      for (std::size_t r = k + 1; r < n; ++r) {
        double* rrow = lu.row(r);
        const double factor = rrow[k] / pivot_val;
        rrow[k] = factor;
        if (factor == 0.0) continue;
        for (std::size_t c = k + 1; c < k1; ++c) rrow[c] -= factor * krow[c];
      }
    }
    if (k1 == n) break;
    // U's rows right of the panel: row k takes steps k0..k-1.
    for (std::size_t k = k0 + 1; k < k1; ++k) {
      linalg_detail::LuApplySteps(lu.row(0), n, k0, k, k, k + 1, k1);
    }
    // Trailing block: every row below the panel takes steps k0..k1-1,
    // parallel across row chunks only when that pays for the spawns.
    const std::size_t rows = n - k1;
    if (rows * rows * (k1 - k0) < linalg_detail::kInlineWork) {
      linalg_detail::LuApplySteps(lu.row(0), n, k0, k1, k1, n, k1);
    } else {
      constexpr std::size_t kRowChunk = 32;
      ParallelFor(0, (rows + kRowChunk - 1) / kRowChunk,
                  [&lu, k0, k1, n](std::size_t chunk) {
        const std::size_t r0 = k1 + chunk * kRowChunk;
        linalg_detail::LuApplySteps(lu.row(0), n, k0, k1, r0,
                                    std::min(n, r0 + kRowChunk), k1);
      });
    }
  }
  return f;
}

Matrix LuFactorization::Solve(const Matrix& rhs) const {
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

Result<QrFactorization> QrFactorization::Compute(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m < n) {
    return Status(StatusCode::kInvalidArgument,
                  "QR requires rows >= cols, got " + a.ShapeString());
  }
  QrFactorization f;
  f.qrt_ = a.Transposed();
  f.tau_.assign(n, 0.0);
  Matrix& qrt = f.qrt_;

  double max_abs = 0.0;
  for (const double v : a.flat()) max_abs = std::max(max_abs, std::abs(v));
  const double tiny = std::max(max_abs, 1.0) * kSingularRel;

  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder reflector for column k (row k of qrt).
    double* vk = qrt.row(k);
    double norm_sq = 0.0;
    for (std::size_t r = k; r < m; ++r) norm_sq += vk[r] * vk[r];
    const double norm = std::sqrt(norm_sq);
    if (norm <= tiny) {
      return Status(StatusCode::kUnsolvable,
                    "QR: rank deficient at column " + std::to_string(k));
    }
    const double alpha = vk[k] >= 0 ? -norm : norm;
    const double v0 = vk[k] - alpha;
    // Normalize so the reflector's leading element is 1 (stored implicitly).
    for (std::size_t r = k + 1; r < m; ++r) vk[r] /= v0;
    f.tau_[k] = -v0 / alpha;  // equals 2 / (vᵀv) with v0-scaling
    vk[k] = alpha;

    // Apply the reflector to the trailing columns, four per task.
    const double tau = f.tau_[k];
    const std::size_t trailing = n - k - 1;
    const std::size_t groups = (trailing + 3) / 4;
    auto apply = [&qrt, vk, tau, k, m, n](std::size_t g) {
      const std::size_t c0 = k + 1 + 4 * g;
      const std::size_t count = std::min<std::size_t>(4, n - c0);
      double* cols[4];
      for (std::size_t i = 0; i < count; ++i) cols[i] = qrt.row(c0 + i);
      linalg_detail::ApplyReflector(vk, tau, k, m, cols, count);
    };
    if (trailing * (m - k) < linalg_detail::kInlineWork) {
      for (std::size_t g = 0; g < groups; ++g) apply(g);
    } else {
      ParallelFor(0, groups, apply);
    }
  }
  return f;
}

Matrix QrFactorization::SolveLeastSquares(const Matrix& rhs) const {
  const std::size_t m = rows();
  const std::size_t n = cols();
  if (rhs.rows() != m) {
    throw std::invalid_argument("QR solve: rhs rows mismatch");
  }
  const std::size_t k = rhs.cols();
  // Apply reflectors, y := Qᵀ·y, on transposed right-hand sides so each one
  // is contiguous; up to four per task.
  Matrix yt = rhs.Transposed();
  const std::size_t groups = (k + 3) / 4;
  auto apply = [this, &yt, k, m, n](std::size_t g) {
    const std::size_t c0 = 4 * g;
    const std::size_t count = std::min<std::size_t>(4, k - c0);
    double* cols[4];
    for (std::size_t i = 0; i < count; ++i) cols[i] = yt.row(c0 + i);
    for (std::size_t j = 0; j < n; ++j) {
      linalg_detail::ApplyReflector(qrt_.row(j), tau_[j], j, m, cols, count);
    }
  };
  if (k * n * m < linalg_detail::kInlineWork) {
    for (std::size_t g = 0; g < groups; ++g) apply(g);
  } else {
    ParallelFor(0, groups, apply);
  }
  // Back substitution on R (top n entries of each y); R(i, j) = qrt(j, i).
  Matrix x(n, k);
  for (std::size_t ri = n; ri-- > 0;) {
    double* xr = x.row(ri);
    for (std::size_t c = 0; c < k; ++c) xr[c] = yt.at(c, ri);
    for (std::size_t j = ri + 1; j < n; ++j) {
      const double u = qrt_.at(j, ri);
      if (u == 0.0) continue;
      const double* xj = x.row(j);
      for (std::size_t c = 0; c < k; ++c) xr[c] -= u * xj[c];
    }
    const double diag = qrt_.at(ri, ri);
    for (std::size_t c = 0; c < k; ++c) xr[c] /= diag;
  }
  return x;
}

Result<Matrix> SolveLinear(const Matrix& a, const Matrix& b) {
  auto lu = LuFactorization::Compute(a);
  if (!lu.ok()) return lu.status();
  return lu.value().Solve(b);
}

Result<Matrix> SolveLinearRight(const Matrix& a, const Matrix& b) {
  // X·A = B  ⇔  Aᵀ·Xᵀ = Bᵀ.
  auto xt = SolveLinear(a.Transposed(), b.Transposed());
  if (!xt.ok()) return xt.status();
  return xt.value().Transposed();
}

Result<Matrix> SolveLeastSquares(const Matrix& a, const Matrix& b) {
  if (a.rows() >= a.cols()) {
    auto qr = QrFactorization::Compute(a);
    if (!qr.ok()) return qr.status();
    return qr.value().SolveLeastSquares(b);
  }
  // Underdetermined: minimum-norm solution x = Aᵀ·(A·Aᵀ)⁻¹·b through the
  // Gram matrix (see solve.h for the conditioning cost).
  auto lu = LuFactorization::Compute(Gram(a));
  if (!lu.ok()) {
    return Status(StatusCode::kUnsolvable,
                  "least squares: underdetermined system is rank deficient (" +
                      a.ShapeString() + ")");
  }
  return TransposedMatMul(a, lu.value().Solve(b));
}

Result<Matrix> Invert(const Matrix& a) {
  auto lu = LuFactorization::Compute(a);
  if (!lu.ok()) return lu.status();
  return lu.value().Solve(Matrix::Identity(a.rows()));
}

}  // namespace milr
