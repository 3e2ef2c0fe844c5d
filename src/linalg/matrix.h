// Dense double-precision matrix for MILR's recovery mathematics.
//
// Weights and activations live as float32 tensors (src/tensor); every
// *solve* — backward passes and parameter recovery — is performed here in
// double precision to keep rounding error below half-ULP of float32 wherever
// the system is well conditioned, then rounded back. The paper calls out
// float rounding as MILR's main numerical hazard (Section V-A Limitations).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace milr {

/// Row-major dense matrix of doubles with value semantics.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  static Matrix Identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Pointer to the start of row r (row-major contiguous).
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  std::span<double> flat() { return data_; }
  std::span<const double> flat() const { return data_; }

  Matrix Transposed() const;

  std::string ShapeString() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A·B; throws on inner-dim mismatch. Each c[i][j] starts at +0 and
/// adds the rounded products a[i][k]·b[k][j] for k ascending, so the result
/// is independent of tiling and thread count (see linalg/kernels.h).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = Aᵀ·B, summed exactly as MatMul(a.Transposed(), b) but reading A in
/// place; throws unless A and B have the same row count.
Matrix TransposedMatMul(const Matrix& a, const Matrix& b);

/// G = A·Aᵀ for an m×k A: the symmetric m×m Gram matrix, each entry
/// Σ_k a[i][k]·a[j][k] summed as MatMul would. The upper triangle is
/// computed and mirrored, which is exact because the products commute.
Matrix Gram(const Matrix& a);

/// Largest absolute elementwise difference; shapes must match.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

}  // namespace milr
