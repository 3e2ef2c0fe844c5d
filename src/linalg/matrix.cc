#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/kernels.h"
#include "support/parallel.h"

namespace milr {

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows * cols) {
    throw std::invalid_argument("Matrix: data size does not match " +
                                ShapeString());
  }
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  // Square blocks keep the strided writes inside a few pages at a time.
  constexpr std::size_t kBlock = 16;
  for (std::size_t r0 = 0; r0 < rows_; r0 += kBlock) {
    const std::size_t r1 = std::min(rows_, r0 + kBlock);
    for (std::size_t c0 = 0; c0 < cols_; c0 += kBlock) {
      const std::size_t c1 = std::min(cols_, c0 + kBlock);
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = c0; c < c1; ++c) t.at(c, r) = at(r, c);
      }
    }
  }
  return t;
}

std::string Matrix::ShapeString() const {
  return std::to_string(rows_) + "x" + std::to_string(cols_);
}

namespace {

// C (m×n) = A·B for A's element (i, p) at a[i·rs + p·cs]: packs B once, then
// splits the rows into blocks that each sweep every packed panel.
Matrix MultiplyOrdered(const double* a, std::size_t rs, std::size_t cs,
                       std::size_t m, const Matrix& b) {
  const std::size_t n = b.cols();
  const std::size_t k_dim = b.rows();
  Matrix c(m, n);
  if (m == 0 || n == 0 || k_dim == 0) return c;
  std::vector<double> packed(k_dim * n);
  linalg_detail::PackPanels(b.row(0), n, 1, k_dim, n, packed.data());
  constexpr std::size_t kRowBlock = 32;
  auto block = [&](std::size_t blk) {
    const std::size_t r0 = blk * kRowBlock;
    linalg_detail::GemmOrdered(a + r0 * rs, rs, cs, packed.data(), c.row(r0),
                               n, std::min(kRowBlock, m - r0), n, k_dim);
  };
  const std::size_t blocks = (m + kRowBlock - 1) / kRowBlock;
  if (m * n * k_dim < linalg_detail::kInlineWork) {
    for (std::size_t blk = 0; blk < blocks; ++blk) block(blk);
  } else {
    ParallelFor(0, blocks, block);
  }
  return c;
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("MatMul: inner dimensions " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  return MultiplyOrdered(a.row(0), a.cols(), 1, a.rows(), b);
}

Matrix TransposedMatMul(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("TransposedMatMul: row counts " +
                                a.ShapeString() + " vs " + b.ShapeString());
  }
  return MultiplyOrdered(a.row(0), 1, a.cols(), a.cols(), b);
}

Matrix Gram(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t k_dim = a.cols();
  Matrix g(m, m);
  if (m == 0) return g;
  // Panel j0 packs rows [j0, j0 + 8) of A as columns of Aᵀ and computes
  // every row tile that reaches them from above the diagonal.
  constexpr std::size_t kPanel = 8;
  auto panel = [&](std::size_t p) {
    const std::size_t j0 = p * kPanel;
    const std::size_t width = std::min(kPanel, m - j0);
    std::vector<double> packed(k_dim * width);
    linalg_detail::PackPanels(a.row(j0), 1, k_dim, k_dim, width,
                              packed.data());
    linalg_detail::GemmOrdered(a.row(0), k_dim, 1, packed.data(),
                               g.row(0) + j0, m, j0 + width, width, k_dim);
  };
  const std::size_t panels = (m + kPanel - 1) / kPanel;
  if (m * m * k_dim / 2 < linalg_detail::kInlineWork) {
    for (std::size_t p = 0; p < panels; ++p) panel(p);
  } else {
    ParallelFor(0, panels, panel);
  }
  // Mirror: a[i][k]·a[j][k] == a[j][k]·a[i][k] bitwise, so the upper
  // triangle already holds every lower entry's exact value.
  for (std::size_t i = 1; i < m; ++i) {
    for (std::size_t j = 0; j < i; ++j) g.at(i, j) = g.at(j, i);
  }
  return g;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("MaxAbsDiff: shape mismatch " +
                                a.ShapeString() + " vs " + b.ShapeString());
  }
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a.flat()[i] - b.flat()[i]));
  }
  return max_diff;
}

}  // namespace milr
