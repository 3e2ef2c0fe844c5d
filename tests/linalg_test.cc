#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "linalg_reference.h"
#include "support/prng.h"

namespace milr {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Prng prng(seed);
  Matrix m(rows, cols);
  for (auto& v : m.flat()) v = prng.NextDouble() * 2.0 - 1.0;
  return m;
}

TEST(MatrixTest, IdentityAndMultiply) {
  const Matrix identity = Matrix::Identity(4);
  const Matrix a = RandomMatrix(4, 4, 1);
  EXPECT_LT(MaxAbsDiff(MatMul(a, identity), a), 1e-15);
  EXPECT_LT(MaxAbsDiff(MatMul(identity, a), a), 1e-15);
}

TEST(MatrixTest, MultiplyShapeMismatchThrows) {
  EXPECT_THROW(MatMul(Matrix(2, 3), Matrix(2, 3)), std::invalid_argument);
}

TEST(MatrixTest, TransposeInvolution) {
  const Matrix a = RandomMatrix(3, 5, 2);
  EXPECT_LT(MaxAbsDiff(a.Transposed().Transposed(), a), 1e-16);
}

TEST(MatrixTest, KnownProduct) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {5, 6, 7, 8});
  const Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50);
}

class SolveSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SolveSizes, LuSolveRecoversX) {
  const std::size_t n = GetParam();
  const Matrix a = RandomMatrix(n, n, n);
  const Matrix x = RandomMatrix(n, 3, n + 1);
  const Matrix b = MatMul(a, x);
  auto solved = SolveLinear(a, b);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_LT(MaxAbsDiff(solved.value(), x), 1e-8);
}

TEST_P(SolveSizes, InvertTimesSelfIsIdentity) {
  const std::size_t n = GetParam();
  const Matrix a = RandomMatrix(n, n, 100 + n);
  auto inv = Invert(a);
  ASSERT_TRUE(inv.ok());
  EXPECT_LT(MaxAbsDiff(MatMul(a, inv.value()), Matrix::Identity(n)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64, 128));

TEST(SolveTest, SingularMatrixReported) {
  Matrix a(2, 2, {1, 2, 2, 4});  // rank 1
  auto solved = SolveLinear(a, Matrix::Identity(2));
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kUnsolvable);
}

TEST(SolveTest, NonSquareLuRejected) {
  auto solved = SolveLinear(Matrix(2, 3), Matrix(2, 1));
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolveTest, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2, {0, 1, 1, 0});
  Matrix b(2, 1, {3, 4});
  auto solved = SolveLinear(a, b);
  ASSERT_TRUE(solved.ok());
  EXPECT_DOUBLE_EQ(solved.value().at(0, 0), 4);
  EXPECT_DOUBLE_EQ(solved.value().at(1, 0), 3);
}

TEST(SolveTest, RightSolve) {
  const Matrix a = RandomMatrix(4, 4, 9);
  const Matrix x = RandomMatrix(2, 4, 10);
  const Matrix b = MatMul(x, a);
  auto solved = SolveLinearRight(a, b);
  ASSERT_TRUE(solved.ok());
  EXPECT_LT(MaxAbsDiff(solved.value(), x), 1e-9);
}

TEST(LeastSquaresTest, OverdeterminedExactSystem) {
  // A(20,5)·x = b with consistent b: LS solution equals the exact one.
  const Matrix a = RandomMatrix(20, 5, 21);
  const Matrix x = RandomMatrix(5, 2, 22);
  const Matrix b = MatMul(a, x);
  auto solved = SolveLeastSquares(a, b);
  ASSERT_TRUE(solved.ok());
  EXPECT_LT(MaxAbsDiff(solved.value(), x), 1e-9);
}

TEST(LeastSquaresTest, MinimizesResidual) {
  // Inconsistent system: solution must satisfy the normal equations
  // Aᵀ(Ax − b) = 0.
  const Matrix a = RandomMatrix(10, 3, 31);
  const Matrix b = RandomMatrix(10, 1, 32);
  auto solved = SolveLeastSquares(a, b);
  ASSERT_TRUE(solved.ok());
  Matrix residual = MatMul(a, solved.value());
  for (std::size_t i = 0; i < residual.rows(); ++i) {
    residual.at(i, 0) -= b.at(i, 0);
  }
  const Matrix gradient = MatMul(a.Transposed(), residual);
  for (std::size_t i = 0; i < gradient.rows(); ++i) {
    EXPECT_NEAR(gradient.at(i, 0), 0.0, 1e-9);
  }
}

TEST(LeastSquaresTest, UnderdeterminedMinNorm) {
  // A(3,8): solution must satisfy A·x = b and lie in the row space.
  const Matrix a = RandomMatrix(3, 8, 41);
  const Matrix b = RandomMatrix(3, 1, 42);
  auto solved = SolveLeastSquares(a, b);
  ASSERT_TRUE(solved.ok());
  EXPECT_LT(MaxAbsDiff(MatMul(a, solved.value()), b), 1e-9);
}

TEST(LeastSquaresTest, RankDeficientReported) {
  Matrix a(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    a.at(r, 0) = 1.0;
    a.at(r, 1) = 2.0;  // column 2 = 2 × column 1
  }
  auto solved = SolveLeastSquares(a, Matrix(4, 1));
  EXPECT_FALSE(solved.ok());
}

TEST(QrFactorizationTest, ReusableAcrossRhs) {
  const Matrix a = RandomMatrix(12, 4, 51);
  auto qr = QrFactorization::Compute(a);
  ASSERT_TRUE(qr.ok());
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Matrix x = RandomMatrix(4, 1, 60 + seed);
    const Matrix b = MatMul(a, x);
    EXPECT_LT(MaxAbsDiff(qr.value().SolveLeastSquares(b), x), 1e-9);
  }
}

TEST(LuFactorizationTest, ReusableAcrossRhs) {
  const Matrix a = RandomMatrix(6, 6, 71);
  auto lu = LuFactorization::Compute(a);
  ASSERT_TRUE(lu.ok());
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Matrix x = RandomMatrix(6, 2, 80 + seed);
    const Matrix b = MatMul(a, x);
    EXPECT_LT(MaxAbsDiff(lu.value().Solve(b), x), 1e-8);
  }
}


// ------------------------------------------------- bit-identity oracles
//
// The library kernels must reproduce the reference loops (linalg_reference.h)
// bit for bit: MILR's recovered weights depend on every last bit.

/// Uniform entries in [-1, 1), about a quarter of them exact ±0 — conv
/// patch matrices are full of zeros and the reference loops skip zero
/// factors.
Matrix SparseRandomMatrix(std::size_t rows, std::size_t cols,
                          std::uint64_t seed) {
  Prng prng(seed);
  Matrix m(rows, cols);
  for (auto& v : m.flat()) {
    const double u = prng.NextDouble();
    if (u < 0.125) {
      v = 0.0;
    } else if (u < 0.25) {
      v = -0.0;
    } else {
      v = prng.NextDouble() * 2.0 - 1.0;
    }
  }
  return m;
}

::testing::AssertionResult SameBits(const Matrix& actual,
                                    const Matrix& expected) {
  if (actual.rows() != expected.rows() || actual.cols() != expected.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << actual.ShapeString() << " vs "
           << expected.ShapeString();
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::memcmp(&actual.flat()[i], &expected.flat()[i], sizeof(double))) {
      return ::testing::AssertionFailure()
             << "entry " << i << " of " << actual.ShapeString() << ": "
             << actual.flat()[i] << " vs " << expected.flat()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Edge sizes and the tile remainders of the 4×8 GEMM tile, 4-row LU tile
// and 16-wide LU panel.
const std::vector<std::size_t> kEdgeSizes = {1, 2, 3, 4, 5, 7, 8, 9, 13, 17};

TEST(OracleTest, MatMulMatchesReference) {
  for (const std::size_t m : kEdgeSizes) {
    for (const std::size_t k : {1, 2, 3, 5, 8, 33}) {
      for (const std::size_t n : kEdgeSizes) {
        const Matrix a = SparseRandomMatrix(m, k, m * 1000 + k);
        const Matrix b = SparseRandomMatrix(k, n, n * 1000 + k + 1);
        EXPECT_TRUE(SameBits(MatMul(a, b), reference::MatMulReference(a, b)))
            << m << "x" << k << "x" << n;
      }
    }
  }
  // Large enough to run in parallel row blocks.
  const Matrix a = SparseRandomMatrix(130, 97, 1);
  const Matrix b = SparseRandomMatrix(97, 101, 2);
  EXPECT_TRUE(SameBits(MatMul(a, b), reference::MatMulReference(a, b)));
}

TEST(OracleTest, GramAndTransposedMatMulMatchReference) {
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (const std::size_t m : kEdgeSizes) {
    for (const std::size_t k : {1, 2, 5, 9, 40}) shapes.emplace_back(m, k);
  }
  // The A·Aᵀ of the CNN's underdetermined per-filter conv solves.
  for (const auto& shape : {std::pair<std::size_t, std::size_t>{256, 288},
                           {256, 576}, {64, 576}, {64, 1152}}) {
    shapes.push_back(shape);
  }
  for (const auto& [m, k] : shapes) {
    const Matrix a = SparseRandomMatrix(m, k, m * 7 + k);
    const Matrix at = a.Transposed();
    EXPECT_TRUE(SameBits(Gram(a), reference::MatMulReference(a, at)))
        << m << "x" << k;
    const Matrix y = SparseRandomMatrix(m, 3, m + k);
    EXPECT_TRUE(
        SameBits(TransposedMatMul(a, y), reference::MatMulReference(at, y)))
        << m << "x" << k;
  }
}

TEST(OracleTest, LuMatchesReference) {
  std::vector<std::size_t> sizes = kEdgeSizes;
  for (const std::size_t n : {15, 16, 31, 32, 33, 64, 100, 256}) {
    sizes.push_back(n);
  }
  for (const std::size_t n : sizes) {
    const Matrix a = SparseRandomMatrix(n, n, 500 + n);
    auto lu = LuFactorization::Compute(a);
    auto expected = reference::LuFactorizationReference::Compute(a);
    ASSERT_EQ(lu.ok(), expected.ok()) << n;
    if (!lu.ok()) continue;
    for (const std::size_t k : {1, 3, 8}) {
      const Matrix rhs = SparseRandomMatrix(n, k, 600 + n + k);
      EXPECT_TRUE(SameBits(lu.value().Solve(rhs), expected.value().Solve(rhs)))
          << n << " rhs " << k;
    }
  }
  // The Gram system an underdetermined conv solve factors.
  const Matrix g = Gram(SparseRandomMatrix(256, 288, 7));
  const Matrix rhs = SparseRandomMatrix(256, 1, 8);
  EXPECT_TRUE(SameBits(SolveLinear(g, rhs).value(),
                       reference::SolveLinearReference(g, rhs).value()));
}

TEST(OracleTest, QrMatchesReference) {
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> cases;
  for (const std::size_t m : kEdgeSizes) {
    for (const std::size_t n : {1, 2, 3, 5, 8}) {
      if (n <= m) cases.emplace_back(m, n, 2);
    }
  }
  // Whole-layer conv solves of the CNN: L0 (and L0 with its bias, 28), L3
  // (and 289) with one right-hand side per filter.
  cases.emplace_back(1024, 27, 32);
  cases.emplace_back(1024, 28, 32);
  cases.emplace_back(1024, 288, 32);
  cases.emplace_back(1024, 289, 3);
  for (const auto& [m, n, k] : cases) {
    const Matrix a = SparseRandomMatrix(m, n, 900 + m + n);
    auto qr = QrFactorization::Compute(a);
    auto expected = reference::QrFactorizationReference::Compute(a);
    ASSERT_EQ(qr.ok(), expected.ok()) << m << "x" << n;
    if (!qr.ok()) continue;
    EXPECT_EQ(qr.value().rows(), m);
    EXPECT_EQ(qr.value().cols(), n);
    for (const std::size_t rhs_cols : {std::size_t{1}, k}) {
      const Matrix rhs = SparseRandomMatrix(m, rhs_cols, m + n + rhs_cols);
      EXPECT_TRUE(SameBits(qr.value().SolveLeastSquares(rhs),
                           expected.value().SolveLeastSquares(rhs)))
          << m << "x" << n << " rhs " << rhs_cols;
    }
  }
}

TEST(OracleTest, LeastSquaresMatchesReference) {
  // Underdetermined (Gram + LU + Aᵀ·) and overdetermined (QR) dispatch,
  // including the CNN's per-filter whole-layer shapes.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 2}, {2, 3}, {3, 8}, {5, 9}, {9, 17}, {17, 9}, {8, 8},
      {256, 288}, {256, 576}, {64, 576}, {64, 1152}};
  for (const auto& [m, n] : shapes) {
    const Matrix a = SparseRandomMatrix(m, n, 31 * m + n);
    for (const std::size_t k : {1, 2}) {
      const Matrix b = SparseRandomMatrix(m, k, m + n + k);
      auto solved = SolveLeastSquares(a, b);
      auto expected = reference::SolveLeastSquaresReference(a, b);
      ASSERT_EQ(solved.ok(), expected.ok()) << m << "x" << n;
      if (!solved.ok()) continue;
      EXPECT_TRUE(SameBits(solved.value(), expected.value()))
          << m << "x" << n << " rhs " << k;
    }
  }
}

}  // namespace
}  // namespace milr
