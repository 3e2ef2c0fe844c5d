#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "linalg_reference.h"
#include "milr/algebra.h"
#include "support/bytes.h"
#include "support/parallel.h"
#include "support/prng.h"

namespace milr::core {
namespace {

Tensor RandomT(Shape shape, std::uint64_t seed) {
  Prng prng(seed);
  return RandomTensor(std::move(shape), prng);
}

// ------------------------------------------------------------ dense f⁻¹

TEST(DenseBackwardTest, ExactWhenWide) {
  // P ≥ N: invertible without augmentation.
  nn::DenseLayer dense(6, 10);
  dense.weights() = RandomT(Shape{6, 10}, 1);
  const Tensor x = RandomT(Shape{6}, 2);
  const Tensor y = dense.Forward(x);
  auto back = DenseBackward(dense, y, 0, 0, {});
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LT(MaxAbsDiff(back.value(), x), 1e-5f);
}

TEST(DenseBackwardTest, AugmentedWhenNarrow) {
  // P < N: needs α = N − P dummy columns (paper Section IV-A a).
  nn::DenseLayer dense(8, 3);
  dense.weights() = RandomT(Shape{8, 3}, 3);
  const Tensor x = RandomT(Shape{8}, 4);
  const Tensor y = dense.Forward(x);

  const std::size_t alpha = 5;
  const std::uint64_t seed = 77;
  const Tensor dummy = MakeDenseDummyColumns(8, alpha, seed);
  // Golden outputs of the dummy columns for this x.
  std::vector<float> dummy_outputs(alpha, 0.0f);
  for (std::size_t c = 0; c < alpha; ++c) {
    double acc = 0.0;
    for (std::size_t r = 0; r < 8; ++r) {
      acc += static_cast<double>(x[r]) * static_cast<double>(dummy.at(r, c));
    }
    dummy_outputs[c] = static_cast<float>(acc);
  }
  auto back = DenseBackward(dense, y, alpha, seed, dummy_outputs);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LT(MaxAbsDiff(back.value(), x), 1e-4f);
}

TEST(DenseBackwardTest, InsufficientEquationsRejected) {
  nn::DenseLayer dense(8, 3);
  const Tensor y(Shape{3});
  auto back = DenseBackward(dense, y, 2, 0, std::vector<float>(2));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kUnsolvable);
}

// ------------------------------------------------------------- dense R

TEST(DenseSolveTest, RecoversExactWeights) {
  nn::DenseLayer dense(12, 7);
  dense.weights() = RandomT(Shape{12, 7}, 5);
  const Tensor golden = dense.weights();

  const Tensor x = RandomT(Shape{12}, 6);
  const Tensor y = dense.Forward(x);
  const std::size_t dummy_rows = 11;
  const std::uint64_t seed = 88;
  const Tensor rows = MakeDenseDummyRows(dummy_rows, 12, seed);
  const Tensor dummy_outputs = dense.Forward(rows);

  // Corrupt, then solve back.
  dense.weights().Fill(0.0f);
  auto solved = DenseSolveParams(dense, x, y, dummy_rows, seed, dummy_outputs);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-4f);
}

TEST(DenseSolveTest, RecoveryErrorIsFloatRoundingOnly) {
  // The stored golden outputs are float32, so recovered weights carry a
  // small rounding residue (the paper's acknowledged limitation, §V-A) —
  // but it must stay at rounding scale, orders below any accuracy impact.
  nn::DenseLayer dense(16, 4);
  dense.weights() = RandomT(Shape{16, 4}, 7);
  const Tensor golden = dense.weights();
  const Tensor x = RandomT(Shape{16}, 8);
  const Tensor y = dense.Forward(x);
  const Tensor rows = MakeDenseDummyRows(15, 16, 9);
  const Tensor dummy_outputs = dense.Forward(rows);
  auto solved = DenseSolveParams(dense, x, y, 15, 9, dummy_outputs);
  ASSERT_TRUE(solved.ok());
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-5f);
}

TEST(DenseSolveTest, SelfContainedModeIgnoresRealPair) {
  // Extension: with N dummy rows the propagated pair is not used, so a
  // corrupted real pair cannot poison the solution.
  nn::DenseLayer dense(12, 5);
  dense.weights() = RandomT(Shape{12, 5}, 70);
  const Tensor golden = dense.weights();
  const Tensor rows = MakeDenseDummyRows(12, 12, 71);
  const Tensor dummy_outputs = dense.Forward(rows);
  // Garbage real pair — must not matter.
  const Tensor x = Tensor::Full(Shape{12}, 1e9f);
  const Tensor y = Tensor::Full(Shape{5}, -1e9f);
  auto solved = DenseSolveParams(dense, x, y, 12, 71, dummy_outputs);
  ASSERT_TRUE(solved.ok());
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-5f);
}

TEST(DenseSolveTest, TooFewRowsRejected) {
  nn::DenseLayer dense(10, 3);
  auto solved = DenseSolveParams(dense, Tensor(Shape{10}), Tensor(Shape{3}),
                                 3, 0, Tensor(Shape{3, 3}));
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kUnsolvable);
}

// ------------------------------------------------------------- conv f⁻¹

TEST(ConvBackwardTest, ExactWhenManyFilters) {
  // Y = 12 ≥ F²Z = 9: invertible without augmentation.
  nn::Conv2DLayer conv(3, 1, 12, nn::Padding::kValid);
  conv.filters() = RandomT(Shape{3, 3, 1, 12}, 10);
  const Tensor x = RandomT(Shape{6, 6, 1}, 11);
  const Tensor y = conv.Forward(x);
  auto back = ConvBackward(conv, y, 6, 0, 0, Tensor{});
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LT(MaxAbsDiff(back.value(), x), 1e-4f);
}

TEST(ConvBackwardTest, AugmentedWithDummyFilters) {
  // Y = 4 < F²Z = 9: α = 5 PRNG dummy filters complete the system
  // (paper Section IV-B a).
  nn::Conv2DLayer conv(3, 1, 4, nn::Padding::kValid);
  conv.filters() = RandomT(Shape{3, 3, 1, 4}, 12);
  const Tensor x = RandomT(Shape{6, 6, 1}, 13);
  const Tensor y = conv.Forward(x);

  const std::size_t alpha = 5;
  const std::uint64_t seed = 99;
  const Tensor dummy = MakeConvDummyFilters(conv, alpha, seed);
  // Golden dummy outputs: patches(x) × dummy filters.
  const Tensor patches = conv.BuildPatchMatrix(x);
  const std::size_t g2 = patches.shape()[0];
  Tensor dummy_outputs(Shape{g2, alpha});
  for (std::size_t p = 0; p < g2; ++p) {
    for (std::size_t c = 0; c < alpha; ++c) {
      double acc = 0.0;
      for (std::size_t u = 0; u < 9; ++u) {
        acc += static_cast<double>(patches.at(p, u)) *
               static_cast<double>(dummy[u * alpha + c]);
      }
      dummy_outputs.at(p, c) = static_cast<float>(acc);
    }
  }
  auto back = ConvBackward(conv, y, 6, alpha, seed, dummy_outputs);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LT(MaxAbsDiff(back.value(), x), 1e-3f);
}

TEST(ConvBackwardTest, SamePaddingRoundTrip) {
  nn::Conv2DLayer conv(3, 2, 32, nn::Padding::kSame);
  conv.filters() = RandomT(Shape{3, 3, 2, 32}, 14);
  const Tensor x = RandomT(Shape{5, 5, 2}, 15);
  const Tensor y = conv.Forward(x);
  auto back = ConvBackward(conv, y, 5, 0, 0, Tensor{});
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LT(MaxAbsDiff(back.value(), x), 1e-3f);
}

TEST(ConvBackwardTest, InsufficientEquationsRejected) {
  nn::Conv2DLayer conv(3, 2, 4, nn::Padding::kValid);  // F²Z = 18 > Y = 4
  const Tensor y(Shape{4, 4, 4});
  auto back = ConvBackward(conv, y, 6, 0, 0, Tensor{});
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kUnsolvable);
}

// --------------------------------------------------------------- conv R

TEST(ConvSolveFullTest, RecoversFilters) {
  // G² = 36 ≥ F²Z = 9.
  nn::Conv2DLayer conv(3, 1, 5, nn::Padding::kValid);
  conv.filters() = RandomT(Shape{3, 3, 1, 5}, 16);
  const Tensor golden = conv.filters();
  const Tensor x = RandomT(Shape{8, 8, 1}, 17);
  const Tensor y = conv.Forward(x);

  conv.filters().Fill(7.0f);  // corrupt everything
  auto solved = ConvSolveParamsFull(conv, x, y);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-4f);
}

TEST(ConvSolveFullTest, RejectsUnderdetermined) {
  // G² = 4 < F²Z = 27.
  nn::Conv2DLayer conv(3, 3, 8, nn::Padding::kValid);
  const Tensor x = RandomT(Shape{4, 4, 3}, 18);
  const Tensor y(Shape{2, 2, 8});
  auto solved = ConvSolveParamsFull(conv, x, y);
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kUnsolvable);
}

class ConvPartialSolve : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConvPartialSolve, RepairsListedWeights) {
  // G² = 16 < F²Z = 18: partial recoverability regime.
  nn::Conv2DLayer conv(3, 2, 6, nn::Padding::kValid);
  conv.filters() = RandomT(Shape{3, 3, 2, 6}, 19);
  const Tensor golden = conv.filters();
  const Tensor x = RandomT(Shape{6, 6, 2}, 20);
  const Tensor y = conv.Forward(x);

  // Corrupt `count` random weights (all bits).
  const std::size_t count = GetParam();
  Prng prng(21 + count);
  std::vector<std::size_t> victims;
  while (victims.size() < count) {
    const std::size_t v = prng.NextBelow(golden.size());
    if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
      victims.push_back(v);
    }
  }
  for (const auto v : victims) {
    conv.filters()[v] = FloatFromBits(FloatBits(conv.filters()[v]) ^ 0xffffffffu);
  }

  PartialSolveStats stats;
  auto solved = ConvSolveParamsPartial(conv, x, y, victims, &stats);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_EQ(stats.suspected_weights, count);
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Counts, ConvPartialSolve,
                         ::testing::Values(1, 3, 8, 16, 40));

TEST(ConvPartialSolveTest, FalsePositivesAreHarmless) {
  // Suspecting clean weights must still recover them to their true values.
  nn::Conv2DLayer conv(3, 2, 4, nn::Padding::kValid);
  conv.filters() = RandomT(Shape{3, 3, 2, 4}, 22);
  const Tensor golden = conv.filters();
  const Tensor x = RandomT(Shape{7, 7, 2}, 23);
  const Tensor y = conv.Forward(x);

  conv.filters()[5] += 10.0f;  // the only real error
  const std::vector<std::size_t> suspects = {1, 5, 9, 13};  // 3 false alarms
  PartialSolveStats stats;
  auto solved = ConvSolveParamsPartial(conv, x, y, suspects, &stats);
  ASSERT_TRUE(solved.ok());
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-3f);
}

TEST(ConvPartialSolveTest, WholeFilterBankIsUnderdetermined) {
  // All weights of every filter suspected with G² < F²Z: least-squares
  // fallback runs but cannot restore the exact weights (Tables IV/VI/VIII
  // "N/A*" rows).
  nn::Conv2DLayer conv(3, 4, 6, nn::Padding::kValid);  // F²Z = 36 > G² = 16
  conv.filters() = RandomT(Shape{3, 3, 4, 6}, 24);
  const Tensor golden = conv.filters();
  const Tensor x = RandomT(Shape{6, 6, 4}, 25);
  const Tensor y = conv.Forward(x);

  std::vector<std::size_t> all(golden.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  conv.filters().Fill(3.0f);
  PartialSolveStats stats;
  auto solved = ConvSolveParamsPartial(conv, x, y, all, &stats);
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(stats.least_squares_filters, 6u);
  // The least-squares filters still reproduce the observed output.
  nn::Conv2DLayer check(3, 4, 6, nn::Padding::kValid);
  check.filters() = solved.value();
  EXPECT_LT(MaxAbsDiff(check.Forward(x), y), 1e-3f);
}

// ----------------------------------------------------------------- bias

TEST(BiasAlgebraTest, BackwardAndSolve) {
  nn::BiasLayer bias(4);
  bias.bias() = RandomT(Shape{4}, 26);
  const Tensor x = RandomT(Shape{3, 3, 4}, 27);
  const Tensor y = bias.Forward(x);

  EXPECT_LT(MaxAbsDiff(BiasBackward(bias, y), x), 1e-6f);
  const Tensor solved = BiasSolveParams(x, y, 4);
  EXPECT_LT(MaxAbsDiff(solved, bias.bias()), 1e-6f);
}

TEST(BiasAlgebraTest, SolveIsBitExact) {
  // y − x in float is exact when computed at the same positions.
  nn::BiasLayer bias(8);
  bias.bias() = RandomT(Shape{8}, 28);
  const Tensor x = RandomT(Shape{2, 2, 8}, 29);
  const Tensor y = bias.Forward(x);
  const Tensor solved = BiasSolveParams(x, y, 8);
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_EQ(FloatBits(solved[c]),
              FloatBits(y[c] - x[c]));
  }
}

// ------------------------------------------------- bit-identity oracles
//
// The recovery solvers before the order-preserving linalg kernels, kept
// verbatim: the library must return the same weights bit for bit.

Result<Tensor> ConvSolveParamsPartialReference(
    const nn::Conv2DLayer& conv, const Tensor& x, const Tensor& y,
    const std::vector<std::size_t>& error_indices, PartialSolveStats* stats) {
  const std::size_t g = conv.OutputExtent(x.shape()[0]);
  const std::size_t unknowns = conv.PatchLength();
  const std::size_t yc = conv.out_channels();
  PartialSolveStats local;
  local.suspected_weights = error_indices.size();

  // Group suspects by filter: flat layout is (patch_pos u)*Y + k.
  std::vector<std::vector<std::size_t>> per_filter(yc);
  for (const std::size_t idx : error_indices) {
    if (idx >= conv.filters().size()) {
      return Status(StatusCode::kInvalidArgument,
                    "ConvSolveParamsPartial: error index out of range");
    }
    per_filter[idx % yc].push_back(idx / yc);
  }

  const Matrix patches =
      TensorToMatrix(conv.BuildPatchMatrix(x), g * g, unknowns);
  Tensor repaired = conv.filters();

  std::vector<Status> failures(yc, Status::Ok());
  std::vector<PartialSolveStats> filter_stats(yc);

  ParallelFor(0, yc, [&](std::size_t k) {
    auto& suspects = per_filter[k];
    if (suspects.empty()) return;
    std::sort(suspects.begin(), suspects.end());
    auto& fs = filter_stats[k];
    // Residual: golden output column minus known-weight contributions.
    Matrix rhs(g * g, 1);
    for (std::size_t pix = 0; pix < g * g; ++pix) {
      double acc = static_cast<double>(y[pix * yc + k]);
      const double* prow = patches.row(pix);
      std::size_t next = 0;
      for (std::size_t u = 0; u < unknowns; ++u) {
        if (next < suspects.size() && suspects[next] == u) {
          ++next;  // unknown — excluded from the known contribution
          continue;
        }
        acc -= prow[u] * static_cast<double>(repaired[u * yc + k]);
      }
      rhs.at(pix, 0) = acc;
    }
    Matrix a(g * g, suspects.size());
    for (std::size_t pix = 0; pix < g * g; ++pix) {
      for (std::size_t s = 0; s < suspects.size(); ++s) {
        a.at(pix, s) = patches.at(pix, suspects[s]);
      }
    }
    if (suspects.size() > g * g) ++fs.least_squares_filters;
    auto solved = reference::SolveLeastSquaresReference(a, rhs);
    if (!solved.ok()) {
      ++fs.unsolved_filters;
      failures[k] = solved.status();
      return;
    }
    for (std::size_t s = 0; s < suspects.size(); ++s) {
      repaired[suspects[s] * yc + k] =
          static_cast<float>(solved.value().at(s, 0));
      ++fs.solved_weights;
    }
  }, /*grain=*/1);

  for (const auto& fs : filter_stats) {
    local.solved_weights += fs.solved_weights;
    local.least_squares_filters += fs.least_squares_filters;
    local.unsolved_filters += fs.unsolved_filters;
  }
  if (stats != nullptr) *stats = local;
  return repaired;
}

// DenseSolveParams' self-contained DCT path (dummy_rows == N).
Tensor DenseSolveSelfContainedReference(std::size_t n, std::size_t p,
                                         std::uint64_t row_seed,
                                         const Tensor& dummy_outputs) {
  const std::vector<float> signs = DenseDummyColumnSigns(n, row_seed);
  Tensor w(Shape{n, p});
  ParallelFor(0, n, [&](std::size_t c) {
    std::vector<double> acc(p, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      const double a = DenseDummyRowEntry(r, c, n, signs[c]);
      const float* yrow = dummy_outputs.data() + r * p;
      for (std::size_t j = 0; j < p; ++j) {
        acc[j] += a * static_cast<double>(yrow[j]);
      }
    }
    float* wrow = w.data() + c * p;
    for (std::size_t j = 0; j < p; ++j) {
      wrow[j] = static_cast<float>(acc[j]);
    }
  }, /*grain=*/8);
  return w;
}

::testing::AssertionResult SameBits(const Tensor& actual,
                                    const Tensor& expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (FloatBits(actual[i]) != FloatBits(expected[i])) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << actual[i] << " vs " << expected[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Runs the library's and the reference's partial solve on the same inputs
// and requires the same repaired bits and the same statistics.
::testing::AssertionResult PartialSolveMatchesReference(
    const nn::Conv2DLayer& conv, const Tensor& x, const Tensor& y,
    const std::vector<std::size_t>& suspects, PartialSolveStats* stats) {
  PartialSolveStats expected_stats;
  auto solved = ConvSolveParamsPartial(conv, x, y, suspects, stats);
  auto expected =
      ConvSolveParamsPartialReference(conv, x, y, suspects, &expected_stats);
  if (!solved.ok() || !expected.ok()) {
    return ::testing::AssertionFailure() << "solve failed";
  }
  if (std::memcmp(solved.value().data(), expected.value().data(),
                  expected.value().size() * sizeof(float)) != 0) {
    return SameBits(solved.value(), expected.value());
  }
  if (stats->suspected_weights != expected_stats.suspected_weights ||
      stats->solved_weights != expected_stats.solved_weights ||
      stats->least_squares_filters != expected_stats.least_squares_filters ||
      stats->unsolved_filters != expected_stats.unsolved_filters) {
    return ::testing::AssertionFailure()
           << "stats differ: solved " << stats->solved_weights << " vs "
           << expected_stats.solved_weights << ", least squares "
           << stats->least_squares_filters << " vs "
           << expected_stats.least_squares_filters << ", unsolved "
           << stats->unsolved_filters << " vs "
           << expected_stats.unsolved_filters;
  }
  return ::testing::AssertionSuccess();
}

// `count` distinct patch positions of `unknowns`, drawn from `prng`.
std::vector<std::size_t> DrawPositions(std::size_t unknowns,
                                       std::size_t count, Prng& prng) {
  std::vector<std::size_t> positions(unknowns);
  for (std::size_t u = 0; u < unknowns; ++u) positions[u] = u;
  for (std::size_t s = 0; s < count; ++s) {
    std::swap(positions[s], positions[s + prng.NextBelow(unknowns - s)]);
  }
  positions.resize(count);
  return positions;
}

struct PartialOracleCase {
  const char* name;
  std::size_t extent;  // input M; same padding, so G = M
  std::size_t in_channels;
  std::size_t filters;
  std::size_t suspects;  // per filter; F²Z = every weight
  std::size_t cluster;   // consecutive filters sharing one suspect set
};

class ConvPartialOracle : public ::testing::TestWithParam<PartialOracleCase> {
};

TEST_P(ConvPartialOracle, MatchesReferenceBitwise) {
  // The CNN's per-filter systems: G² = 256 (16×16) against F²Z = 288 (conv
  // layer 7) or 576 (conv layer 10), and G² = 64 against F²Z = 1152 (conv
  // layer 17). Filters in one cluster share a suspect set, as a 2-D CRC
  // row-group collision makes them, and are solved as one group; a cluster
  // of 1 is a singleton. A few filters keep the reference loops affordable.
  const PartialOracleCase& c = GetParam();
  nn::Conv2DLayer conv(3, c.in_channels, c.filters, nn::Padding::kSame);
  conv.filters() = RandomT(conv.filters().shape(), 40 + c.in_channels);
  const Tensor x = RandomT(Shape{c.extent, c.extent, c.in_channels}, 41);
  const Tensor y = conv.Forward(x);
  const std::size_t unknowns = conv.PatchLength();
  Prng prng(42 + c.suspects);
  std::vector<std::size_t> suspects;
  std::vector<std::size_t> positions;
  for (std::size_t k = 0; k < c.filters; ++k) {
    if (k % c.cluster == 0) {
      positions = DrawPositions(unknowns, c.suspects, prng);
    }
    for (const std::size_t u : positions) suspects.push_back(u * c.filters + k);
  }
  for (const std::size_t idx : suspects) conv.filters()[idx] = 0.25f;
  PartialSolveStats stats;
  EXPECT_TRUE(PartialSolveMatchesReference(conv, x, y, suspects, &stats));
  EXPECT_EQ(stats.solved_weights, c.suspects * c.filters);
  EXPECT_EQ(stats.unsolved_filters, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CnnShapes, ConvPartialOracle,
    ::testing::Values(
        PartialOracleCase{"L7Whole", 16, 32, 4, 288, 1},
        PartialOracleCase{"L10Whole", 16, 64, 4, 576, 1},
        PartialOracleCase{"L10Underdetermined", 16, 64, 4, 300, 1},
        PartialOracleCase{"L10Overdetermined", 16, 64, 4, 100, 1},
        PartialOracleCase{"L7Clusters", 16, 32, 8, 280, 4},
        PartialOracleCase{"L10OverdeterminedClusters", 16, 64, 8, 120, 4},
        PartialOracleCase{"L17Whole", 8, 128, 4, 1152, 1},
        PartialOracleCase{"L17Clusters", 8, 128, 8, 1100, 4}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ConvPartialOracleMixed, CrcCollisionPatternMatchesReference) {
  // What whole-layer corruption of conv layer 10 leaves after 2-D CRC
  // localization: most filters suspect every weight, some lose the same
  // few weights to a checksum collision, others lose their own, one filter
  // is clean and one has a handful of suspects. Groups of 4, 3, and 1.
  nn::Conv2DLayer conv(3, 64, 12, nn::Padding::kSame);
  conv.filters() = RandomT(conv.filters().shape(), 43);
  const Tensor x = RandomT(Shape{16, 16, 64}, 44);
  const Tensor y = conv.Forward(x);
  const std::size_t unknowns = conv.PatchLength();
  Prng prng(45);
  std::vector<std::size_t> all(unknowns);
  for (std::size_t u = 0; u < unknowns; ++u) all[u] = u;
  const auto without = [&](std::vector<std::size_t> dropped) {
    std::vector<std::size_t> kept;
    for (const std::size_t u : all) {
      if (std::find(dropped.begin(), dropped.end(), u) == dropped.end()) {
        kept.push_back(u);
      }
    }
    return kept;
  };
  const std::vector<std::size_t> collided = without({3, 200, 511});
  std::vector<std::vector<std::size_t>> sets = {
      all, all, all, all,                                // whole, group of 4
      collided, collided, collided,                      // shared, group of 3
      without({17}), without({0, 575}),                  // singletons
      {},                                                // clean filter
      DrawPositions(unknowns, 40, prng), all};           // few; whole again
  std::vector<std::size_t> suspects;
  for (std::size_t k = 0; k < sets.size(); ++k) {
    // Reverse order per filter: the solver must not rely on sorted input.
    for (auto it = sets[k].rbegin(); it != sets[k].rend(); ++it) {
      suspects.push_back(*it * 12 + k);
    }
  }
  for (const std::size_t idx : suspects) conv.filters()[idx] = -1.5f;
  PartialSolveStats stats;
  EXPECT_TRUE(PartialSolveMatchesReference(conv, x, y, suspects, &stats));
  EXPECT_EQ(stats.suspected_weights, suspects.size());
  EXPECT_EQ(stats.solved_weights, suspects.size());
  EXPECT_EQ(stats.least_squares_filters, 10u);  // all but the 40 and clean
  EXPECT_EQ(stats.unsolved_filters, 0u);
}

TEST(ConvPartialOracleMixed, RankDeficientGroupIsReportedUnsolved) {
  // Channel 0 of the input is all zero, so every patch column of a
  // channel-0 weight is zero: the four filters that share a suspect set
  // containing one cannot be solved and keep their values, while the two
  // filters whose sets avoid channel 0 are repaired.
  nn::Conv2DLayer conv(3, 4, 6, nn::Padding::kValid);  // G² = 16, F²Z = 36
  conv.filters() = RandomT(conv.filters().shape(), 46);
  const Tensor golden = conv.filters();
  Tensor x = RandomT(Shape{6, 6, 4}, 47);
  for (std::size_t p = 0; p < 36; ++p) x[p * 4] = 0.0f;
  const Tensor y = conv.Forward(x);
  // Patch position u = (f1·3 + f2)·4 + z; u = 0 and u = 8 are channel 0.
  const std::vector<std::size_t> singular = {0, 1, 5, 8, 10};
  const std::vector<std::size_t> regular = {1, 2, 6, 13, 35};
  std::vector<std::size_t> suspects;
  for (std::size_t k = 0; k < 6; ++k) {
    for (const std::size_t u : k < 4 ? singular : regular) {
      suspects.push_back(u * 6 + k);
    }
  }
  for (const std::size_t idx : suspects) conv.filters()[idx] = 7.0f;
  PartialSolveStats stats;
  EXPECT_TRUE(PartialSolveMatchesReference(conv, x, y, suspects, &stats));
  EXPECT_EQ(stats.unsolved_filters, 4u);
  EXPECT_EQ(stats.solved_weights, 10u);
  auto solved = ConvSolveParamsPartial(conv, x, y, suspects, nullptr);
  ASSERT_TRUE(solved.ok());
  for (std::size_t k = 0; k < 6; ++k) {
    for (const std::size_t u : k < 4 ? singular : regular) {
      if (k < 4) {
        EXPECT_EQ(solved.value()[u * 6 + k], 7.0f) << "filter " << k;
      } else {
        EXPECT_NEAR(solved.value()[u * 6 + k], golden[u * 6 + k], 1e-4f)
            << "filter " << k;
      }
    }
  }
}

TEST(DenseSolveOracle, SelfContainedMatchesReferenceBitwise) {
  // The CNN's dense layer 25 (2048→128) in self-contained mode, plus a
  // small layer with partial row blocks.
  for (const auto& [n, p] : {std::pair<std::size_t, std::size_t>{2048, 128},
                             {37, 5}}) {
    const std::uint64_t row_seed = 90 + n;
    const Tensor outputs = RandomT(Shape{n, p}, 91 + n);
    nn::DenseLayer dense(n, p);
    auto solved = DenseSolveParams(dense, Tensor(Shape{n}), Tensor(Shape{p}),
                                   n, row_seed, outputs);
    ASSERT_TRUE(solved.ok());
    EXPECT_TRUE(SameBits(solved.value(), DenseSolveSelfContainedReference(
                                             n, p, row_seed, outputs)))
        << n << "→" << p;
  }
}

}  // namespace
}  // namespace milr::core
