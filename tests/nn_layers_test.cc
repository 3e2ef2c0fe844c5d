#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/layer.h"
#include "nn/pool.h"
#include "support/prng.h"

namespace milr::nn {
namespace {

Tensor RandomT(Shape shape, std::uint64_t seed) {
  Prng prng(seed);
  return RandomTensor(std::move(shape), prng);
}

// ---------------------------------------------------------------- ReLU

TEST(ReLUTest, ClampsNegatives) {
  ReLULayer relu;
  const Tensor x(Shape{4}, {-1.0f, 0.0f, 2.0f, -0.5f});
  const Tensor y = relu.Forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  EXPECT_EQ(y[3], 0.0f);
}

TEST(ReLUTest, BackwardMasksGradient) {
  ReLULayer relu;
  const Tensor x(Shape{3}, {-1.0f, 1.0f, 2.0f});
  const Tensor y = relu.Forward(x);
  const Tensor dy(Shape{3}, {5.0f, 6.0f, 7.0f});
  const Tensor dx = relu.Backward(x, y, dy, {});
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 6.0f);
  EXPECT_EQ(dx[2], 7.0f);
}

// -------------------------------------------------------------- Flatten

TEST(FlattenTest, ForwardReshapesBackwardRestores) {
  FlattenLayer flatten;
  const Tensor x = RandomT(Shape{2, 3, 4}, 1);
  const Tensor y = flatten.Forward(x);
  EXPECT_EQ(y.shape(), Shape({24}));
  const Tensor dx = flatten.Backward(x, y, y, {});
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_EQ(MaxAbsDiff(dx, x), 0.0f);
}

// ----------------------------------------------------------------- Bias

TEST(BiasTest, AddsAlongLastAxisRank1) {
  BiasLayer bias(3);
  bias.bias() = Tensor(Shape{3}, {1.0f, 2.0f, 3.0f});
  const Tensor x(Shape{3}, {10.0f, 20.0f, 30.0f});
  const Tensor y = bias.Forward(x);
  EXPECT_EQ(y[0], 11.0f);
  EXPECT_EQ(y[1], 22.0f);
  EXPECT_EQ(y[2], 33.0f);
}

TEST(BiasTest, AddsPerChannelRank3) {
  BiasLayer bias(2);
  bias.bias() = Tensor(Shape{2}, {0.5f, -0.5f});
  const Tensor x = Tensor::Zeros(Shape{2, 2, 2});
  const Tensor y = bias.Forward(x);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(y.at(i, j, 0), 0.5f);
      EXPECT_EQ(y.at(i, j, 1), -0.5f);
    }
  }
}

TEST(BiasTest, BackwardSumsPerChannel) {
  BiasLayer bias(2);
  const Tensor x = Tensor::Zeros(Shape{2, 2, 2});
  const Tensor dy = Tensor::Full(Shape{2, 2, 2}, 1.0f);
  std::vector<float> dparams(2, 0.0f);
  bias.Backward(x, dy, dy, dparams);
  EXPECT_EQ(dparams[0], 4.0f);
  EXPECT_EQ(dparams[1], 4.0f);
}

TEST(BiasTest, RejectsMismatchedShape) {
  BiasLayer bias(4);
  EXPECT_THROW(bias.Forward(Tensor(Shape{3})), std::invalid_argument);
}

// ---------------------------------------------------------------- Dense

TEST(DenseTest, KnownMatrixProduct) {
  DenseLayer dense(2, 3);
  dense.weights() = Tensor(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor x(Shape{2}, {1.0f, 2.0f});
  const Tensor y = dense.Forward(x);
  EXPECT_EQ(y[0], 9.0f);
  EXPECT_EQ(y[1], 12.0f);
  EXPECT_EQ(y[2], 15.0f);
}

TEST(DenseTest, BatchForwardMatchesRowwise) {
  DenseLayer dense(5, 4);
  dense.weights() = RandomT(Shape{5, 4}, 2);
  const Tensor batch = RandomT(Shape{3, 5}, 3);
  const Tensor y = dense.Forward(batch);
  ASSERT_EQ(y.shape(), Shape({3, 4}));
  for (std::size_t r = 0; r < 3; ++r) {
    Tensor row(Shape{5});
    for (std::size_t c = 0; c < 5; ++c) row[c] = batch.at(r, c);
    const Tensor yr = dense.Forward(row);
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_FLOAT_EQ(y.at(r, c), yr[c]);
    }
  }
}

TEST(DenseTest, RejectsWrongWidth) {
  DenseLayer dense(5, 4);
  EXPECT_THROW(dense.Forward(Tensor(Shape{4})), std::invalid_argument);
}

// ----------------------------------------------------------------- Conv

TEST(ConvTest, OutputShapes) {
  Conv2DLayer valid(3, 1, 32, Padding::kValid);
  EXPECT_EQ(valid.OutputShape(Shape{28, 28, 1}), Shape({26, 26, 32}));
  Conv2DLayer same(3, 3, 32, Padding::kSame);
  EXPECT_EQ(same.OutputShape(Shape{32, 32, 3}), Shape({32, 32, 32}));
  Conv2DLayer same5(5, 3, 96, Padding::kSame);
  EXPECT_EQ(same5.OutputShape(Shape{32, 32, 3}), Shape({32, 32, 96}));
}

TEST(ConvTest, IdentityFilterPassesThrough) {
  // 1×1 filter with weight 1 is the identity on a single channel.
  Conv2DLayer conv(1, 1, 1, Padding::kValid);
  conv.filters().Fill(1.0f);
  const Tensor x = RandomT(Shape{5, 5, 1}, 4);
  EXPECT_EQ(MaxAbsDiff(conv.Forward(x), x), 0.0f);
}

TEST(ConvTest, HandComputedValidConvolution) {
  // 2×2 input, 2×2 averaging-ish filter, single output pixel.
  Conv2DLayer conv(2, 1, 1, Padding::kValid);
  conv.filters() = Tensor(Shape{2, 2, 1, 1}, {1.0f, 2.0f, 3.0f, 4.0f});
  const Tensor x(Shape{2, 2, 1}, {10.0f, 20.0f, 30.0f, 40.0f});
  const Tensor y = conv.Forward(x);
  ASSERT_EQ(y.shape(), Shape({1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 10 + 2 * 20 + 3 * 30 + 4 * 40);
}

TEST(ConvTest, SamePaddingZeroBorders) {
  // All-ones 3×3 filter over an all-ones input: interior pixels see 9 ones,
  // corners only 4 (rest is zero padding).
  Conv2DLayer conv(3, 1, 1, Padding::kSame);
  conv.filters().Fill(1.0f);
  const Tensor x = Tensor::Full(Shape{4, 4, 1}, 1.0f);
  const Tensor y = conv.Forward(x);
  EXPECT_FLOAT_EQ(y.at(1, 1, 0), 9.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0), 6.0f);
}

TEST(ConvTest, ForwardMatchesDirectSum) {
  // im2col forward against a literal implementation of equation 4.
  Conv2DLayer conv(3, 2, 4, Padding::kValid);
  conv.filters() = RandomT(Shape{3, 3, 2, 4}, 5);
  const Tensor x = RandomT(Shape{6, 6, 2}, 6);
  const Tensor y = conv.Forward(x);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t k = 0; k < 4; ++k) {
        float acc = 0.0f;
        for (std::size_t f1 = 0; f1 < 3; ++f1) {
          for (std::size_t f2 = 0; f2 < 3; ++f2) {
            for (std::size_t z = 0; z < 2; ++z) {
              acc += conv.filters().at(f1, f2, z, k) *
                     x.at(i + f1, j + f2, z);
            }
          }
        }
        EXPECT_NEAR(y.at(i, j, k), acc, 1e-4f) << i << "," << j << "," << k;
      }
    }
  }
}

TEST(ConvTest, PatchMatrixRoundTripValid) {
  Conv2DLayer conv(3, 3, 8, Padding::kValid);
  const Tensor x = RandomT(Shape{7, 7, 3}, 7);
  const Tensor patches = conv.BuildPatchMatrix(x);
  EXPECT_EQ(patches.shape(), Shape({25, 27}));
  const Tensor back = conv.ScatterPatchesToInput(patches, 7);
  EXPECT_EQ(MaxAbsDiff(back, x), 0.0f);
}

TEST(ConvTest, PatchMatrixRoundTripSame) {
  Conv2DLayer conv(5, 2, 4, Padding::kSame);
  const Tensor x = RandomT(Shape{8, 8, 2}, 8);
  const Tensor back =
      conv.ScatterPatchesToInput(conv.BuildPatchMatrix(x), 8);
  EXPECT_EQ(MaxAbsDiff(back, x), 0.0f);
}

TEST(ConvTest, RejectsEvenFilterWithSamePadding) {
  EXPECT_THROW(Conv2DLayer(2, 1, 1, Padding::kSame), std::invalid_argument);
}

TEST(ConvTest, RejectsWrongChannels) {
  Conv2DLayer conv(3, 2, 4, Padding::kValid);
  EXPECT_THROW(conv.Forward(RandomT(Shape{6, 6, 3}, 9)),
               std::invalid_argument);
}

TEST(ConvTest, ForwardPixelMatchesForwardBitwise) {
  // MILR's detection signature is one output pixel per filter; computing
  // that pixel alone must give Forward's bits at every position, padding
  // edges and corners included. Z = 3 and 5 leave the patch length off any
  // multiple of four; Y = 70 spans two exact-GEMM column panels.
  for (const Padding padding : {Padding::kSame, Padding::kValid}) {
    for (const std::size_t f : {1u, 3u, 5u}) {
      for (const std::size_t m : {7u, 8u}) {
        for (const std::size_t z : {3u, 5u}) {
          for (const std::size_t y : {6u, 70u}) {
            Conv2DLayer conv(f, z, y, padding);
            conv.filters() = RandomT(conv.filters().shape(), 10 + f * z + y);
            const Tensor x = RandomT(Shape{m, m, z}, 11 + m + z);
            const Tensor full = conv.Forward(x);
            const std::size_t g = conv.OutputExtent(m);
            for (std::size_t i = 0; i < g; ++i) {
              for (std::size_t j = 0; j < g; ++j) {
                const Tensor pixel = conv.ForwardPixel(x, i, j);
                ASSERT_EQ(pixel.shape(), Shape({y}));
                const float* expected = full.data() + full.Offset3(i, j, 0);
                ASSERT_EQ(std::memcmp(pixel.data(), expected,
                                      y * sizeof(float)),
                          0)
                    << (padding == Padding::kSame ? "same" : "valid")
                    << " F=" << f << " M=" << m << " Z=" << z << " Y=" << y
                    << " pixel (" << i << "," << j << ")";
              }
            }
          }
        }
      }
    }
  }
}

TEST(ConvTest, ForwardPixelRejectsOutsidePixel) {
  Conv2DLayer conv(3, 2, 4, Padding::kValid);
  const Tensor x = RandomT(Shape{6, 6, 2}, 12);
  EXPECT_THROW(conv.ForwardPixel(x, 4, 0), std::invalid_argument);
  EXPECT_THROW(conv.ForwardPixel(x, 0, 4), std::invalid_argument);
  EXPECT_THROW(conv.ForwardPixel(RandomT(Shape{6, 6, 3}, 13), 0, 0),
               std::invalid_argument);
}

// -------------------------------------------------------------- MaxPool

TEST(MaxPoolTest, SelectsWindowMaximum) {
  MaxPool2DLayer pool(2);
  Tensor x(Shape{4, 4, 1});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  const Tensor y = pool.Forward(x);
  ASSERT_EQ(y.shape(), Shape({2, 2, 1}));
  EXPECT_EQ(y.at(0, 0, 0), 5.0f);
  EXPECT_EQ(y.at(0, 1, 0), 7.0f);
  EXPECT_EQ(y.at(1, 0, 0), 13.0f);
  EXPECT_EQ(y.at(1, 1, 0), 15.0f);
}

TEST(MaxPoolTest, ChannelsIndependent) {
  MaxPool2DLayer pool(2);
  Tensor x(Shape{2, 2, 2});
  x.at(0, 0, 0) = 5.0f;
  x.at(1, 1, 1) = 7.0f;
  const Tensor y = pool.Forward(x);
  EXPECT_EQ(y.at(0, 0, 0), 5.0f);
  EXPECT_EQ(y.at(0, 0, 1), 7.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2DLayer pool(2);
  Tensor x(Shape{2, 2, 1});
  x.at(0, 1, 0) = 3.0f;  // max
  const Tensor y = pool.Forward(x);
  const Tensor dy = Tensor::Full(Shape{1, 1, 1}, 2.0f);
  const Tensor dx = pool.Backward(x, y, dy, {});
  EXPECT_EQ(dx.at(0, 1, 0), 2.0f);
  EXPECT_EQ(dx.at(0, 0, 0), 0.0f);
}

TEST(MaxPoolTest, RejectsIndivisibleInput) {
  MaxPool2DLayer pool(2);
  EXPECT_THROW(pool.Forward(Tensor(Shape{5, 5, 1})), std::invalid_argument);
}

// --------------------------------------------- numerical gradient checks

/// Central-difference gradient check of layer parameters and inputs.
void CheckGradients(Layer& layer, const Tensor& x, std::uint64_t seed) {
  const Tensor y = layer.Forward(x);
  // Random upstream gradient defines scalar loss L = Σ dy ⊙ y.
  Prng prng(seed);
  Tensor dy(y.shape());
  FillRandom(dy, prng);

  std::vector<float> dparams(layer.ParamCount(), 0.0f);
  const Tensor dx = layer.Backward(x, y, dy, dparams);

  const float eps = 1e-2f;
  auto loss = [&](const Tensor& input) {
    const Tensor out = layer.Forward(input);
    double acc = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      acc += static_cast<double>(out[i]) * static_cast<double>(dy[i]);
    }
    return acc;
  };

  // Input gradient at a handful of positions.
  Tensor probe = x;
  for (std::size_t i = 0; i < std::min<std::size_t>(6, x.size()); ++i) {
    const std::size_t pos = (i * 37) % x.size();
    const float saved = probe[pos];
    probe[pos] = saved + eps;
    const double up = loss(probe);
    probe[pos] = saved - eps;
    const double down = loss(probe);
    probe[pos] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(dx[pos], numeric, 2e-2)
        << "input gradient at " << pos;
  }

  // Parameter gradient at a handful of positions.
  auto params = layer.Params();
  for (std::size_t i = 0; i < std::min<std::size_t>(6, params.size()); ++i) {
    const std::size_t pos = (i * 53) % params.size();
    const float saved = params[pos];
    params[pos] = saved + eps;
    const double up = loss(x);
    params[pos] = saved - eps;
    const double down = loss(x);
    params[pos] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(dparams[pos], numeric, 2e-2)
        << "param gradient at " << pos;
  }
}

TEST(GradientCheck, Dense) {
  DenseLayer dense(6, 4);
  dense.weights() = RandomT(Shape{6, 4}, 11);
  CheckGradients(dense, RandomT(Shape{6}, 12), 13);
}

TEST(GradientCheck, ConvValid) {
  Conv2DLayer conv(3, 2, 3, Padding::kValid);
  conv.filters() = RandomT(Shape{3, 3, 2, 3}, 14);
  CheckGradients(conv, RandomT(Shape{5, 5, 2}, 15), 16);
}

TEST(GradientCheck, ConvSame) {
  Conv2DLayer conv(3, 1, 2, Padding::kSame);
  conv.filters() = RandomT(Shape{3, 3, 1, 2}, 17);
  CheckGradients(conv, RandomT(Shape{4, 4, 1}, 18), 19);
}

TEST(GradientCheck, Bias) {
  BiasLayer bias(4);
  bias.bias() = RandomT(Shape{4}, 20);
  CheckGradients(bias, RandomT(Shape{3, 3, 4}, 21), 22);
}

}  // namespace
}  // namespace milr::nn
