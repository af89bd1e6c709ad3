#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "nn/functional.h"
#include "parallel/parallel_for.h"
#include "reference/conv_ref.h"
#include "tensor/gemm.h"

namespace mlperf::nn {
namespace {

using autograd::Variable;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

/// Naive direct convolution for cross-checking the im2col path.
Tensor conv2d_naive(const Tensor& x, const Tensor& w, std::int64_t stride, std::int64_t pad) {
  const std::int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], ww = x.shape()[3];
  const std::int64_t o = w.shape()[0], kh = w.shape()[2], kw = w.shape()[3];
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (ww + 2 * pad - kw) / stride + 1;
  Tensor out({n, o, oh, ow});
  for (std::int64_t s = 0; s < n; ++s)
    for (std::int64_t oc = 0; oc < o; ++oc)
      for (std::int64_t i = 0; i < oh; ++i)
        for (std::int64_t j = 0; j < ow; ++j) {
          double acc = 0.0;
          for (std::int64_t ic = 0; ic < c; ++ic)
            for (std::int64_t ki = 0; ki < kh; ++ki)
              for (std::int64_t kj = 0; kj < kw; ++kj) {
                const std::int64_t ii = i * stride - pad + ki;
                const std::int64_t jj = j * stride - pad + kj;
                if (ii < 0 || ii >= h || jj < 0 || jj >= ww) continue;
                acc += x.at({s, ic, ii, jj}) * w.at({oc, ic, ki, kj});
              }
          out.at({s, oc, i, j}) = static_cast<float>(acc);
        }
  return out;
}

TEST(Conv2d, MatchesNaiveReference) {
  Rng rng(1);
  Tensor x = Tensor::randn({2, 3, 6, 6}, rng);
  Tensor w = Tensor::randn({4, 3, 3, 3}, rng);
  for (std::int64_t stride : {1, 2}) {
    for (std::int64_t pad : {0, 1}) {
      Variable out = conv2d(Variable(x), Variable(w), Variable(), stride, pad);
      Tensor ref = conv2d_naive(x, w, stride, pad);
      ASSERT_EQ(out.value().shape(), ref.shape()) << stride << " " << pad;
      for (std::int64_t i = 0; i < ref.numel(); ++i)
        EXPECT_NEAR(out.value()[i], ref[i], 1e-4);
    }
  }
}

TEST(Conv2d, BiasIsAddedPerChannel) {
  Tensor x({1, 1, 2, 2}, 0.0f);
  Tensor w({2, 1, 1, 1}, 0.0f);
  Tensor b({2}, {1.5f, -2.0f});
  Variable out = conv2d(Variable(x), Variable(w), Variable(b), 1, 0);
  EXPECT_FLOAT_EQ(out.value().at({0, 0, 1, 1}), 1.5f);
  EXPECT_FLOAT_EQ(out.value().at({0, 1, 0, 0}), -2.0f);
}

TEST(Conv2d, GradcheckInputWeightBias) {
  Rng rng(2);
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  Tensor w = Tensor::randn({2, 2, 3, 3}, rng, 0.0f, 0.5f);
  Tensor b = Tensor::randn({2}, rng);
  const float eps = 1e-2f;

  Variable vx(x, true), vw(w, true), vb(b, true);
  Variable loss = autograd::sum_all(conv2d(vx, vw, vb, 1, 1));
  loss.backward();

  auto numeric = [&](Tensor& target, std::int64_t i) {
    target[i] += eps;
    const float lp = conv2d(Variable(x), Variable(w), Variable(b), 1, 1).value().sum();
    target[i] -= 2 * eps;
    const float lm = conv2d(Variable(x), Variable(w), Variable(b), 1, 1).value().sum();
    target[i] += eps;
    return (static_cast<double>(lp) - lm) / (2.0 * eps);
  };
  for (std::int64_t i = 0; i < x.numel(); i += 7)
    EXPECT_NEAR(vx.grad()[i], numeric(x, i), 5e-2) << "x" << i;
  for (std::int64_t i = 0; i < w.numel(); i += 5)
    EXPECT_NEAR(vw.grad()[i], numeric(w, i), 5e-2) << "w" << i;
  for (std::int64_t i = 0; i < b.numel(); ++i)
    EXPECT_NEAR(vb.grad()[i], numeric(b, i), 5e-2) << "b" << i;
}

// Property sweep: im2col conv matches the naive direct convolution across a
// grid of kernel/stride/padding/channel configurations.
struct ConvCase {
  std::int64_t in_ch, out_ch, kernel, stride, pad, hw;
};

class ConvParamSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamSweep, MatchesNaive) {
  const ConvCase& cc = GetParam();
  Rng rng(100);
  Tensor x = Tensor::randn({2, cc.in_ch, cc.hw, cc.hw}, rng);
  Tensor w = Tensor::randn({cc.out_ch, cc.in_ch, cc.kernel, cc.kernel}, rng);
  Variable out = conv2d(Variable(x), Variable(w), Variable(), cc.stride, cc.pad);
  Tensor ref = conv2d_naive(x, w, cc.stride, cc.pad);
  ASSERT_EQ(out.value().shape(), ref.shape());
  for (std::int64_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(out.value()[i], ref[i], 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Configs, ConvParamSweep,
                         ::testing::Values(ConvCase{1, 1, 1, 1, 0, 5},   // pointwise
                                           ConvCase{2, 4, 3, 1, 1, 6},   // same-pad 3x3
                                           ConvCase{3, 2, 3, 2, 1, 8},   // strided
                                           ConvCase{2, 2, 5, 1, 2, 9},   // 5x5
                                           ConvCase{4, 1, 3, 3, 0, 9},   // stride 3
                                           ConvCase{1, 3, 2, 2, 0, 8})); // even kernel

// ---- im2col / col2im: branch-free lowering vs the per-element loops -------
//
// The per-element bounds-tested loops conv2d used before nn::detail::im2col
// and col2im_accumulate compute each row's in-bounds range once. Kept here,
// verbatim, as the references: the new versions must be bitwise equal.

void im2col_branchy_ref(const float* src, const detail::ConvDims& d, std::int64_t stride,
                        std::int64_t padding, float* cols) {
  const std::int64_t patch = d.kh * d.kw;
  for (std::int64_t c = 0; c < d.c; ++c) {
    for (std::int64_t p = 0; p < patch; ++p) {
      const std::int64_t ki = p / d.kw, kj = p % d.kw;
      float* row = cols + (c * patch + p) * (d.oh * d.ow);
      for (std::int64_t oi = 0; oi < d.oh; ++oi) {
        const std::int64_t ii = oi * stride - padding + ki;
        for (std::int64_t oj = 0; oj < d.ow; ++oj) {
          const std::int64_t jj = oj * stride - padding + kj;
          row[oi * d.ow + oj] = (ii >= 0 && ii < d.h && jj >= 0 && jj < d.w)
                                    ? src[(c * d.h + ii) * d.w + jj]
                                    : 0.0f;
        }
      }
    }
  }
}

void col2im_accumulate_branchy_ref(const float* cols, const detail::ConvDims& d,
                                   std::int64_t stride, std::int64_t padding, float* dst) {
  const std::int64_t patch = d.kh * d.kw;
  for (std::int64_t c = 0; c < d.c; ++c) {
    for (std::int64_t p = 0; p < patch; ++p) {
      const std::int64_t ki = p / d.kw, kj = p % d.kw;
      const float* row = cols + (c * patch + p) * (d.oh * d.ow);
      for (std::int64_t oi = 0; oi < d.oh; ++oi) {
        const std::int64_t ii = oi * stride - padding + ki;
        if (ii < 0 || ii >= d.h) continue;
        for (std::int64_t oj = 0; oj < d.ow; ++oj) {
          const std::int64_t jj = oj * stride - padding + kj;
          if (jj < 0 || jj >= d.w) continue;
          dst[(c * d.h + ii) * d.w + jj] += row[oi * d.ow + oj];
        }
      }
    }
  }
}

struct LoweringCase {
  std::int64_t c, h, w, kh, kw, stride, pad;
};

std::vector<LoweringCase> lowering_cases() {
  std::vector<LoweringCase> cases;
  // The grid asked of every conv lowering: stride 1/2 x padding 0/1 x
  // kernel 1/3 on square and non-square inputs.
  for (std::int64_t stride : {1, 2})
    for (std::int64_t pad : {0, 1})
      for (std::int64_t k : {1, 3})
        for (auto [h, w] : {std::pair<std::int64_t, std::int64_t>{6, 6}, {5, 7}, {8, 3}})
          cases.push_back({2, h, w, k, k, stride, pad});
  // Rectangular kernels, padding wider than half the kernel, stride 3.
  cases.push_back({3, 7, 5, 1, 3, 1, 1});
  cases.push_back({2, 4, 9, 3, 2, 2, 0});
  cases.push_back({1, 5, 5, 3, 3, 1, 2});
  cases.push_back({2, 9, 10, 5, 3, 3, 2});
  return cases;
}

detail::ConvDims lowering_dims(const LoweringCase& lc) {
  detail::ConvDims d{};
  d.n = 1;
  d.c = lc.c;
  d.h = lc.h;
  d.w = lc.w;
  d.o = 1;
  d.kh = lc.kh;
  d.kw = lc.kw;
  d.oh = (lc.h + 2 * lc.pad - lc.kh) / lc.stride + 1;
  d.ow = (lc.w + 2 * lc.pad - lc.kw) / lc.stride + 1;
  return d;
}

TEST(Im2col, BitwiseEqualToBranchyReference) {
  Rng rng(130);
  for (const LoweringCase& lc : lowering_cases()) {
    const detail::ConvDims d = lowering_dims(lc);
    ASSERT_GT(d.oh, 0);
    ASSERT_GT(d.ow, 0);
    const Tensor x = Tensor::randn({lc.c, lc.h, lc.w}, rng);
    const std::int64_t n = lc.c * lc.kh * lc.kw * d.oh * d.ow;
    // Stale contents differ between the two buffers, so every entry must be
    // written, zeros included.
    std::vector<float> want(static_cast<std::size_t>(n), 7.0f), got(want.size(), -3.0f);
    im2col_branchy_ref(x.data(), d, lc.stride, lc.pad, want.data());
    detail::im2col(x.data(), d, lc.stride, lc.pad, got.data());
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * sizeof(float)))
        << "c=" << lc.c << " h=" << lc.h << " w=" << lc.w << " k=" << lc.kh << "x" << lc.kw
        << " stride=" << lc.stride << " pad=" << lc.pad;
  }
}

TEST(Col2im, BitwiseEqualToBranchyReference) {
  Rng rng(131);
  for (const LoweringCase& lc : lowering_cases()) {
    const detail::ConvDims d = lowering_dims(lc);
    const Tensor cols = Tensor::randn({lc.c * lc.kh * lc.kw, d.oh * d.ow}, rng);
    // A nonzero starting dst pins accumulate (not overwrite) and the order of
    // the adds each element receives.
    const Tensor dst0 = Tensor::randn({lc.c, lc.h, lc.w}, rng);
    Tensor want = dst0, got = dst0;
    col2im_accumulate_branchy_ref(cols.data(), d, lc.stride, lc.pad, want.data());
    detail::col2im_accumulate(cols.data(), d, lc.stride, lc.pad, got.data());
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             static_cast<std::size_t>(want.numel()) * sizeof(float)))
        << "c=" << lc.c << " h=" << lc.h << " w=" << lc.w << " k=" << lc.kh << "x" << lc.kw
        << " stride=" << lc.stride << " pad=" << lc.pad;
  }
}

// ---- panels lowered straight from the image ---------------------------------
//
// conv2d never builds the patch matrix: lower_conv_panels writes the forward
// GEMM's Trans::N panels and the dW GEMM's Trans::T panels from the sample.
// Both must be exactly what packing the reference im2col matrix would give.

TEST(ConvLowering, PanelsBitwiseEqualToPackedIm2col) {
  std::vector<LoweringCase> cases = lowering_cases();
  cases.push_back({3, 16, 16, 3, 3, 1, 1});  // ResNet stem: 27 rows, padded to 32
  cases.push_back({16, 9, 9, 3, 3, 1, 1});   // MiniGo tower: 81 columns, a 9x9 board
  cases.push_back({8, 16, 16, 1, 1, 1, 0});  // bottleneck 1x1: rows are the planes
  cases.push_back({16, 8, 8, 1, 1, 2, 0});   // strided 1x1 projection
  cases.push_back({5, 11, 7, 2, 4, 3, 2});   // rectangular kernel, stride 3, pad 2
  cases.push_back({9, 6, 5, 3, 1, 1, 0});    // 27 rows from a 3x1 kernel
  Rng rng(132);
  for (const LoweringCase& lc : cases) {
    const detail::ConvDims d = lowering_dims(lc);
    ASSERT_GT(d.oh, 0);
    ASSERT_GT(d.ow, 0);
    const std::int64_t rows = lc.c * lc.kh * lc.kw, cols = d.oh * d.ow;
    const Tensor x = Tensor::randn({lc.c, lc.h, lc.w}, rng);
    std::vector<float> patch(static_cast<std::size_t>(rows * cols));
    detail::im2col(x.data(), d, lc.stride, lc.pad, patch.data());
    const auto n_size = static_cast<std::size_t>(tensor::gemm_packed_b_size(rows, cols));
    const auto t_size = static_cast<std::size_t>(tensor::gemm_packed_b_size(cols, rows));
    std::vector<float> want_n(n_size), want_t(t_size);
    tensor::gemm_pack_b(tensor::Trans::N, patch.data(), cols, rows, cols, want_n.data());
    tensor::gemm_pack_b(tensor::Trans::T, patch.data(), cols, cols, rows, want_t.data());
    // Stale contents pin that every entry, padding lanes included, is written;
    // each output alone (the other null) is what forward and dW each ask for.
    std::vector<float> both_n(n_size, 7.0f), both_t(t_size, -3.0f);
    std::vector<float> only_n(n_size, -9.0f), only_t(t_size, 5.0f);
    detail::lower_conv_panels(x.data(), d, lc.stride, lc.pad, both_n.data(), both_t.data());
    detail::lower_conv_panels(x.data(), d, lc.stride, lc.pad, only_n.data(), nullptr);
    detail::lower_conv_panels(x.data(), d, lc.stride, lc.pad, nullptr, only_t.data());
    SCOPED_TRACE(::testing::Message() << "c=" << lc.c << " h=" << lc.h << " w=" << lc.w
                                      << " k=" << lc.kh << "x" << lc.kw
                                      << " stride=" << lc.stride << " pad=" << lc.pad);
    EXPECT_EQ(0, std::memcmp(want_n.data(), both_n.data(), n_size * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(want_t.data(), both_t.data(), t_size * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(want_n.data(), only_n.data(), n_size * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(want_t.data(), only_t.data(), t_size * sizeof(float)));
  }
}

// A 1x1, stride-1, unpadded conv folds W^T g_s straight into dX instead of
// into zeroed dcols followed by col2im. Pinned against that path (kept in
// tests/reference) at shapes off every tile size, at 1/2/4/8 threads; the
// strided and padded 1x1 convs still take the general path and are checked
// the same way.
TEST(Conv2d, PointwiseInputGradMatchesCol2imPath) {
  struct Case {
    std::int64_t n, c, o, hw, stride, pad;
  };
  const Case cases[] = {{3, 5, 7, 6, 1, 0}, {2, 16, 8, 9, 1, 0}, {1, 1, 3, 4, 1, 0},
                        {4, 9, 17, 5, 1, 0}, {2, 6, 4, 7, 2, 0}, {2, 3, 5, 4, 1, 1}};
  Rng rng(133);
  for (const Case& cc : cases) {
    const Tensor x = Tensor::randn({cc.n, cc.c, cc.hw, cc.hw}, rng);
    const Tensor w = Tensor::randn({cc.o, cc.c, 1, 1}, rng);
    const detail::ConvDims d{cc.n, cc.c, cc.hw, cc.hw, cc.o, 1, 1,
                             (cc.hw + 2 * cc.pad - 1) / cc.stride + 1,
                             (cc.hw + 2 * cc.pad - 1) / cc.stride + 1};
    const Tensor seed = Tensor::randn({cc.n, cc.o, d.oh, d.ow}, rng);
    Tensor want(x.shape());
    detail::conv2d_dx_via_col2im(w.data(), seed.data(), d, cc.stride, cc.pad, want.data());
    for (int threads : {1, 2, 4, 8}) {
      parallel::set_num_threads(threads);
      Variable vx(x, true);
      Variable y = conv2d(vx, Variable(w, true), Variable(), cc.stride, cc.pad);
      y.backward(seed);
      EXPECT_EQ(0, std::memcmp(want.data(), vx.grad().data(),
                               static_cast<std::size_t>(want.numel()) * sizeof(float)))
          << "n=" << cc.n << " c=" << cc.c << " o=" << cc.o << " hw=" << cc.hw
          << " stride=" << cc.stride << " pad=" << cc.pad << " threads=" << threads;
    }
    parallel::set_num_threads(1);
  }
}

TEST(Conv2d, ShapeErrorsThrow) {
  Rng rng(101);
  Tensor x = Tensor::randn({1, 3, 4, 4}, rng);
  Tensor w_badch = Tensor::randn({2, 4, 3, 3}, rng);
  EXPECT_THROW(conv2d(Variable(x), Variable(w_badch), Variable(), 1, 1),
               std::invalid_argument);
  Tensor w_toolarge = Tensor::randn({2, 3, 7, 7}, rng);
  EXPECT_THROW(conv2d(Variable(x), Variable(w_toolarge), Variable(), 1, 0),
               std::invalid_argument);
}

TEST(Pooling, GlobalAvgPool) {
  Tensor x({2, 3, 2, 2}, 2.0f);
  Variable out = global_avg_pool(Variable(x));
  ASSERT_EQ(out.value().shape(), (Shape{2, 3}));
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(out.value()[i], 2.0f);
}

TEST(Upsample, NearestDoubles) {
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  Variable out = upsample2x(Variable(x));
  ASSERT_EQ(out.value().shape(), (Shape{1, 1, 4, 4}));
  EXPECT_FLOAT_EQ(out.value().at({0, 0, 0, 1}), 1.0f);
  EXPECT_FLOAT_EQ(out.value().at({0, 0, 3, 3}), 4.0f);
}

TEST(Upsample, BackwardSumsQuads) {
  Tensor x({1, 1, 1, 1}, 5.0f);
  Variable vx(x, true);
  autograd::sum_all(upsample2x(vx)).backward();
  EXPECT_FLOAT_EQ(vx.grad()[0], 4.0f);
}

TEST(Linear, ShapesAndBias) {
  Rng rng(5);
  Linear layer(4, 3, rng);
  Variable out = layer.forward(Variable(Tensor({2, 4}, 1.0f)));
  EXPECT_EQ(out.value().shape(), (Shape{2, 3}));
  EXPECT_EQ(layer.parameters().size(), 2u);
  Linear no_bias(4, 3, rng, false);
  EXPECT_EQ(no_bias.parameters().size(), 1u);
}

TEST(BatchNorm, NormalizesTrainingBatch) {
  Rng rng(6);
  BatchNorm2d bn(3);
  Tensor x = Tensor::randn({4, 3, 5, 5}, rng, 2.0f, 3.0f);
  Variable out = bn.forward(Variable(x, true));
  // Per channel: mean ~0, var ~1.
  const std::int64_t hw = 25;
  for (std::int64_t c = 0; c < 3; ++c) {
    double sum = 0.0, sumsq = 0.0;
    for (std::int64_t n = 0; n < 4; ++n)
      for (std::int64_t i = 0; i < hw; ++i) {
        const float v = out.value()[(n * 3 + c) * hw + i];
        sum += v;
        sumsq += static_cast<double>(v) * v;
      }
    const double mean = sum / (4 * hw);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sumsq / (4 * hw) - mean * mean, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsConvergeAndDriveEval) {
  Rng rng(7);
  BatchNorm2d bn(1, 1e-5f, 0.5f);
  for (int it = 0; it < 30; ++it) {
    Tensor x = Tensor::randn({8, 1, 4, 4}, rng, 10.0f, 2.0f);
    bn.forward(Variable(x));
  }
  EXPECT_NEAR(bn.running_mean[0], 10.0f, 0.5f);
  EXPECT_NEAR(bn.running_var[0], 4.0f, 1.0f);
  bn.set_training(false);
  Tensor probe({1, 1, 1, 1}, 10.0f);
  Variable out = bn.forward(Variable(probe));
  EXPECT_NEAR(out.value()[0], 0.0f, 0.3f);
}

TEST(BatchNorm, GradcheckAllInputs) {
  Rng rng(8);
  Tensor x = Tensor::randn({3, 2, 2, 2}, rng);
  const float eps = 1e-2f;
  BatchNorm2d bn(2);
  // Make gamma/beta non-trivial.
  bn.gamma.mutable_value() = Tensor({2}, {1.3f, 0.7f});
  bn.beta.mutable_value() = Tensor({2}, {0.2f, -0.1f});
  Variable vx(x, true);
  autograd::sum_all(autograd::mul(bn.forward(vx), bn.forward(vx))).backward();
  // Numeric check on a few input components (loss = sum(bn(x)^2)).
  auto loss_at = [&](const Tensor& xt) {
    BatchNorm2d bn2(2);
    bn2.gamma.mutable_value() = Tensor({2}, {1.3f, 0.7f});
    bn2.beta.mutable_value() = Tensor({2}, {0.2f, -0.1f});
    Variable o = bn2.forward(Variable(xt));
    return o.value().mul(o.value()).sum();
  };
  for (std::int64_t i = 0; i < x.numel(); i += 5) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (static_cast<double>(loss_at(xp)) - loss_at(xm)) / (2.0 * eps);
    EXPECT_NEAR(vx.grad()[i], numeric, 5e-2) << i;
  }
}

TEST(LayerNorm, NormalizesRows) {
  Rng rng(9);
  LayerNorm ln(6);
  Tensor x = Tensor::randn({4, 6}, rng, 3.0f, 2.0f);
  Variable out = ln.forward(Variable(x));
  for (std::int64_t r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (std::int64_t j = 0; j < 6; ++j) sum += out.value()[r * 6 + j];
    EXPECT_NEAR(sum / 6.0, 0.0, 1e-4);
  }
}

TEST(LayerNorm, GradcheckInput) {
  Rng rng(10);
  Tensor x = Tensor::randn({2, 4}, rng);
  const float eps = 1e-2f;
  LayerNorm ln(4);
  Variable vx(x, true);
  Variable out = ln.forward(vx);
  autograd::sum_all(autograd::mul(out, out)).backward();
  auto loss_at = [&](const Tensor& xt) {
    LayerNorm ln2(4);
    Variable o = ln2.forward(Variable(xt));
    return o.value().mul(o.value()).sum();
  };
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (static_cast<double>(loss_at(xp)) - loss_at(xm)) / (2.0 * eps);
    EXPECT_NEAR(vx.grad()[i], numeric, 5e-2) << i;
  }
}

TEST(Losses, CrossEntropyMatchesManual) {
  Tensor logits({2, 3}, {1.0f, 2.0f, 0.5f, 0.0f, 0.0f, 0.0f});
  Variable v(logits, true);
  Variable loss = cross_entropy(v, {1, 2});
  // Manual: -log softmax values.
  const Tensor logp = logits.log_softmax_last();
  const float expected = -(logp[1] + logp[5]) / 2.0f;
  EXPECT_NEAR(loss.value()[0], expected, 1e-5);
  loss.backward();
  // Gradient rows sum to zero (softmax - onehot scaled).
  EXPECT_NEAR(v.grad()[0] + v.grad()[1] + v.grad()[2], 0.0f, 1e-5);
}

TEST(Losses, WeightedCrossEntropyIgnoresZeroWeight) {
  Tensor logits({2, 2}, {5.0f, 0.0f, 0.0f, 5.0f});
  Variable v(logits, true);
  Variable loss = weighted_cross_entropy(v, {1, 0}, {1.0f, 0.0f});
  loss.backward();
  EXPECT_EQ(v.grad()[2], 0.0f);
  EXPECT_EQ(v.grad()[3], 0.0f);
  EXPECT_NE(v.grad()[0], 0.0f);
}

TEST(Losses, CrossEntropyTargetOutOfRangeThrows) {
  Variable v(Tensor({1, 2}), true);
  EXPECT_THROW(cross_entropy(v, {2}), std::out_of_range);
}

TEST(Losses, SmoothedCrossEntropyReducesToPlainAtZero) {
  Rng rng(20);
  Tensor logits = Tensor::randn({3, 4}, rng);
  Variable a(logits, true), b(logits, true);
  Variable plain = cross_entropy(a, {1, 0, 3});
  Variable smoothed = smoothed_cross_entropy(b, {1, 0, 3}, 0.0f);
  EXPECT_NEAR(plain.value()[0], smoothed.value()[0], 1e-6);
  plain.backward();
  smoothed.backward();
  for (std::int64_t i = 0; i < logits.numel(); ++i)
    EXPECT_NEAR(a.grad()[i], b.grad()[i], 1e-6) << i;
}

TEST(Losses, SmoothedCrossEntropyPenalizesOverconfidence) {
  // With smoothing, an extremely confident correct prediction still has loss
  // above the entropy floor, and its gradient pushes mass to other classes.
  Tensor confident({1, 3}, {50.0f, 0.0f, 0.0f});
  Variable v(confident, true);
  Variable loss = smoothed_cross_entropy(v, {0}, 0.2f);
  EXPECT_GT(loss.value()[0], 1.0f);  // ~ eps * 50-ish logit gap
  loss.backward();
  EXPECT_GT(v.grad()[0], 0.0f);   // pull the winning logit DOWN
  EXPECT_LT(v.grad()[1], 0.0f);   // push others up
}

TEST(Losses, SmoothedCrossEntropyGradcheck) {
  Rng rng(21);
  Tensor logits = Tensor::randn({2, 3}, rng);
  const float eps = 1e-2f;
  Variable v(logits, true);
  smoothed_cross_entropy(v, {2, 1}, 0.1f).backward();
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const float up = smoothed_cross_entropy(Variable(lp), {2, 1}, 0.1f).value()[0];
    const float dn = smoothed_cross_entropy(Variable(lm), {2, 1}, 0.1f).value()[0];
    EXPECT_NEAR(v.grad()[i], (up - dn) / (2 * eps), 2e-3) << i;
  }
}

TEST(Losses, SmoothedCrossEntropyBadArgsThrow) {
  Variable v(Tensor({1, 2}), true);
  EXPECT_THROW(smoothed_cross_entropy(v, {0}, 1.0f), std::invalid_argument);
  EXPECT_THROW(smoothed_cross_entropy(v, {0}, -0.1f), std::invalid_argument);
  EXPECT_THROW(smoothed_cross_entropy(v, {5}, 0.1f), std::out_of_range);
}

TEST(Losses, BceWithLogitsMatchesManualAndIsStable) {
  Tensor logits({3}, {0.0f, 100.0f, -100.0f});
  Variable v(logits, true);
  Variable loss = bce_with_logits(v, {1.0f, 1.0f, 0.0f});
  // -log(0.5)/3 + ~0 + ~0
  EXPECT_NEAR(loss.value()[0], std::log(2.0f) / 3.0f, 1e-4);
  EXPECT_TRUE(loss.value().all_finite());
  loss.backward();
  EXPECT_TRUE(v.grad().all_finite());
  EXPECT_LT(v.grad()[0], 0.0f);  // push logit up toward target 1
}

TEST(Losses, SmoothL1QuadraticAndLinearRegimes) {
  Tensor pred({2, 1}, {0.5f, 3.0f});
  Tensor target({2, 1}, {0.0f, 0.0f});
  Variable v(pred, true);
  Variable loss = smooth_l1(v, target, {1.0f, 1.0f});
  // (0.5*0.25 + (3 - 0.5)) / 2
  EXPECT_NEAR(loss.value()[0], (0.125f + 2.5f) / 2.0f, 1e-5);
  loss.backward();
  EXPECT_NEAR(v.grad()[0], 0.5f / 2.0f, 1e-5);  // quadratic: d = 0.5
  EXPECT_NEAR(v.grad()[1], 1.0f / 2.0f, 1e-5);  // linear: sign = +1
}

TEST(Losses, MseValueAndGrad) {
  Tensor pred({2}, {1.0f, 3.0f});
  Tensor target({2}, {0.0f, 0.0f});
  Variable v(pred, true);
  Variable loss = mse(v, target);
  EXPECT_NEAR(loss.value()[0], (1.0f + 9.0f) / 2.0f, 1e-5);
  loss.backward();
  EXPECT_NEAR(v.grad()[0], 1.0f, 1e-5);
  EXPECT_NEAR(v.grad()[1], 3.0f, 1e-5);
}

TEST(Attention, OutputShapeAndGradFlow) {
  Rng rng(11);
  MultiHeadAttention mha(8, 2, rng);
  Variable x(Tensor::randn({2, 3, 8}, rng), true);
  Variable out = mha.forward(x, x, x);
  EXPECT_EQ(out.value().shape(), (Shape{2, 3, 8}));
  autograd::sum_all(out).backward();
  EXPECT_GT(x.grad().l2_norm_sq(), 0.0f);
  for (const auto& p : mha.parameters()) EXPECT_GT(p.grad().l2_norm_sq(), 0.0f);
}

TEST(Attention, CausalMaskBlocksFuture) {
  Rng rng(12);
  MultiHeadAttention mha(4, 1, rng);
  // Two inputs identical in the first position, different later: causal
  // attention output at position 0 must be identical.
  Tensor a = Tensor::randn({1, 3, 4}, rng);
  Tensor b = a;
  for (std::int64_t i = 4; i < 12; ++i) b[i] += 1.0f;  // change positions 1..2
  Variable oa = mha.forward(Variable(a), Variable(a), Variable(a), /*causal=*/true);
  Variable ob = mha.forward(Variable(b), Variable(b), Variable(b), /*causal=*/true);
  for (std::int64_t j = 0; j < 4; ++j)
    EXPECT_NEAR(oa.value()[j], ob.value()[j], 1e-5) << j;
}

TEST(Attention, NonCausalSeesEverything) {
  Rng rng(13);
  MultiHeadAttention mha(4, 1, rng);
  Tensor a = Tensor::randn({1, 3, 4}, rng);
  Tensor b = a;
  for (std::int64_t i = 4; i < 12; ++i) b[i] += 1.0f;
  Variable oa = mha.forward(Variable(a), Variable(a), Variable(a), false);
  Variable ob = mha.forward(Variable(b), Variable(b), Variable(b), false);
  float diff = 0.0f;
  for (std::int64_t j = 0; j < 4; ++j) diff += std::fabs(oa.value()[j] - ob.value()[j]);
  EXPECT_GT(diff, 1e-4f);
}

TEST(Lstm, CellShapesAndStateEvolution) {
  Rng rng(14);
  LSTMCell cell(3, 5, rng);
  auto state = cell.zero_state(2);
  Variable x(Tensor::randn({2, 3}, rng));
  auto next = cell.forward(x, state);
  EXPECT_EQ(next.h.value().shape(), (Shape{2, 5}));
  EXPECT_EQ(next.c.value().shape(), (Shape{2, 5}));
  EXPECT_GT(next.h.value().l2_norm_sq(), 0.0f);
}

TEST(Lstm, MultiLayerSequenceAndGradFlow) {
  Rng rng(15);
  LSTM lstm(3, 4, 2, rng);
  std::vector<Variable> xs;
  for (int t = 0; t < 4; ++t) xs.emplace_back(Tensor::randn({2, 3}, rng), true);
  auto out = lstm.forward(xs);
  EXPECT_EQ(out.hiddens.size(), 4u);
  EXPECT_EQ(out.final_states.size(), 2u);
  autograd::sum_all(out.hiddens.back()).backward();
  EXPECT_GT(xs[0].grad().l2_norm_sq(), 0.0f);  // BPTT reaches the first step
}

TEST(Module, ParameterRegistryAndNames) {
  Rng rng(16);
  MultiHeadAttention mha(8, 2, rng);
  const auto named = mha.named_parameters();
  EXPECT_EQ(named.size(), 8u);  // 4 linears x (weight, bias)
  bool found = false;
  for (const auto& [name, v] : named)
    if (name == "wq.weight") found = true;
  EXPECT_TRUE(found);
  std::int64_t count = 0;
  for (const auto& [name, v] : named) count += v.numel();
  EXPECT_EQ(count, 4 * (8 * 8 + 8));
}

TEST(Module, ZeroGradClearsAll) {
  Rng rng(17);
  Linear l(3, 3, rng);
  Variable out = autograd::sum_all(l.forward(Variable(Tensor({1, 3}, 1.0f))));
  out.backward();
  EXPECT_GT(l.weight.grad().l2_norm_sq(), 0.0f);
  l.zero_grad();
  EXPECT_EQ(l.weight.grad().l2_norm_sq(), 0.0f);
}


// ---- fused_scaled_softmax ---------------------------------------------------

namespace fused_softmax_detail {

void expect_same_bits(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << what;
}

}  // namespace fused_softmax_detail

// The fused op's contract is 0 ULP against the chain it replaced in
// attention: mul_scalar -> add(mask) -> softmax_last, forward AND backward,
// at any thread count.
TEST(FusedScaledSoftmax, BitwiseIdenticalToUnfusedChain) {
  using fused_softmax_detail::expect_same_bits;
  Rng rng(61);
  const std::int64_t b = 3, t = 7;
  const Tensor scores = Tensor::randn({b, t, t}, rng);
  const float scale = 1.0f / std::sqrt(5.0f);
  Tensor mask = Tensor::uninitialized({t, t});
  for (std::int64_t i = 0; i < t; ++i)
    for (std::int64_t j = 0; j < t; ++j) mask[i * t + j] = j > i ? -1e9f : 0.0f;
  const Tensor seed = Tensor::randn({b, t, t}, rng);

  for (int threads : {1, 2, 4, 8}) {
    parallel::set_num_threads(threads);
    for (bool masked : {false, true}) {
      Variable s1(scores, true);
      Variable fused =
          fused_scaled_softmax(s1, scale, masked ? mask : Tensor());
      fused.backward(seed);

      Variable s2(scores, true);
      Variable chain = autograd::mul_scalar(s2, scale);
      if (masked) chain = autograd::add(chain, Variable(mask));
      chain = autograd::softmax_last(chain);
      chain.backward(seed);

      expect_same_bits(fused.value(), chain.value(), masked ? "fwd masked" : "fwd");
      expect_same_bits(s1.grad(), s2.grad(), masked ? "bwd masked" : "bwd");
    }
  }
  parallel::set_num_threads(1);
}

TEST(FusedScaledSoftmax, RowsSumToOneAndMaskZeroes) {
  Rng rng(62);
  const std::int64_t t = 6;
  const Tensor scores = Tensor::randn({2, t, t}, rng);
  Tensor mask = Tensor::uninitialized({t, t});
  for (std::int64_t i = 0; i < t; ++i)
    for (std::int64_t j = 0; j < t; ++j) mask[i * t + j] = j > i ? -1e9f : 0.0f;
  Variable y = fused_scaled_softmax(Variable(scores), 0.5f, mask);
  for (std::int64_t r = 0; r < 2 * t; ++r) {
    double sum = 0.0;
    for (std::int64_t j = 0; j < t; ++j) sum += y.value()[r * t + j];
    EXPECT_NEAR(1.0, sum, 1e-5) << "row " << r;
    const std::int64_t i = r % t;
    for (std::int64_t j = i + 1; j < t; ++j)
      EXPECT_NEAR(0.0f, y.value()[r * t + j], 1e-12f) << "masked entry leaked";
  }
}

TEST(FusedScaledSoftmax, BadMaskShapeThrows) {
  Rng rng(63);
  const Tensor scores = Tensor::randn({2, 4, 4}, rng);
  EXPECT_THROW(fused_scaled_softmax(Variable(scores), 1.0f, Tensor({4, 5})),
               std::invalid_argument);
  EXPECT_THROW(fused_scaled_softmax(Variable(scores), 1.0f, Tensor({3, 4})),
               std::invalid_argument);
}

// The conv bias gradient is now a channel-parallel reduction; pin that the
// result is bitwise the sequential sample-outer loop at any thread count.
TEST(Conv2d, BiasGradBitwiseAcrossThreadCounts) {
  Rng rng(64);
  const Tensor x = Tensor::randn({3, 2, 9, 9}, rng);
  const Tensor wt = Tensor::randn({5, 2, 3, 3}, rng);
  const Tensor bt = Tensor::randn({5}, rng);
  auto bias_grad = [&](int threads) {
    parallel::set_num_threads(threads);
    Variable w(wt, true), bias(bt, true);
    Variable y = conv2d(Variable(x), w, bias, 1, 1);
    autograd::sum_all(autograd::mul(y, y)).backward();
    Tensor g = bias.grad();
    parallel::set_num_threads(1);
    return g;
  };
  const Tensor want = bias_grad(1);
  // The pre-PR5 sequential loop, s-outer / o-inner, for reference.
  Variable w(wt, true), bias(bt, true);
  Variable y = conv2d(Variable(x), w, bias, 1, 1);
  const Tensor g_out = [&] {
    Variable loss = autograd::sum_all(autograd::mul(y, y));
    loss.backward();
    return bias.grad();
  }();
  fused_softmax_detail::expect_same_bits(want, g_out, "bias grad self-check");
  for (int threads : {2, 4, 8})
    fused_softmax_detail::expect_same_bits(want, bias_grad(threads), "bias grad threaded");
}


// ---- BatchNorm2d vs. the per-channel reference ------------------------------

// The BatchNorm2d forward and backward as they were before the channel folds
// were interleaved: each channel's mean, variance, dgamma and dbeta is one
// double add chain over samples b, then positions i. Running stats are
// updated in place in train mode, as the layer does.
struct BatchNormRef {
  Tensor out, dx, dgamma, dbeta;
};

BatchNormRef batchnorm_per_channel_ref(const Tensor& xv, const Tensor& gamma, const Tensor& beta,
                                       Tensor& running_mean, Tensor& running_var, float eps,
                                       float momentum, bool train, const Tensor& g) {
  const std::int64_t n = xv.shape()[0], c = xv.shape()[1], hw = xv.shape()[2] * xv.shape()[3];
  const std::int64_t m = n * hw;
  Tensor mean({c}), var({c});
  if (train) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      double s = 0.0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* p = xv.data() + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) s += p[i];
      }
      mean[ch] = static_cast<float>(s / static_cast<double>(m));
      double v = 0.0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* p = xv.data() + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          const double d = p[i] - mean[ch];
          v += d * d;
        }
      }
      var[ch] = static_cast<float>(v / static_cast<double>(m));
    }
    for (std::int64_t ch = 0; ch < c; ++ch) {
      running_mean[ch] = momentum * running_mean[ch] + (1.0f - momentum) * mean[ch];
      running_var[ch] = momentum * running_var[ch] + (1.0f - momentum) * var[ch];
    }
  } else {
    mean = running_mean;
    var = running_var;
  }
  Tensor inv_std({c});
  for (std::int64_t ch = 0; ch < c; ++ch) inv_std[ch] = 1.0f / std::sqrt(var[ch] + eps);
  Tensor xhat(xv.shape());
  BatchNormRef r{Tensor(xv.shape()), Tensor(xv.shape()), Tensor({c}), Tensor({c})};
  for (std::int64_t b = 0; b < n; ++b)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float mu = mean[ch], is = inv_std[ch];
      const float ga = gamma[ch], be = beta[ch];
      const float* src = xv.data() + (b * c + ch) * hw;
      float* xh = xhat.data() + (b * c + ch) * hw;
      float* dst = r.out.data() + (b * c + ch) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        xh[i] = (src[i] - mu) * is;
        dst[i] = ga * xh[i] + be;
      }
    }
  for (std::int64_t b = 0; b < n; ++b)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* gp = g.data() + (b * c + ch) * hw;
      const float* xh = xhat.data() + (b * c + ch) * hw;
      double dg = 0.0, db = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) {
        dg += static_cast<double>(gp[i]) * xh[i];
        db += gp[i];
      }
      r.dgamma[ch] += static_cast<float>(dg);
      r.dbeta[ch] += static_cast<float>(db);
    }
  const float inv_m = 1.0f / static_cast<float>(m);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float ga = gamma[ch], is = inv_std[ch];
    const float sum_dxhat = r.dbeta[ch] * ga;
    const float sum_dxhat_xhat = r.dgamma[ch] * ga;
    for (std::int64_t b = 0; b < n; ++b) {
      const float* gp = g.data() + (b * c + ch) * hw;
      const float* xh = xhat.data() + (b * c + ch) * hw;
      float* dp = r.dx.data() + (b * c + ch) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        const float dxhat = gp[i] * ga;
        if (train) {
          dp[i] = is * (dxhat - inv_m * sum_dxhat - xh[i] * inv_m * sum_dxhat_xhat);
        } else {
          dp[i] = is * dxhat;
        }
      }
    }
  }
  // A leaf's first gradient is stored as 0.0f + g (see Node::accumulate_grad).
  for (std::int64_t i = 0; i < r.dx.numel(); ++i) r.dx[i] = 0.0f + r.dx[i];
  return r;
}

// Channel counts below, at, between and above the interleave width, so the
// full blocks and the one-channel remainder both run; odd H*W and batch 1
// and 3. Train and eval, and eval forward under a NoGradGuard (no xhat).
TEST(BatchNorm, BitwiseEqualToPerChannelReference) {
  using fused_softmax_detail::expect_same_bits;
  Rng rng(140);
  for (std::int64_t c : {1, 2, 3, 8, 9, 17})
    for (std::int64_t n : {1, 3})
      for (bool train : {true, false}) {
        const std::string what = "c=" + std::to_string(c) + " n=" + std::to_string(n) +
                                 (train ? " train" : " eval");
        SCOPED_TRACE(what);
        const Tensor x = Tensor::randn({n, c, 3, 5}, rng, 0.5f, 2.0f);
        const Tensor g = Tensor::randn(x.shape(), rng);
        BatchNorm2d bn(c, 1e-5f, 0.8f);
        bn.gamma.mutable_value() = Tensor::randn({c}, rng, 1.0f, 0.3f);
        bn.beta.mutable_value() = Tensor::randn({c}, rng);
        bn.running_mean = Tensor::randn({c}, rng);
        bn.running_var = Tensor::rand({c}, rng, 0.5f, 2.0f);
        Tensor ref_mean = bn.running_mean, ref_var = bn.running_var;
        const BatchNormRef want =
            batchnorm_per_channel_ref(x, bn.gamma.value(), bn.beta.value(), ref_mean, ref_var,
                                      bn.eps, bn.momentum, train, g);
        bn.set_training(train);
        if (!train) {
          autograd::NoGradGuard no_grad;
          Variable y = bn.forward(Variable(x, true));
          EXPECT_FALSE(y.requires_grad());
          expect_same_bits(want.out, y.value(), "forward under NoGradGuard");
        }
        Variable vx(x, true);
        Variable y = bn.forward(vx);
        y.backward(g);
        expect_same_bits(want.out, y.value(), "forward");
        expect_same_bits(ref_mean, bn.running_mean, "running_mean");
        expect_same_bits(ref_var, bn.running_var, "running_var");
        expect_same_bits(want.dx, vx.grad(), "dx");
        expect_same_bits(want.dgamma, bn.gamma.grad(), "dgamma");
        expect_same_bits(want.dbeta, bn.beta.grad(), "dbeta");
      }
}

}  // namespace
}  // namespace mlperf::nn
