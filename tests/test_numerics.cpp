#include "numerics/format.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace mlperf::numerics {
namespace {

using tensor::Tensor;

TEST(Fp16, ExactSmallValuesRoundTrip) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -3.25f, 1024.0f, 65504.0f}) {
    EXPECT_EQ(half_bits_to_float(float_to_half_bits(v)), v) << v;
  }
}

TEST(Fp16, KnownBitPatterns) {
  EXPECT_EQ(float_to_half_bits(1.0f), 0x3C00);
  EXPECT_EQ(float_to_half_bits(-2.0f), 0xC000);
  EXPECT_EQ(float_to_half_bits(0.0f), 0x0000);
  EXPECT_EQ(float_to_half_bits(65504.0f), 0x7BFF);  // max normal half
}

TEST(Fp16, OverflowSaturatesToInf) {
  EXPECT_EQ(float_to_half_bits(1e6f), 0x7C00);
  EXPECT_TRUE(std::isinf(half_bits_to_float(0x7C00)));
}

TEST(Fp16, SubnormalsRepresented) {
  const float tiny = 1e-5f;  // below half's min normal (6.1e-5)
  const float rt = half_bits_to_float(float_to_half_bits(tiny));
  EXPECT_GT(rt, 0.0f);
  EXPECT_NEAR(rt, tiny, 1e-6f);
}

TEST(Fp16, UnderflowToZero) {
  EXPECT_EQ(half_bits_to_float(float_to_half_bits(1e-12f)), 0.0f);
}

TEST(Fp16, NanPreserved) {
  EXPECT_TRUE(std::isnan(half_bits_to_float(float_to_half_bits(std::nanf("")))));
}

TEST(Fp16, RoundingIsNearest) {
  // 1 + 2^-11 rounds to 1 (half has 10 mantissa bits => ulp(1) = 2^-10).
  const float v = 1.0f + std::ldexp(1.0f, -12);
  EXPECT_EQ(half_bits_to_float(float_to_half_bits(v)), 1.0f);
  // 1 + 2^-10 is exactly representable.
  const float v2 = 1.0f + std::ldexp(1.0f, -10);
  EXPECT_EQ(half_bits_to_float(float_to_half_bits(v2)), v2);
}

TEST(Bf16, ExactValuesRoundTrip) {
  for (float v : {0.0f, 1.0f, -2.0f, 0.5f, 128.0f}) {
    EXPECT_EQ(bf16_bits_to_float(float_to_bf16_bits(v)), v) << v;
  }
}

TEST(Bf16, PreservesFloatRange) {
  // bf16 has float32's exponent: huge values survive (coarsely).
  const float v = 1e30f;
  const float rt = bf16_bits_to_float(float_to_bf16_bits(v));
  EXPECT_NEAR(rt / v, 1.0f, 0.01f);
}

TEST(Bf16, CoarserThanFp16Near1) {
  // bf16 ulp(1) = 2^-7; 1 + 2^-9 rounds back to 1.
  const float v = 1.0f + std::ldexp(1.0f, -9);
  EXPECT_EQ(bf16_bits_to_float(float_to_bf16_bits(v)), 1.0f);
}

TEST(Fp8E4M3, BasicValues) {
  EXPECT_EQ(fp8_e4m3_bits_to_float(float_to_fp8_e4m3_bits(1.0f)), 1.0f);
  EXPECT_EQ(fp8_e4m3_bits_to_float(float_to_fp8_e4m3_bits(-2.0f)), -2.0f);
  EXPECT_EQ(fp8_e4m3_bits_to_float(float_to_fp8_e4m3_bits(0.0f)), 0.0f);
  EXPECT_EQ(fp8_e4m3_bits_to_float(float_to_fp8_e4m3_bits(448.0f)), 448.0f);
}

TEST(Fp8E4M3, SaturatesAtMax) {
  EXPECT_EQ(fp8_e4m3_bits_to_float(float_to_fp8_e4m3_bits(1e9f)), 448.0f);
  EXPECT_EQ(fp8_e4m3_bits_to_float(float_to_fp8_e4m3_bits(-1e9f)), -448.0f);
}

TEST(Fp8E4M3, VeryCoarseNear1) {
  // ulp(1) in e4m3 = 1/8.
  const float v = 1.05f;
  const float rt = fp8_e4m3_bits_to_float(float_to_fp8_e4m3_bits(v));
  EXPECT_NEAR(rt, 1.0f, 0.0626f);
}

TEST(Fp8E4M3, RelativeErrorBounded) {
  for (float v = 0.02f; v < 400.0f; v *= 1.37f) {
    const float rt = fp8_e4m3_bits_to_float(float_to_fp8_e4m3_bits(v));
    EXPECT_NEAR(rt / v, 1.0f, 0.07f) << v;  // 3 mantissa bits => <= ~6.25%
  }
}

TEST(QuantizeValue, Fp32IsIdentity) {
  EXPECT_EQ(quantize_value(0.123456789f, Format::kFP32), 0.123456789f);
}

TEST(QuantizeTensor, TernaryProducesThreeLevels) {
  tensor::Rng rng(1);
  Tensor t = Tensor::randn({100}, rng);
  Tensor q = quantize_tensor(t, Format::kTernary);
  float pos = 0.0f;
  for (std::int64_t i = 0; i < q.numel(); ++i)
    if (q[i] > 0.0f) pos = q[i];  // the (single) positive level
  ASSERT_GT(pos, 0.0f);
  bool has_zero = false, has_neg = false;
  for (std::int64_t i = 0; i < q.numel(); ++i) {
    if (q[i] == 0.0f) {
      has_zero = true;
    } else if (q[i] > 0.0f) {
      EXPECT_EQ(q[i], pos);  // single positive level
    } else {
      has_neg = true;
      EXPECT_EQ(q[i], -pos);
    }
  }
  EXPECT_TRUE(has_zero && has_neg);
}

TEST(QuantizeTensor, TernaryPreservesSign) {
  Tensor t({4}, {1.0f, -1.0f, 0.01f, -0.01f});
  Tensor q = quantize_tensor(t, Format::kTernary);
  EXPECT_GT(q[0], 0.0f);
  EXPECT_LT(q[1], 0.0f);
  EXPECT_EQ(q[2], 0.0f);  // below delta
  EXPECT_EQ(q[3], 0.0f);
}

TEST(QuantizeTensor, ErrorOrderingMatchesPrecision) {
  // The Figure-1 premise: quantization error grows fp32 < bf16-ish formats
  // < fp8 < ternary on generic weights.
  tensor::Rng rng(2);
  Tensor t = Tensor::randn({512}, rng, 0.0f, 0.2f);
  auto err = [&](Format f) {
    Tensor q = quantize_tensor(t, f);
    double e = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i)
      e += std::fabs(static_cast<double>(q[i]) - t[i]);
    return e;
  };
  const double e_fp32 = err(Format::kFP32);
  const double e_fp16 = err(Format::kFP16);
  const double e_fp8 = err(Format::kFP8E4M3);
  const double e_ternary = err(Format::kTernary);
  EXPECT_EQ(e_fp32, 0.0);
  EXPECT_LT(e_fp16, e_fp8);
  EXPECT_LT(e_fp8, e_ternary);
}

TEST(QuantizeTensor, ToStringNames) {
  EXPECT_EQ(to_string(Format::kFP32), "fp32");
  EXPECT_EQ(to_string(Format::kFP16), "fp16");
  EXPECT_EQ(to_string(Format::kBF16), "bf16");
  EXPECT_EQ(to_string(Format::kFP8E4M3), "fp8_e4m3");
  EXPECT_EQ(to_string(Format::kTernary), "ternary");
}

// Property: round-trip through each format is idempotent (quantizing a
// quantized tensor changes nothing).
class IdempotenceTest : public ::testing::TestWithParam<Format> {};

TEST_P(IdempotenceTest, QuantizeTwiceEqualsOnce) {
  tensor::Rng rng(3);
  Tensor t = Tensor::randn({256}, rng);
  Tensor q1 = quantize_tensor(t, GetParam());
  Tensor q2 = quantize_tensor(q1, GetParam());
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(q1[i], q2[i]);
}

INSTANTIATE_TEST_SUITE_P(Formats, IdempotenceTest,
                         ::testing::Values(Format::kFP32, Format::kFP16, Format::kBF16,
                                           Format::kFP8E4M3, Format::kTernary));

}  // namespace
}  // namespace mlperf::numerics
