#pragma once

#include <cstdint>
#include <string>

#include "tensor/tensor.h"

namespace mlperf::numerics {

/// Software-emulated numeric formats.
///
/// The paper's Figure 1 (after Zhu et al. 2016) shows AlexNet/ImageNet
/// validation-error curves under different weight representations: curves
/// only separate after tens of epochs and some formats never reach the fp32
/// error floor. We reproduce that study by emulating reduced precision in
/// software: values are stored and computed in float32, but quantized through
/// the target format at configurable points in the training loop.
enum class Format {
  kFP32,      ///< IEEE binary32 (identity; the baseline).
  kFP16,      ///< IEEE binary16, round-to-nearest-even.
  kBF16,      ///< bfloat16 (8-bit exponent, 7-bit mantissa), round-to-nearest-even.
  kFP8E4M3,   ///< 8-bit float, 4-bit exponent (bias 7), 3-bit mantissa.
  kTernary,   ///< Trained-ternary-style {-s, 0, +s} with per-tensor scale.
};

std::string to_string(Format f);

/// Round a single value through the format (identity for kFP32/kTernary —
/// ternary is inherently a per-tensor operation, see quantize_tensor).
float quantize_value(float v, Format f);

/// Quantize a whole tensor through the format. For kTernary this implements
/// a TWN-style rule: delta = 0.7 * mean|w|; w -> sign(w) * E[|w| : |w|>delta]
/// for |w| > delta, else 0.
tensor::Tensor quantize_tensor(const tensor::Tensor& t, Format f);

// Low-level converters, exposed for tests.
std::uint16_t float_to_half_bits(float v);
float half_bits_to_float(std::uint16_t h);
std::uint16_t float_to_bf16_bits(float v);
float bf16_bits_to_float(std::uint16_t b);
std::uint8_t float_to_fp8_e4m3_bits(float v);
float fp8_e4m3_bits_to_float(std::uint8_t b);

}  // namespace mlperf::numerics
