#pragma once

#include <cstdint>

#include "nn/functional.h"

namespace mlperf::nn::detail {

/// conv2d's former lowering of one sample [c, h, w] to its patch matrix
/// cols [c*kh*kw, oh*ow]; taps that fall in the zero padding read 0. Each
/// (channel, ki, kj) row computes its in-bounds output range once, zero-fills
/// the borders and copies the interior. conv2d now writes GEMM panels
/// straight from the image (lower_conv_panels); the panels must equal
/// gemm_pack_b of this matrix bit for bit.
void im2col(const float* src, const ConvDims& d, std::int64_t stride, std::int64_t padding,
            float* cols);

/// conv2d's general input-gradient path for the whole batch: per sample,
/// dcols = W^T g_s into a zeroed patch matrix, then col2im_accumulate onto
/// dx (which the caller zero-fills). The 1x1, stride-1, unpadded fast path
/// that folds W^T g_s straight into dx must match it bit for bit.
void conv2d_dx_via_col2im(const float* w, const float* g, const ConvDims& d, std::int64_t stride,
                          std::int64_t padding, float* dx);

}  // namespace mlperf::nn::detail
