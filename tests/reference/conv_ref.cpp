#include "reference/conv_ref.h"

#include <algorithm>
#include <vector>

#include "tensor/gemm.h"

namespace mlperf::nn::detail {

namespace {

// The output positions [lo, hi) of an n_out-long output axis whose input
// coordinate o*stride + offset lies inside [0, extent).
struct ValidRange {
  std::int64_t lo, hi;
};

ValidRange valid_range(std::int64_t n_out, std::int64_t stride, std::int64_t offset,
                       std::int64_t extent) {
  const std::int64_t lo = std::min(n_out, offset >= 0 ? 0 : (stride - 1 - offset) / stride);
  const std::int64_t hi = extent <= offset ? 0 : (extent - offset + stride - 1) / stride;
  return {lo, std::clamp(hi, lo, n_out)};
}

}  // namespace

void im2col(const float* src, const ConvDims& d, std::int64_t stride, std::int64_t padding,
            float* cols) {
  const std::int64_t patch = d.kh * d.kw;
  for (std::int64_t c = 0; c < d.c; ++c) {
    for (std::int64_t p = 0; p < patch; ++p) {
      const std::int64_t ki = p / d.kw, kj = p % d.kw;
      float* row = cols + (c * patch + p) * (d.oh * d.ow);
      const ValidRange ro = valid_range(d.oh, stride, ki - padding, d.h);
      const ValidRange co = valid_range(d.ow, stride, kj - padding, d.w);
      std::fill(row, row + ro.lo * d.ow, 0.0f);
      for (std::int64_t oi = ro.lo; oi < ro.hi; ++oi) {
        float* out = row + oi * d.ow;
        // Input index of output column oj is base + oj*stride (>= 0 inside co).
        const std::int64_t base = (c * d.h + oi * stride - padding + ki) * d.w + kj - padding;
        std::fill(out, out + co.lo, 0.0f);
        if (stride == 1) {
          std::copy(src + base + co.lo, src + base + co.hi, out + co.lo);
        } else {
          for (std::int64_t oj = co.lo; oj < co.hi; ++oj) out[oj] = src[base + oj * stride];
        }
        std::fill(out + co.hi, out + d.ow, 0.0f);
      }
      std::fill(row + ro.hi * d.ow, row + d.oh * d.ow, 0.0f);
    }
  }
}

void conv2d_dx_via_col2im(const float* w, const float* g, const ConvDims& d, std::int64_t stride,
                          std::int64_t padding, float* dx) {
  const std::int64_t col_rows = d.c * d.kh * d.kw;
  const std::int64_t col_cols = d.oh * d.ow;
  std::vector<float> dcols(static_cast<std::size_t>(col_rows * col_cols));
  for (std::int64_t s = 0; s < d.n; ++s) {
    std::fill(dcols.begin(), dcols.end(), 0.0f);
    tensor::gemm_accumulate(tensor::Trans::T, tensor::Trans::N, col_rows, col_cols, d.o, w,
                            col_rows, g + s * d.o * col_cols, col_cols, dcols.data(), col_cols);
    col2im_accumulate(dcols.data(), d, stride, padding, dx + s * d.c * d.h * d.w);
  }
}

}  // namespace mlperf::nn::detail
