#include "data/augment.h"

#include <algorithm>
#include <stdexcept>

namespace mlperf::data {

using tensor::Rng;
using tensor::Tensor;

Tensor RandomCrop::apply(const Tensor& img, Rng& rng) const {
  if (img.ndim() != 3) throw std::invalid_argument("RandomCrop: expects CHW");
  const std::int64_t c = img.shape()[0], h = img.shape()[1], w = img.shape()[2];
  const std::int64_t oi = static_cast<std::int64_t>(rng.randint(static_cast<std::uint64_t>(2 * pad_ + 1)));
  const std::int64_t oj = static_cast<std::int64_t>(rng.randint(static_cast<std::uint64_t>(2 * pad_ + 1)));
  // Output pixel (i, j) reads source (i + oi - pad, j + oj - pad); the rows
  // and columns whose source lies inside the image are [i_lo, i_hi) and
  // [j_lo, j_hi). Everything else is the zero padding.
  const std::int64_t di = oi - pad_, dj = oj - pad_;
  const std::int64_t i_lo = std::clamp<std::int64_t>(-di, 0, h);
  const std::int64_t i_hi = std::clamp<std::int64_t>(h - di, i_lo, h);
  const std::int64_t j_lo = std::clamp<std::int64_t>(-dj, 0, w);
  const std::int64_t j_hi = std::clamp<std::int64_t>(w - dj, j_lo, w);
  Tensor out = Tensor::uninitialized({c, h, w});  // every element written below
  for (std::int64_t ch = 0; ch < c; ++ch) {
    float* plane = out.data() + ch * h * w;
    std::fill(plane, plane + i_lo * w, 0.0f);
    for (std::int64_t i = i_lo; i < i_hi; ++i) {
      float* row = plane + i * w;
      const float* src = img.data() + (ch * h + i + di) * w;
      std::fill(row, row + j_lo, 0.0f);
      if (j_lo < j_hi) std::copy(src + j_lo + dj, src + j_hi + dj, row + j_lo);
      std::fill(row + j_hi, row + w, 0.0f);
    }
    std::fill(plane + i_hi * w, plane + h * w, 0.0f);
  }
  return out;
}

Tensor RandomHorizontalFlip::apply(const Tensor& img, Rng& rng) const {
  if (img.ndim() != 3) throw std::invalid_argument("RandomHorizontalFlip: expects CHW");
  if (rng.uniform() >= p_) return img;
  const std::int64_t rows = img.shape()[0] * img.shape()[1], w = img.shape()[2];
  Tensor out = Tensor::uninitialized(img.shape());  // every row written below
  for (std::int64_t r = 0; r < rows; ++r)
    std::reverse_copy(img.data() + r * w, img.data() + (r + 1) * w, out.data() + r * w);
  return out;
}

Tensor ColorJitter::apply(const Tensor& img, Rng& rng) const {
  const float scale = 1.0f + rng.uniform(-strength_, strength_);
  const float shift = rng.uniform(-strength_ * 0.5f, strength_ * 0.5f);
  return img.map([scale, shift](float v) { return std::clamp(v * scale + shift, 0.0f, 1.0f); });
}

AugmentationPipeline AugmentationPipeline::reference_image_pipeline() {
  AugmentationPipeline p;
  p.add(std::make_unique<RandomCrop>(2))
      .add(std::make_unique<RandomHorizontalFlip>(0.5f))
      .add(std::make_unique<ColorJitter>(0.15f));
  return p;
}

}  // namespace mlperf::data
