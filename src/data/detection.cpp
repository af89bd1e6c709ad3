#include "data/detection.h"

#include <algorithm>
#include <cmath>

namespace mlperf::data {

using tensor::Rng;
using tensor::Tensor;

float iou(const Box& a, const Box& b) {
  const float ix1 = std::max(a.x1, b.x1);
  const float iy1 = std::max(a.y1, b.y1);
  const float ix2 = std::min(a.x2, b.x2);
  const float iy2 = std::min(a.y2, b.y2);
  const float inter = std::max(0.0f, ix2 - ix1) * std::max(0.0f, iy2 - iy1);
  const float uni = a.area() + b.area() - inter;
  return uni > 0.0f ? inter / uni : 0.0f;
}

DetectionExample random_horizontal_flip(DetectionExample ex, Rng& rng) {
  if (rng.uniform() >= 0.5) return ex;
  const auto mirror = [](Tensor& t) {  // reverses every row: the last axis is x
    const std::int64_t w = t.shape().back();
    for (std::int64_t r = 0; r < t.numel(); r += w) std::reverse(t.data() + r, t.data() + r + w);
  };
  mirror(ex.image);
  for (auto& o : ex.objects) {
    const float x1 = 1.0f - o.box.x2;
    o.box.x2 = 1.0f - o.box.x1;
    o.box.x1 = x1;
    mirror(o.mask);
  }
  return ex;
}

SyntheticDetectionDataset::SyntheticDetectionDataset(const Config& config) : config_(config) {
  Rng rng(config_.seed ^ 0xC0C0AAULL);
  train_.reserve(static_cast<std::size_t>(config_.train_size));
  for (std::int64_t i = 0; i < config_.train_size; ++i) train_.push_back(make_example(rng));
  val_.reserve(static_cast<std::size_t>(config_.val_size));
  for (std::int64_t i = 0; i < config_.val_size; ++i) val_.push_back(make_example(rng));
}

DetectionExample SyntheticDetectionDataset::make_example(Rng& rng) const {
  const std::int64_t h = config_.height, w = config_.width, c = config_.channels;
  DetectionExample ex;
  ex.image = Tensor({c, h, w});
  // Textured background.
  for (std::int64_t i = 0; i < ex.image.numel(); ++i)
    ex.image[i] = std::clamp(0.4f + static_cast<float>(rng.normal(0.0, config_.noise)), 0.0f, 1.0f);

  const std::int64_t n_obj = 1 + static_cast<std::int64_t>(rng.randint(
                                  static_cast<std::uint64_t>(config_.max_objects)));
  for (std::int64_t o = 0; o < n_obj; ++o) {
    const std::int64_t cls =
        static_cast<std::int64_t>(rng.randint(static_cast<std::uint64_t>(config_.num_classes)));
    // Object size 1/5 .. 1/2 of the image; fully inside.
    const std::int64_t size = 4 + static_cast<std::int64_t>(rng.randint(
                                     static_cast<std::uint64_t>(std::max<std::int64_t>(h / 2 - 4, 1))));
    const std::int64_t ci = static_cast<std::int64_t>(rng.randint(
        static_cast<std::uint64_t>(std::max<std::int64_t>(h - size, 1))));
    const std::int64_t cj = static_cast<std::int64_t>(rng.randint(
        static_cast<std::uint64_t>(std::max<std::int64_t>(w - size, 1))));
    // Distinct colour per class, jittered.
    float color[3] = {0.1f, 0.1f, 0.1f};
    color[static_cast<std::size_t>(cls % 3)] = 0.9f;
    const float jitter = rng.uniform(-0.08f, 0.08f);

    GtObject gt;
    gt.cls = cls;
    gt.mask = Tensor({h, w});
    const float r = static_cast<float>(size) / 2.0f;
    const float mi = static_cast<float>(ci) + r;
    const float mj = static_cast<float>(cj) + r;
    for (std::int64_t i = ci; i < ci + size && i < h; ++i)
      for (std::int64_t j = cj; j < cj + size && j < w; ++j) {
        bool inside = false;
        const float di = static_cast<float>(i) + 0.5f - mi;
        const float dj = static_cast<float>(j) + 0.5f - mj;
        switch (cls % 3) {
          case 0: inside = true; break;                               // square
          case 1: inside = di * di + dj * dj <= r * r; break;         // disc
          case 2: inside = std::fabs(di) + std::fabs(dj) <= r; break; // diamond
        }
        if (!inside) continue;
        gt.mask.at({i, j}) = 1.0f;
        for (std::int64_t ch = 0; ch < c; ++ch)
          ex.image.at({ch, i, j}) =
              std::clamp(color[static_cast<std::size_t>(ch % 3)] + jitter, 0.0f, 1.0f);
      }
    gt.box = Box{static_cast<float>(cj) / static_cast<float>(w),
                 static_cast<float>(ci) / static_cast<float>(h),
                 static_cast<float>(cj + size) / static_cast<float>(w),
                 static_cast<float>(ci + size) / static_cast<float>(h)};
    ex.objects.push_back(std::move(gt));
  }
  return ex;
}

}  // namespace mlperf::data
