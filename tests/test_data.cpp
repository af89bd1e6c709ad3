#include "data/augment.h"
#include "data/dataset.h"
#include "data/detection.h"
#include "data/loader.h"
#include "data/recsys.h"
#include "data/translation.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

namespace mlperf::data {
namespace {

using tensor::Rng;
using tensor::Tensor;

TEST(ImageDataset, SizesAndDeterminism) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 64;
  cfg.val_size = 32;
  SyntheticImageDataset a(cfg), b(cfg);
  EXPECT_EQ(a.train_size(), 64);
  EXPECT_EQ(a.val_size(), 32);
  // Same seed -> byte-identical records (the dataset is a fixed artifact).
  for (std::int64_t i = 0; i < 8; ++i)
    EXPECT_EQ(a.train_raw(i).pixels, b.train_raw(i).pixels);
}

TEST(ImageDataset, DifferentSeedDifferentData) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 8;
  SyntheticImageDataset a(cfg);
  cfg.seed = 999;
  SyntheticImageDataset b(cfg);
  EXPECT_NE(a.train_raw(0).pixels, b.train_raw(0).pixels);
}

TEST(ImageDataset, ClassesBalancedRoundRobin) {
  SyntheticImageDataset::Config cfg;
  cfg.num_classes = 4;
  cfg.train_size = 40;
  SyntheticImageDataset ds(cfg);
  std::vector<int> counts(4, 0);
  for (std::int64_t i = 0; i < 40; ++i) ++counts[static_cast<std::size_t>(ds.train_raw(i).label)];
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(ImageDataset, DecodeNormalizesToUnitRange) {
  SyntheticImageDataset ds({});
  const ImageExample ex = SyntheticImageDataset::decode(ds.train_raw(0));
  EXPECT_EQ(ex.image.ndim(), 3);
  for (std::int64_t i = 0; i < ex.image.numel(); ++i) {
    EXPECT_GE(ex.image[i], 0.0f);
    EXPECT_LE(ex.image[i], 1.0f);
  }
}

TEST(Reformat, PreservesCountAndLabels) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 16;
  cfg.val_size = 8;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  EXPECT_EQ(splits.train.size(), 16);
  EXPECT_EQ(splits.val.size(), 8);
  for (std::int64_t i = 0; i < 16; ++i)
    EXPECT_EQ(splits.train.get(i).label, ds.train_raw(i).label);
}

TEST(Augment, CropPreservesShape) {
  Rng rng(1);
  Tensor img = Tensor::rand({3, 8, 8}, rng);
  RandomCrop crop(2);
  Tensor out = crop.apply(img, rng);
  EXPECT_EQ(out.shape(), img.shape());
}

TEST(Augment, FlipIsExactMirror) {
  Rng rng(2);
  Tensor img = Tensor::rand({1, 2, 4}, rng);
  RandomHorizontalFlip flip(1.0f);  // always
  Tensor out = flip.apply(img, rng);
  for (std::int64_t i = 0; i < 2; ++i)
    for (std::int64_t j = 0; j < 4; ++j)
      EXPECT_EQ(out.at({0, i, j}), img.at({0, i, 3 - j}));
}

TEST(Augment, FlipProbabilityZeroIsIdentity) {
  Rng rng(3);
  Tensor img = Tensor::rand({1, 2, 2}, rng);
  RandomHorizontalFlip flip(0.0f);
  Tensor out = flip.apply(img, rng);
  for (std::int64_t i = 0; i < img.numel(); ++i) EXPECT_EQ(out[i], img[i]);
}

TEST(Augment, JitterStaysInRange) {
  Rng rng(4);
  Tensor img = Tensor::rand({3, 4, 4}, rng);
  ColorJitter jitter(0.5f);
  Tensor out = jitter.apply(img, rng);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_GE(out[i], 0.0f);
    EXPECT_LE(out[i], 1.0f);
  }
}

// The per-pixel, at()-indexed crop and flip loops that the row copies
// replaced, drawing from the rng exactly as the layers do.
Tensor random_crop_at_ref(const Tensor& img, std::int64_t pad, Rng& rng) {
  const std::int64_t c = img.shape()[0], h = img.shape()[1], w = img.shape()[2];
  const auto oi = static_cast<std::int64_t>(rng.randint(static_cast<std::uint64_t>(2 * pad + 1)));
  const auto oj = static_cast<std::int64_t>(rng.randint(static_cast<std::uint64_t>(2 * pad + 1)));
  Tensor out({c, h, w});
  for (std::int64_t ch = 0; ch < c; ++ch)
    for (std::int64_t i = 0; i < h; ++i)
      for (std::int64_t j = 0; j < w; ++j) {
        const std::int64_t si = i + oi - pad, sj = j + oj - pad;
        out.at({ch, i, j}) =
            (si >= 0 && si < h && sj >= 0 && sj < w) ? img.at({ch, si, sj}) : 0.0f;
      }
  return out;
}

Tensor random_flip_at_ref(const Tensor& img, float p, Rng& rng) {
  if (rng.uniform() >= p) return img;
  const std::int64_t c = img.shape()[0], h = img.shape()[1], w = img.shape()[2];
  Tensor out({c, h, w});
  for (std::int64_t ch = 0; ch < c; ++ch)
    for (std::int64_t i = 0; i < h; ++i)
      for (std::int64_t j = 0; j < w; ++j) out.at({ch, i, j}) = img.at({ch, i, w - 1 - j});
  return out;
}

void expect_same_bits(const Tensor& want, const Tensor& got) {
  ASSERT_EQ(want.shape(), got.shape());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                           static_cast<std::size_t>(want.numel()) * sizeof(float)));
}

// Enough seeds that every crop offset occurs; pad 6 exceeds the image, so
// some crops are all padding. The rngs must also end in the same state.
TEST(Augment, CropBitwiseEqualToAtReference) {
  Rng img_rng(20);
  const Tensor img = Tensor::randn({3, 5, 7}, img_rng);
  for (std::int64_t pad : {0, 2, 6}) {
    const RandomCrop crop(pad);
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      SCOPED_TRACE("pad=" + std::to_string(pad) + " seed=" + std::to_string(seed));
      Rng r_ref(seed), r_new(seed);
      expect_same_bits(random_crop_at_ref(img, pad, r_ref), crop.apply(img, r_new));
      EXPECT_EQ(r_ref.randint(1u << 30), r_new.randint(1u << 30));
    }
  }
}

TEST(Augment, FlipBitwiseEqualToAtReference) {
  Rng img_rng(21);
  const Tensor img = Tensor::randn({3, 5, 7}, img_rng);
  for (float p : {0.0f, 0.5f, 1.0f}) {
    const RandomHorizontalFlip flip(p);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("p=" + std::to_string(p) + " seed=" + std::to_string(seed));
      Rng r_ref(seed), r_new(seed);
      expect_same_bits(random_flip_at_ref(img, p, r_ref), flip.apply(img, r_new));
      EXPECT_EQ(r_ref.randint(1u << 30), r_new.randint(1u << 30));
    }
  }
}

TEST(Augment, PipelineSignatureEncodesOrder) {
  // §2.2.4: augmentation order is part of workload identity.
  AugmentationPipeline p1;
  p1.add(std::make_unique<RandomCrop>(2)).add(std::make_unique<RandomHorizontalFlip>());
  AugmentationPipeline p2;
  p2.add(std::make_unique<RandomHorizontalFlip>()).add(std::make_unique<RandomCrop>(2));
  EXPECT_NE(p1.signature(), p2.signature());
  EXPECT_EQ(p1.signature(), "random_crop|horizontal_flip");
}

TEST(Augment, ReferencePipelineSignature) {
  EXPECT_EQ(AugmentationPipeline::reference_image_pipeline().signature(),
            "random_crop|horizontal_flip|color_jitter");
}

TEST(Augment, DeterministicGivenRngState) {
  Tensor img({3, 6, 6}, 0.5f);
  AugmentationPipeline p = AugmentationPipeline::reference_image_pipeline();
  Rng r1(7), r2(7);
  Tensor a = p.apply(img, r1);
  Tensor b = p.apply(img, r2);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Loader, EpochCoversEverySampleOnce) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 20;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  Rng rng(5);
  ImageLoader loader(splits.train, 6, nullptr, rng);
  std::int64_t total = 0;
  std::vector<int> label_counts(cfg.num_classes, 0);
  while (loader.has_next()) {
    ImageBatch b = loader.next();
    total += static_cast<std::int64_t>(b.labels.size());
    for (auto l : b.labels) ++label_counts[static_cast<std::size_t>(l)];
  }
  EXPECT_EQ(total, 20);
  EXPECT_THROW(loader.next(), std::logic_error);
}

TEST(Loader, DropLastMakesFullBatchesOnly) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 20;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  Rng rng(6);
  ImageLoader loader(splits.train, 6, nullptr, rng, /*drop_last=*/true);
  std::int64_t batches = 0;
  while (loader.has_next()) {
    EXPECT_EQ(loader.next().labels.size(), 6u);
    ++batches;
  }
  EXPECT_EQ(batches, 3);
  EXPECT_EQ(loader.batches_per_epoch(), 3);
}

TEST(Loader, RaggedLastBatchKeptWithoutDropLast) {
  // dataset_size % batch_size != 0: 10 = 4 + 4 + 2.
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 10;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  for (bool prefetch : {false, true}) {
    Rng rng(21);
    ImageLoader loader(splits.train, 4, nullptr, rng, /*drop_last=*/false, prefetch);
    std::vector<std::size_t> sizes;
    while (loader.has_next()) sizes.push_back(loader.next().labels.size());
    EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4, 2})) << "prefetch=" << prefetch;
    EXPECT_EQ(loader.batches_per_epoch(), 3);
    EXPECT_THROW(loader.next(), std::logic_error);
  }
}

TEST(Loader, RaggedLastBatchDroppedWithDropLast) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 10;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  for (bool prefetch : {false, true}) {
    Rng rng(22);
    ImageLoader loader(splits.train, 4, nullptr, rng, /*drop_last=*/true, prefetch);
    std::vector<std::size_t> sizes;
    while (loader.has_next()) sizes.push_back(loader.next().labels.size());
    EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4})) << "prefetch=" << prefetch;
    EXPECT_EQ(loader.batches_per_epoch(), 2);
  }
}

TEST(Loader, BatchLargerThanDataset) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 3;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  for (bool prefetch : {false, true}) {
    // drop_last off: one short batch holding the whole dataset.
    Rng rng(23);
    ImageLoader keep(splits.train, 8, nullptr, rng, /*drop_last=*/false, prefetch);
    EXPECT_EQ(keep.batches_per_epoch(), 1);
    ASSERT_TRUE(keep.has_next());
    EXPECT_EQ(keep.next().labels.size(), 3u);
    EXPECT_FALSE(keep.has_next());
    // drop_last on: no full batch exists -> the epoch is empty.
    ImageLoader drop(splits.train, 8, nullptr, rng, /*drop_last=*/true, prefetch);
    EXPECT_EQ(drop.batches_per_epoch(), 0);
    EXPECT_FALSE(drop.has_next());
    EXPECT_THROW(drop.next(), std::logic_error);
  }
}

TEST(Loader, InvalidBatchSizeThrows) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 4;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  Rng rng(24);
  EXPECT_THROW(ImageLoader(splits.train, 0, nullptr, rng), std::invalid_argument);
  EXPECT_THROW(ImageLoader(splits.train, -2, nullptr, rng), std::invalid_argument);
}

TEST(Loader, PrefetchWithoutAugmentMatchesInlineLoader) {
  // With no augmentation the prefetching loader consumes no Rng draws per
  // batch, so its batches must equal the inline loader's exactly.
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 14;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  Rng rng_a(31), rng_b(31);
  ImageLoader inline_loader(splits.train, 4, nullptr, rng_a);
  ImageLoader prefetch_loader(splits.train, 4, nullptr, rng_b, /*drop_last=*/false,
                              /*prefetch=*/true);
  while (inline_loader.has_next()) {
    ASSERT_TRUE(prefetch_loader.has_next());
    ImageBatch a = inline_loader.next();
    ImageBatch b = prefetch_loader.next();
    EXPECT_EQ(a.labels, b.labels);
    ASSERT_EQ(a.images.numel(), b.images.numel());
    for (std::int64_t i = 0; i < a.images.numel(); ++i) EXPECT_EQ(a.images[i], b.images[i]);
  }
  EXPECT_FALSE(prefetch_loader.has_next());
}

TEST(Loader, ReshufflesBetweenEpochs) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 32;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  Rng rng(7);
  ImageLoader loader(splits.train, 32, nullptr, rng);
  const auto e1 = loader.next().labels;
  loader.start_epoch();
  const auto e2 = loader.next().labels;
  EXPECT_NE(e1, e2);  // astronomically unlikely to coincide
}

TEST(Loader, BatchTensorShape) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 8;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  Rng rng(8);
  ImageLoader loader(splits.train, 4, nullptr, rng);
  ImageBatch b = loader.next();
  EXPECT_EQ(b.images.shape(),
            (tensor::Shape{4, cfg.channels, cfg.height, cfg.width}));
}

TEST(DetectionData, BoxesMatchMasks) {
  SyntheticDetectionDataset ds({});
  for (std::int64_t i = 0; i < 10; ++i) {
    const auto& ex = ds.train(i);
    EXPECT_GE(ex.objects.size(), 1u);
    for (const auto& o : ex.objects) {
      EXPECT_GT(o.box.area(), 0.0f);
      EXPECT_GE(o.box.x1, 0.0f);
      EXPECT_LE(o.box.x2, 1.0f);
      // The mask must live inside the (slightly padded) box.
      const std::int64_t h = o.mask.shape()[0], w = o.mask.shape()[1];
      float mask_area = 0.0f;
      for (std::int64_t r = 0; r < h; ++r)
        for (std::int64_t c = 0; c < w; ++c) {
          if (o.mask.at({r, c}) < 0.5f) continue;
          mask_area += 1.0f;
          const float y = (static_cast<float>(r) + 0.5f) / static_cast<float>(h);
          const float x = (static_cast<float>(c) + 0.5f) / static_cast<float>(w);
          EXPECT_GE(y, o.box.y1 - 0.05f);
          EXPECT_LE(y, o.box.y2 + 0.05f);
          EXPECT_GE(x, o.box.x1 - 0.05f);
          EXPECT_LE(x, o.box.x2 + 0.05f);
        }
      EXPECT_GT(mask_area, 0.0f);
    }
  }
}

TEST(DetectionData, IouSelfIsOneDisjointIsZero) {
  Box a{0.1f, 0.1f, 0.5f, 0.5f};
  Box b{0.6f, 0.6f, 0.9f, 0.9f};
  EXPECT_FLOAT_EQ(iou(a, a), 1.0f);
  EXPECT_FLOAT_EQ(iou(a, b), 0.0f);
}

TEST(DetectionData, IouPartialOverlap) {
  Box a{0.0f, 0.0f, 0.5f, 0.5f};
  Box b{0.25f, 0.0f, 0.75f, 0.5f};
  // inter = 0.25*0.5 = 0.125; union = 0.25 + 0.25 - 0.125.
  EXPECT_NEAR(iou(a, b), 0.125f / 0.375f, 1e-5);
}

TEST(TranslationData, ReferenceMappingIsBijective) {
  SyntheticTranslationDataset ds({});
  std::set<std::int64_t> images;
  for (std::int64_t word = 0; word < ds.config().vocab; ++word) {
    TokenSeq one = {kFirstWord + word, kFirstWord + word};
    const TokenSeq t = ds.translate_reference(one);
    images.insert(t[0]);
  }
  EXPECT_EQ(static_cast<std::int64_t>(images.size()), ds.config().vocab);
}

TEST(TranslationData, ReorderRules) {
  SyntheticTranslationDataset::Config cfg;
  cfg.reorder = ReorderRule::kSwapAdjacent;
  SyntheticTranslationDataset swap_ds(cfg);
  cfg.reorder = ReorderRule::kNone;
  SyntheticTranslationDataset none_ds(cfg);
  TokenSeq src = {kFirstWord, kFirstWord + 1, kFirstWord + 2, kFirstWord + 3};
  const TokenSeq plain = none_ds.translate_reference(src);
  const TokenSeq swapped = swap_ds.translate_reference(src);
  EXPECT_EQ(plain[0], swapped[1]);
  EXPECT_EQ(plain[1], swapped[0]);
  EXPECT_EQ(plain[2], swapped[3]);
}

TEST(TranslationData, TargetsAreConsistentWithReference) {
  SyntheticTranslationDataset ds({});
  for (std::int64_t i = 0; i < 20; ++i) {
    const auto& p = ds.train(i);
    EXPECT_EQ(p.target, ds.translate_reference(p.source));
  }
}

TEST(TranslationData, LengthsWithinConfig) {
  SyntheticTranslationDataset::Config cfg;
  cfg.min_len = 4;
  cfg.max_len = 7;
  SyntheticTranslationDataset ds(cfg);
  for (std::int64_t i = 0; i < ds.train_size(); ++i) {
    const auto len = static_cast<std::int64_t>(ds.train(i).source.size());
    EXPECT_GE(len, 4);
    EXPECT_LE(len, 7);
  }
}

TEST(RecsysData, HoldoutDisjointFromTraining) {
  ImplicitCfDataset ds({});
  for (const auto& inter : ds.train_interactions())
    EXPECT_NE(inter.item, ds.holdout()[static_cast<std::size_t>(inter.user)])
        << "user " << inter.user;
}

TEST(RecsysData, EvalCandidatesStartWithHoldout) {
  ImplicitCfDataset ds({});
  for (std::int64_t u = 0; u < ds.num_users(); ++u) {
    const auto& cand = ds.eval_candidates()[static_cast<std::size_t>(u)];
    EXPECT_EQ(cand[0], ds.holdout()[static_cast<std::size_t>(u)]);
    EXPECT_EQ(static_cast<std::int64_t>(cand.size()), ds.config().num_eval_negatives + 1);
    // Negatives are not positives.
    for (std::size_t i = 1; i < cand.size(); ++i) EXPECT_FALSE(ds.is_positive(u, cand[i]));
  }
}

TEST(RecsysData, NegativeSamplerAvoidsPositives) {
  ImplicitCfDataset ds({});
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t item = ds.sample_negative(0, rng);
    EXPECT_FALSE(ds.is_positive(0, item));
  }
}

TEST(RecsysData, PopularitySkewExists) {
  // Heavy-tailed item popularity: the top decile of items (by interaction
  // count) must hold well over its proportional share of interactions — the
  // embedding-access characteristic the paper says makes recommendation
  // datasets representative (§3.1.5).
  ImplicitCfDataset::Config cfg;
  cfg.num_users = 128;
  ImplicitCfDataset ds(cfg);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(cfg.num_items), 0);
  for (const auto& i : ds.train_interactions()) ++counts[static_cast<std::size_t>(i.item)];
  std::sort(counts.rbegin(), counts.rend());
  const std::size_t decile = static_cast<std::size_t>(cfg.num_items) / 10;
  std::int64_t top = 0, total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    total += counts[i];
    if (i < decile) top += counts[i];
  }
  const double top_share = static_cast<double>(top) / static_cast<double>(total);
  EXPECT_GT(top_share, 1.5 * 0.10);
}

TEST(RecsysData, TooFewInteractionsThrows) {
  ImplicitCfDataset::Config cfg;
  cfg.interactions_per_user = 1;
  EXPECT_THROW(ImplicitCfDataset{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace mlperf::data
