#include "metrics/metrics.h"

#include <gtest/gtest.h>

namespace mlperf::metrics {
namespace {

using data::Box;
using data::GtObject;
using tensor::Tensor;

TEST(Top1, ExactFraction) {
  EXPECT_DOUBLE_EQ(top1_accuracy({1, 2, 3, 4}, {1, 2, 0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(top1_accuracy({1}, {1}), 1.0);
}

TEST(Top1, MismatchedSizesThrow) {
  EXPECT_THROW(top1_accuracy({1}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(top1_accuracy({}, {}), std::invalid_argument);
}

GtObject make_gt(float x1, float y1, float x2, float y2, std::int64_t cls) {
  GtObject o;
  o.box = Box{x1, y1, x2, y2};
  o.cls = cls;
  return o;
}

Detection make_det(std::int64_t image, std::int64_t cls, float score, Box b) {
  Detection d;
  d.image_id = image;
  d.cls = cls;
  d.score = score;
  d.box = b;
  return d;
}

TEST(AveragePrecision, PerfectDetectionsScoreOne) {
  GroundTruth gt;
  gt.per_image.push_back({make_gt(0.1f, 0.1f, 0.4f, 0.4f, 0)});
  std::vector<Detection> dets = {make_det(0, 0, 0.9f, Box{0.1f, 0.1f, 0.4f, 0.4f})};
  EXPECT_DOUBLE_EQ(average_precision(dets, gt, 1, 0.5f), 1.0);
}

TEST(AveragePrecision, MissedGtReducesRecall) {
  GroundTruth gt;
  gt.per_image.push_back(
      {make_gt(0.1f, 0.1f, 0.4f, 0.4f, 0), make_gt(0.6f, 0.6f, 0.9f, 0.9f, 0)});
  std::vector<Detection> dets = {make_det(0, 0, 0.9f, Box{0.1f, 0.1f, 0.4f, 0.4f})};
  EXPECT_DOUBLE_EQ(average_precision(dets, gt, 1, 0.5f), 0.5);
}

TEST(AveragePrecision, FalsePositiveBeforeTruePositiveHurtsPrecision) {
  GroundTruth gt;
  gt.per_image.push_back({make_gt(0.1f, 0.1f, 0.4f, 0.4f, 0)});
  std::vector<Detection> dets = {
      make_det(0, 0, 0.95f, Box{0.6f, 0.6f, 0.9f, 0.9f}),  // FP, higher score
      make_det(0, 0, 0.9f, Box{0.1f, 0.1f, 0.4f, 0.4f}),   // TP
  };
  EXPECT_DOUBLE_EQ(average_precision(dets, gt, 1, 0.5f), 0.5);  // p=0.5 at r=1
}

TEST(AveragePrecision, DuplicateDetectionCountsOnce) {
  GroundTruth gt;
  gt.per_image.push_back({make_gt(0.1f, 0.1f, 0.4f, 0.4f, 0)});
  std::vector<Detection> dets = {
      make_det(0, 0, 0.9f, Box{0.1f, 0.1f, 0.4f, 0.4f}),
      make_det(0, 0, 0.8f, Box{0.1f, 0.1f, 0.4f, 0.4f}),  // duplicate -> FP
  };
  EXPECT_DOUBLE_EQ(average_precision(dets, gt, 1, 0.5f), 1.0);  // AP unaffected after TP
}

TEST(AveragePrecision, WrongClassNeverMatches) {
  GroundTruth gt;
  gt.per_image.push_back({make_gt(0.1f, 0.1f, 0.4f, 0.4f, 0)});
  std::vector<Detection> dets = {make_det(0, 1, 0.9f, Box{0.1f, 0.1f, 0.4f, 0.4f})};
  EXPECT_DOUBLE_EQ(average_precision(dets, gt, 2, 0.5f), 0.0);
}

TEST(AveragePrecision, MacroAveragesOverClasses) {
  GroundTruth gt;
  gt.per_image.push_back(
      {make_gt(0.1f, 0.1f, 0.4f, 0.4f, 0), make_gt(0.6f, 0.6f, 0.9f, 0.9f, 1)});
  std::vector<Detection> dets = {make_det(0, 0, 0.9f, Box{0.1f, 0.1f, 0.4f, 0.4f})};
  // class 0 AP = 1, class 1 AP = 0.
  EXPECT_DOUBLE_EQ(average_precision(dets, gt, 2, 0.5f), 0.5);
}

TEST(CocoMap, StricterThanSingleThreshold) {
  GroundTruth gt;
  gt.per_image.push_back({make_gt(0.10f, 0.10f, 0.40f, 0.40f, 0)});
  // Detection offset slightly: passes IoU 0.5 but fails 0.9.
  std::vector<Detection> dets = {make_det(0, 0, 0.9f, Box{0.12f, 0.12f, 0.42f, 0.42f})};
  const double ap50 = average_precision(dets, gt, 1, 0.5f);
  const double map = coco_map(dets, gt, 1);
  EXPECT_DOUBLE_EQ(ap50, 1.0);
  EXPECT_LT(map, ap50);
  EXPECT_GT(map, 0.0);
}

TEST(MaskIou, ExactAndEmpty) {
  Tensor a({2, 2}, {1, 1, 0, 0});
  Tensor b({2, 2}, {1, 0, 1, 0});
  EXPECT_DOUBLE_EQ(mask_iou(a, a), 1.0);
  EXPECT_NEAR(mask_iou(a, b), 1.0 / 3.0, 1e-9);
  Tensor z({2, 2});
  EXPECT_DOUBLE_EQ(mask_iou(z, z), 0.0);
}

TEST(Bleu, PerfectMatchIs100) {
  std::vector<data::TokenSeq> hyp = {{3, 4, 5, 6, 7}};
  EXPECT_NEAR(bleu(hyp, hyp), 100.0, 1e-6);
}

TEST(Bleu, NoOverlapIsZero) {
  std::vector<data::TokenSeq> hyp = {{3, 4, 5, 6}};
  std::vector<data::TokenSeq> ref = {{7, 8, 9, 10}};
  EXPECT_DOUBLE_EQ(bleu(hyp, ref), 0.0);
}

TEST(Bleu, BrevityPenaltyApplies) {
  // Identical prefix, hypothesis shorter than reference.
  std::vector<data::TokenSeq> hyp = {{3, 4, 5, 6}};
  std::vector<data::TokenSeq> ref = {{3, 4, 5, 6, 7, 8, 9, 10}};
  const double b = bleu(hyp, ref);
  EXPECT_GT(b, 0.0);
  EXPECT_LT(b, 50.0);  // heavily penalized
}

TEST(Bleu, OrderMatters) {
  std::vector<data::TokenSeq> ref = {{3, 4, 5, 6, 7}};
  std::vector<data::TokenSeq> good = {{3, 4, 5, 6, 7}};
  std::vector<data::TokenSeq> scrambled = {{7, 5, 3, 6, 4}};
  EXPECT_GT(bleu(good, ref), bleu(scrambled, ref));
}

TEST(Bleu, CorpusLevelAggregation) {
  std::vector<data::TokenSeq> hyp = {{3, 4, 5, 6}, {7, 8, 9, 10}};
  std::vector<data::TokenSeq> ref = {{3, 4, 5, 6}, {7, 8, 9, 10}};
  EXPECT_NEAR(bleu(hyp, ref), 100.0, 1e-6);
}

TEST(Bleu, SizeMismatchThrows) {
  EXPECT_THROW(bleu({{1}}, {{1}, {2}}), std::invalid_argument);
}

TEST(HitRate, CountsTopK) {
  // candidate 0 is the positive; rank by score.
  std::vector<std::vector<float>> scores = {
      {0.9f, 0.1f, 0.2f},   // positive ranked 1 -> hit at k=1
      {0.1f, 0.9f, 0.05f},  // positive ranked 2 -> hit at k>=2
  };
  EXPECT_DOUBLE_EQ(hit_rate_at_k(scores, 1), 0.5);
  EXPECT_DOUBLE_EQ(hit_rate_at_k(scores, 2), 1.0);
}

TEST(HitRate, EmptyThrows) {
  EXPECT_THROW(hit_rate_at_k({}, 10), std::invalid_argument);
  EXPECT_THROW(hit_rate_at_k({{}}, 10), std::invalid_argument);
}

// AP at varying IoU thresholds is monotonically non-increasing.
class ApMonotonicity : public ::testing::TestWithParam<float> {};

TEST_P(ApMonotonicity, TighterIouNeverHelps) {
  GroundTruth gt;
  gt.per_image.push_back({make_gt(0.1f, 0.1f, 0.5f, 0.5f, 0)});
  gt.per_image.push_back({make_gt(0.2f, 0.2f, 0.6f, 0.6f, 0)});
  std::vector<Detection> dets = {
      make_det(0, 0, 0.9f, Box{0.12f, 0.12f, 0.52f, 0.52f}),
      make_det(1, 0, 0.8f, Box{0.25f, 0.25f, 0.6f, 0.6f}),
  };
  const float thr = GetParam();
  EXPECT_GE(average_precision(dets, gt, 1, thr),
            average_precision(dets, gt, 1, thr + 0.1f));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ApMonotonicity, ::testing::Values(0.5f, 0.6f, 0.7f, 0.8f));

}  // namespace
}  // namespace mlperf::metrics
