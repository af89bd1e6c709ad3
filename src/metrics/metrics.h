#pragma once

#include <cstdint>
#include <vector>

#include "data/detection.h"
#include "data/translation.h"

namespace mlperf::metrics {

/// Fraction of predictions equal to their target (Table 1: ResNet top-1 and
/// MiniGo move prediction). Throws on empty or mismatched inputs.
double top1_accuracy(const std::vector<std::int64_t>& predictions,
                     const std::vector<std::int64_t>& targets);

/// One detection emitted by a model for evaluation.
struct Detection {
  std::int64_t image_id = 0;
  std::int64_t cls = 0;
  float score = 0.0f;
  data::Box box;
  tensor::Tensor mask;  ///< optional [H, W] in [0,1]; empty for box-only models
};

/// Ground truth for a set of images, indexed by image id.
struct GroundTruth {
  std::vector<std::vector<data::GtObject>> per_image;
};

/// COCO-style average precision at a single IoU threshold, macro-averaged
/// over classes (all-point interpolation of the PR curve).
double average_precision(const std::vector<Detection>& detections, const GroundTruth& gt,
                         std::int64_t num_classes, float iou_threshold,
                         bool use_mask_iou = false);

/// COCO mAP: mean AP over IoU thresholds 0.5 : 0.05 : 0.95 (Table 1: SSD and
/// Mask R-CNN quality; with use_mask_iou the match criterion is mask IoU,
/// giving the paper's "Mask min AP").
double coco_map(const std::vector<Detection>& detections, const GroundTruth& gt,
                std::int64_t num_classes, bool use_mask_iou = false);

/// Corpus-level BLEU with n-grams up to 4 and brevity penalty (Table 1: GNMT
/// and Transformer quality). Inputs exclude BOS/EOS/PAD. Returns BLEU in
/// [0, 100].
double bleu(const std::vector<data::TokenSeq>& hypotheses,
            const std::vector<data::TokenSeq>& references);

/// Hit-rate@K over per-user ranked candidate lists: item 0 of each candidate
/// list is the held-out positive (Table 1: NCF quality, HR@10).
/// `scores[u][i]` is the model score for candidate i of user u.
double hit_rate_at_k(const std::vector<std::vector<float>>& scores, std::int64_t k);

/// Mask IoU between a predicted soft mask (threshold 0.5) and a binary gt mask.
double mask_iou(const tensor::Tensor& pred, const tensor::Tensor& gt);

}  // namespace mlperf::metrics
