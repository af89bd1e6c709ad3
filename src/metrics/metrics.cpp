#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace mlperf::metrics {

double top1_accuracy(const std::vector<std::int64_t>& predictions,
                     const std::vector<std::int64_t>& targets) {
  if (predictions.size() != targets.size() || predictions.empty())
    throw std::invalid_argument("top1_accuracy: size mismatch or empty");
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i)
    if (predictions[i] == targets[i]) ++hits;
  return static_cast<double>(hits) / static_cast<double>(predictions.size());
}

double mask_iou(const tensor::Tensor& pred, const tensor::Tensor& gt) {
  if (!pred.same_shape(gt)) throw std::invalid_argument("mask_iou: shape mismatch");
  std::int64_t inter = 0, uni = 0;
  for (std::int64_t i = 0; i < pred.numel(); ++i) {
    const bool p = pred[i] >= 0.5f;
    const bool g = gt[i] >= 0.5f;
    inter += (p && g) ? 1 : 0;
    uni += (p || g) ? 1 : 0;
  }
  return uni > 0 ? static_cast<double>(inter) / static_cast<double>(uni) : 0.0;
}

double average_precision(const std::vector<Detection>& detections, const GroundTruth& gt,
                         std::int64_t num_classes, float iou_threshold, bool use_mask_iou) {
  double ap_sum = 0.0;
  std::int64_t classes_with_gt = 0;
  for (std::int64_t cls = 0; cls < num_classes; ++cls) {
    // Collect this class's detections, sorted by descending score.
    std::vector<const Detection*> dets;
    for (const auto& d : detections)
      if (d.cls == cls) dets.push_back(&d);
    std::sort(dets.begin(), dets.end(),
              [](const Detection* a, const Detection* b) { return a->score > b->score; });

    std::int64_t total_gt = 0;
    std::vector<std::vector<bool>> matched(gt.per_image.size());
    for (std::size_t im = 0; im < gt.per_image.size(); ++im) {
      matched[im].assign(gt.per_image[im].size(), false);
      for (const auto& o : gt.per_image[im])
        if (o.cls == cls) ++total_gt;
    }
    if (total_gt == 0) continue;
    ++classes_with_gt;

    std::vector<int> tp(dets.size(), 0);
    for (std::size_t k = 0; k < dets.size(); ++k) {
      const Detection& d = *dets[k];
      if (d.image_id < 0 || d.image_id >= static_cast<std::int64_t>(gt.per_image.size()))
        throw std::out_of_range("average_precision: bad image_id");
      const auto& objs = gt.per_image[static_cast<std::size_t>(d.image_id)];
      double best = 0.0;
      std::int64_t best_j = -1;
      for (std::size_t j = 0; j < objs.size(); ++j) {
        if (objs[j].cls != cls || matched[static_cast<std::size_t>(d.image_id)][j]) continue;
        const double overlap = use_mask_iou ? mask_iou(d.mask, objs[j].mask)
                                            : static_cast<double>(data::iou(d.box, objs[j].box));
        if (overlap > best) {
          best = overlap;
          best_j = static_cast<std::int64_t>(j);
        }
      }
      if (best_j >= 0 && best >= static_cast<double>(iou_threshold)) {
        tp[k] = 1;
        matched[static_cast<std::size_t>(d.image_id)][static_cast<std::size_t>(best_j)] = true;
      }
    }

    // All-point interpolated AP.
    double ap = 0.0;
    double cum_tp = 0.0;
    std::vector<double> precisions, recalls;
    for (std::size_t k = 0; k < dets.size(); ++k) {
      cum_tp += tp[k];
      precisions.push_back(cum_tp / static_cast<double>(k + 1));
      recalls.push_back(cum_tp / static_cast<double>(total_gt));
    }
    // Make precision monotonically non-increasing from the right.
    for (std::size_t k = precisions.size(); k-- > 1;)
      precisions[k - 1] = std::max(precisions[k - 1], precisions[k]);
    double prev_recall = 0.0;
    for (std::size_t k = 0; k < precisions.size(); ++k) {
      ap += (recalls[k] - prev_recall) * precisions[k];
      prev_recall = recalls[k];
    }
    ap_sum += ap;
  }
  return classes_with_gt > 0 ? ap_sum / static_cast<double>(classes_with_gt) : 0.0;
}

double coco_map(const std::vector<Detection>& detections, const GroundTruth& gt,
                std::int64_t num_classes, bool use_mask_iou) {
  double sum = 0.0;
  int n = 0;
  for (float thr = 0.5f; thr < 0.96f; thr += 0.05f) {
    sum += average_precision(detections, gt, num_classes, thr, use_mask_iou);
    ++n;
  }
  return sum / static_cast<double>(n);
}

double bleu(const std::vector<data::TokenSeq>& hypotheses,
            const std::vector<data::TokenSeq>& references) {
  constexpr int max_n = 4;  // Table 1: BLEU (4-gram)
  if (hypotheses.size() != references.size() || hypotheses.empty())
    throw std::invalid_argument("bleu: size mismatch or empty");
  std::vector<double> match(max_n, 0.0);
  std::vector<double> total(max_n, 0.0);
  double hyp_len = 0.0, ref_len = 0.0;

  for (std::size_t s = 0; s < hypotheses.size(); ++s) {
    const auto& hyp = hypotheses[s];
    const auto& ref = references[s];
    hyp_len += static_cast<double>(hyp.size());
    ref_len += static_cast<double>(ref.size());
    for (int n = 1; n <= max_n; ++n) {
      if (static_cast<int>(hyp.size()) < n) continue;
      std::map<std::vector<std::int64_t>, std::int64_t> ref_counts, hyp_counts;
      for (std::size_t i = 0; i + n <= ref.size(); ++i)
        ++ref_counts[std::vector<std::int64_t>(ref.begin() + static_cast<std::ptrdiff_t>(i),
                                               ref.begin() + static_cast<std::ptrdiff_t>(i + n))];
      for (std::size_t i = 0; i + n <= hyp.size(); ++i)
        ++hyp_counts[std::vector<std::int64_t>(hyp.begin() + static_cast<std::ptrdiff_t>(i),
                                               hyp.begin() + static_cast<std::ptrdiff_t>(i + n))];
      for (const auto& [ng, cnt] : hyp_counts) {
        const auto it = ref_counts.find(ng);
        if (it != ref_counts.end())
          match[static_cast<std::size_t>(n - 1)] += std::min(cnt, it->second);
      }
      total[static_cast<std::size_t>(n - 1)] += static_cast<double>(hyp.size() - static_cast<std::size_t>(n) + 1);
    }
  }

  double log_precision = 0.0;
  for (int n = 0; n < max_n; ++n) {
    if (total[static_cast<std::size_t>(n)] == 0.0 || match[static_cast<std::size_t>(n)] == 0.0)
      return 0.0;
    log_precision +=
        std::log(match[static_cast<std::size_t>(n)] / total[static_cast<std::size_t>(n)]);
  }
  log_precision /= static_cast<double>(max_n);
  const double bp = hyp_len >= ref_len ? 1.0 : std::exp(1.0 - ref_len / std::max(hyp_len, 1.0));
  return 100.0 * bp * std::exp(log_precision);
}

double hit_rate_at_k(const std::vector<std::vector<float>>& scores, std::int64_t k) {
  if (scores.empty()) throw std::invalid_argument("hit_rate_at_k: empty");
  std::size_t hits = 0;
  for (const auto& user_scores : scores) {
    if (user_scores.empty()) throw std::invalid_argument("hit_rate_at_k: empty candidate list");
    const float positive = user_scores[0];
    std::int64_t rank = 1;
    for (std::size_t i = 1; i < user_scores.size(); ++i)
      if (user_scores[i] > positive) ++rank;
    if (rank <= k) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(scores.size());
}

}  // namespace mlperf::metrics
