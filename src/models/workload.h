#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "checkpoint/state.h"
#include "data/translation.h"
#include "metrics/metrics.h"

namespace mlperf::models {

/// The reference-implementation interface (paper §3.4). A workload packages a
/// dataset, model and training procedure; the harness drives it through the
/// timing rules:
///
///   prepare_data()   -> inside the untimed reformat region
///   build_model(seed)-> inside the (capped) untimed model-creation region
///   train_epoch()    -> timed, once per epoch
///   evaluate()       -> timed, returns the quality metric value
///
/// All stochasticity must derive from the seed passed to build_model so that
/// a run is exactly reproducible (§2.2.3 protocol: runs differ only by seed).
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual void prepare_data() = 0;
  virtual void build_model(std::uint64_t seed) = 0;
  virtual void train_epoch() = 0;
  virtual double evaluate() = 0;

  /// The complete training state as pointers into this workload's storage,
  /// for checkpoint::write_state/read_state (the only code that serializes
  /// it). A restored run continues bitwise-identically to one that was never
  /// interrupted. Only valid at an epoch boundary (after train_epoch /
  /// evaluate returned, before the next train_epoch): implementations drain
  /// any asynchronous work first and throw std::logic_error mid-epoch. The
  /// default, an empty view, marks a workload that cannot be checkpointed.
  virtual checkpoint::TrainingState training_state() { return {}; }

  /// Hyperparameters to log (names should match the Closed-division
  /// whitelist vocabulary where applicable).
  virtual std::map<std::string, double> hyperparameters() const = 0;
  virtual std::int64_t global_batch_size() const = 0;
  /// Signature for Closed-division equivalence checking (model identity).
  virtual std::string model_signature() const = 0;
  virtual std::string optimizer_name() const = 0;
  virtual std::string augmentation_signature() const { return ""; }
  /// Named event counts from the run so far (e.g. cache hits), which the
  /// harness logs once at run end as `workload_counter` events. Empty by
  /// default: most workloads count nothing.
  virtual std::map<std::string, std::int64_t> counters() const { return {}; }
};

/// The translation pair's eval (GNMT and Transformer): corpus BLEU of greedy
/// decoding, up to max_len + 2 steps, over the val split translated in
/// equal-length batches (ascending source length, then index).
template <typename Model>
double greedy_decode_bleu(Model& model, const data::SyntheticTranslationDataset& ds,
                          std::int64_t batch_size) {
  autograd::NoGradGuard no_grad;  // forward only: record no graph
  const auto n = static_cast<std::size_t>(batch_size);
  std::vector<std::vector<std::int64_t>> buckets(static_cast<std::size_t>(ds.config().max_len + 1));
  for (std::int64_t i = 0; i < ds.val_size(); ++i) buckets[ds.val(i).source.size()].push_back(i);
  std::vector<data::TokenSeq> hyps, refs;
  for (const auto& bucket : buckets)
    for (std::size_t off = 0; off < bucket.size(); off += n) {
      std::vector<data::TokenSeq> src;
      for (std::size_t k = off; k < std::min(off + n, bucket.size()); ++k) {
        src.push_back(ds.val(bucket[k]).source);
        refs.push_back(ds.val(bucket[k]).target);
      }
      for (auto& hyp : model.greedy_translate(src, ds.config().max_len + 2))
        hyps.push_back(std::move(hyp));
    }
  return metrics::bleu(hyps, refs);
}

}  // namespace mlperf::models
