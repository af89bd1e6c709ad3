#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "checkpoint/state.h"

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
};

}  // namespace mlperf::models
