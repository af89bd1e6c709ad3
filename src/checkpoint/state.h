#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/format.h"
#include "nn/module.h"
#include "optim/optimizer.h"
#include "tensor/rng.h"

namespace mlperf::checkpoint {

/// A workload's complete training state, as pointers into the workload's own
/// storage (cf. optim::OptimizerStateDict): the model's parameters and
/// buffers, the optimizer's slots and step counters, the run rng, any named
/// progress counters (e.g. the LR-schedule step) and any named index lists
/// (e.g. a data order each epoch permutes further). The view is taken at an
/// epoch boundary, where everything else a workload holds is either constant
/// or a pure function of these. An empty view (null `model`) means the
/// workload cannot be checkpointed.
struct TrainingState {
  nn::Module* model = nullptr;
  optim::Optimizer* optimizer = nullptr;
  tensor::Rng* rng = nullptr;
  std::vector<std::pair<std::string, std::int64_t*>> counters;
  // "= {}" lets a view without lists leave the member out of its braces.
  std::vector<std::pair<std::string, std::vector<std::int64_t>*>> index_lists = {};
};

/// Writes the workload sections "model", "optimizer", "rng" and "progress"
/// (the named counters, then the named index lists). Throws
/// std::logic_error on an incomplete view.
void write_state(CheckpointWriter& out, const TrainingState& state);
/// Restores every section written by write_state in place, with the strict
/// name/shape/count checks of the readers below. A missing section, or a
/// counter or index list whose name, count or length differs, throws
/// CheckpointError before anything is restored.
void read_state(const CheckpointReader& in, const TrainingState& state);

/// Serializers for the training-state building blocks workloads compose
/// their checkpoint sections from. All readers are STRICT: counts, names and
/// shapes must match the live object exactly, otherwise CheckpointError —
/// a checkpoint from a drifted architecture or a different optimizer must
/// never be silently loaded (ISSUE acceptance: fail loudly, never quietly).

/// Model section: named parameters then named buffers (batch-norm running
/// statistics etc.), each as (name, shape, raw float32).
void write_module(ByteWriter& out, const nn::Module& module);
/// Restores parameter and buffer values in place.
void read_module(ByteReader& in, nn::Module& module);

/// Optimizer section: the state_dict kind, slot buffers and scalars.
void write_optimizer(ByteWriter& out, optim::Optimizer& optimizer);
void read_optimizer(ByteReader& in, optim::Optimizer& optimizer);

/// RNG section: the full generator state including the Box-Muller cache.
void write_rng(ByteWriter& out, const tensor::Rng& rng);
void read_rng(ByteReader& in, tensor::Rng& rng);

/// FNV-1a 64-bit over raw bytes; the fingerprint primitive the resume tests
/// use to compare final weights / curves across interrupted and
/// uninterrupted runs.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h = kFnvOffset);

/// FNV-1a over every parameter and buffer of a module (names, shapes and raw
/// float32 payloads): two modules hash equal iff their state is bitwise
/// identical.
std::uint64_t hash_module(const nn::Module& module);

}  // namespace mlperf::checkpoint
