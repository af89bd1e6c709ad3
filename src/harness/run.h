#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/quality.h"
#include "core/submission.h"
#include "core/timer.h"
#include "models/workload.h"

namespace mlperf::harness {

/// One (epoch, quality, elapsed-time) sample from a training session; the
/// series regenerates Figure 3's accuracy-vs-epoch curves.
struct EpochPoint {
  std::int64_t epoch = 0;
  double quality = 0.0;
  double elapsed_ms = 0.0;  ///< timed milliseconds since run_start
};

/// Fault-injection plan for the preemption/restart studies: a deterministic
/// one-shot kill after a given completed-epoch count. The fault fires AFTER
/// the epoch's checkpoint (if any) is written — modeling a node lost between
/// useful work, the common preemption case.
struct FaultPlan {
  enum class Action {
    kThrow,    ///< throw Preempted (the in-process stand-in for kSigkill)
    kSigkill,  ///< raise(SIGKILL) — the CI crash-resume leg's real process death
  };
  /// Fire once when this many epochs have completed (1-based); -1 = never.
  std::int64_t kill_after_epoch = -1;
  Action action = Action::kThrow;
};

/// Thrown by run_to_target when a FaultPlan preempts the session.
/// `checkpoint_path` is the most recent checkpoint available to resume from
/// (empty if none was ever written — restart cold in that case).
class Preempted : public std::runtime_error {
 public:
  Preempted(std::int64_t epochs, std::string ckpt)
      : std::runtime_error("run preempted after epoch " + std::to_string(epochs)),
        epochs_completed(epochs),
        checkpoint_path(std::move(ckpt)) {}

  std::int64_t epochs_completed;
  std::string checkpoint_path;
};

/// Options controlling one timed training session.
struct RunOptions {
  std::uint64_t seed = 1;
  std::int64_t max_epochs = 64;          ///< safety bound; quality should hit first
  /// Threads doing tensor-kernel work (parallel::set_num_threads): the
  /// calling thread plus num_threads-1 team workers. Only a loader built
  /// with `prefetch = true` also assembles batches on a thread of its own
  /// above 1, and no workload builds one by default (`prefetch_loader` is
  /// false). 1 = the exact single-threaded pre-parallelism execution, with
  /// no thread started. A system knob, not a hyperparameter: the kernels
  /// partition work so the trained model is bitwise independent of this
  /// value (paper §2.2.3 treats nondeterminism as a variance source).
  std::int64_t num_threads = 1;
  /// Write a full-state checkpoint to `checkpoint_path` after every N
  /// completed epochs (0 = never). Checkpoint writes happen inside the timed
  /// run window, so per §3.2.1 their cost is charged to the result (logged
  /// as `checkpoint_saved` events for auditability).
  std::int64_t checkpoint_every_n_epochs = 0;
  std::string checkpoint_path;
  /// Resume a preempted session from this checkpoint file. The restore cost
  /// also lands inside the timed window (`checkpoint_restored` event), and
  /// the prior sessions' timed milliseconds are carried forward, so the
  /// reported time-to-train spans the whole preempt/restart history.
  std::string resume_from;
  FaultPlan fault;
  /// Step-scoped conv pack cache (nn::set_conv_pack_cache): conv2d's forward
  /// lowering sweep also writes the dW GEMM's operand as ready-packed panels
  /// and keeps them alive for the backward, which then neither lowers nor
  /// packs. Purely a memory/speed knob — gradients are bitwise identical
  /// either way — capped at `conv_pack_cache_cap_bytes` of live panel bytes.
  bool conv_pack_cache = true;
  std::int64_t conv_pack_cache_cap_bytes = std::int64_t{256} << 20;
  /// Reset and enable the per-op time profile (core::OpProfile) for this run
  /// and emit one `op_profile` mlog event per instrumented op at run_stop.
  bool op_profile = false;
};

/// The outcome of one training session.
struct RunOutcome {
  bool quality_reached = false;
  double final_quality = 0.0;
  std::int64_t epochs = 0;
  double time_to_train_ms = 0.0;    ///< per the timing rules
  double unexcluded_time_ms = 0.0;  ///< without the §3.2.1 exclusions
  std::vector<EpochPoint> curve;
  /// Log of the FINAL session only. Prior preempted sessions' logs are
  /// preserved verbatim inside the checkpoint: the latest one in its "log"
  /// section, every earlier one in "prior_logs" (a restarted submission
  /// ships one log artifact per session).
  core::MlLog log;
  std::int64_t resumed_from_epoch = -1;  ///< -1 when not resumed
  std::int64_t checkpoints_written = 0;
  /// Tensor-pool misses AFTER the first full train+eval iteration (the
  /// warm-up that populates the pool with every recurring buffer shape).
  /// Zero in steady state; 0 as well when the run lasted a single epoch
  /// (nothing past warm-up to measure).
  std::int64_t pool_steady_misses = 0;
};

/// Run one workload to the quality target under the paper's timing rules:
/// reformat (untimed) -> model creation (untimed, capped) -> run_start ->
/// [restore?] -> [train_epoch, evaluate, checkpoint?, fault?]* -> run_stop on
/// quality. Everything is logged. Throws checkpoint::CheckpointError if
/// `resume_from` names a corrupt, version-mismatched, or wrong-run checkpoint
/// (never silently ignores it), and Preempted when the FaultPlan fires.
RunOutcome run_to_target(models::Workload& workload, const core::QualityMetric& target,
                         const RunOptions& options, const core::Clock& clock);

/// Convenience: wall-clock run.
RunOutcome run_to_target(models::Workload& workload, const core::QualityMetric& target,
                         const RunOptions& options);

/// Convert a RunOutcome to the submission artifact.
core::RunResult to_run_result(const RunOutcome& outcome);

/// Trajectory fingerprint for the resume-identity tests: FNV-1a over epoch
/// count, quality-reached, and the curve's (epoch, quality-bit-pattern)
/// sequence. Deliberately EXCLUDES the elapsed-ms fields — wall time is
/// accounted (carried across restarts), not replayed, so it is the one part
/// of an outcome a bitwise-identical resume legitimately changes.
std::uint64_t outcome_fingerprint(const RunOutcome& outcome);

/// Run the full §3.2.2 protocol for a workload factory: `n_runs` sessions
/// differing only by seed; returns per-run outcomes (aggregate with
/// core::aggregate_runs).
template <typename MakeWorkload>
std::vector<RunOutcome> run_protocol(MakeWorkload&& make_workload,
                                     const core::QualityMetric& target,
                                     const RunOptions& base_options, std::int64_t n_runs) {
  std::vector<RunOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(n_runs));
  for (std::int64_t r = 0; r < n_runs; ++r) {
    auto workload = make_workload();
    RunOptions opts = base_options;
    opts.seed = base_options.seed + static_cast<std::uint64_t>(r) * 7919;
    outcomes.push_back(run_to_target(*workload, target, opts));
  }
  return outcomes;
}

}  // namespace mlperf::harness
