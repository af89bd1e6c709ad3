#pragma once

// Host speed probe for the end-to-end times.
//
// On a virtual machine whose cores share their host with other machines, as
// on the 4-core Xeon the benchmark was tuned on, the neighbours' load slowed
// arithmetic on some cores by up to 1.8x, for seconds to minutes at a time,
// and CPU time slowed with it.
// Each prepare_data and train_epoch call is therefore preceded by a short
// fixed kernel, the probe, on each core that does the work, and the time of
// what follows is scaled by
// (kProbeReferenceSeconds / reading)^kProbeExponent: CPU seconds at the
// reference host speed. The probe is written here, not taken from the
// repository, so no change under test can move it, and it is built with fixed
// code alignment so no change elsewhere in the binary can move it either.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/timer.h"
#include "models/workload.h"

namespace ttt_bench {

/// The probe's reading, in seconds, on a core no other load shares: the
/// lowest per-core 10th percentile of 200 readings on each of the four cores
/// of the 4-core Xeon at 2.1 GHz named in the provenance line.
inline constexpr double kProbeReferenceSeconds = 0.022;
/// How strongly the workloads follow the probe. Over about 1000 epochs of
/// ResNet training under changing load, each followed by a 64x64 matrix
/// product kernel like this one, log epoch time against log kernel time had
/// slope 0.5-0.6, and scaling by the 0.7th power of the kernel's slowdown
/// gave the steadiest 60-epoch medians: their spread (quartile distance over
/// median) fell from 0.10-0.21 to 0.05.
inline constexpr double kProbeExponent = 0.7;

/// Runs the probe once and returns its CPU seconds on the calling thread.
/// Threads that probe at the same time pass different slots (0-7).
double probe_seconds(int slot = 0);

/// Runs the probe on the cores that do the work at parallel::num_threads():
/// on the calling thread at one thread, and once per pool worker through
/// parallel_for otherwise (the caller blocks while they run). Returns the
/// readings' sum, which is the probe's CPU time.
double probe_working_cores();

/// The factor that scales a time measured after a probe reading of
/// `reading_s` to the reference host speed.
double speed_scale(double reading_s);

/// A workload that runs probe_working_cores at the start of every
/// prepare_data and train_epoch call and otherwise forwards to the wrapped
/// workload. A reading is the mean over the probed cores; an epoch's reading
/// scales both that epoch's training and the evaluation that follows it.
class ProbedWorkload final : public mlperf::models::Workload {
 public:
  explicit ProbedWorkload(mlperf::models::Workload& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void prepare_data() override;
  void build_model(std::uint64_t seed) override { inner_.build_model(seed); }
  void train_epoch() override;
  double evaluate() override { return inner_.evaluate(); }
  std::map<std::string, double> hyperparameters() const override {
    return inner_.hyperparameters();
  }
  std::int64_t global_batch_size() const override { return inner_.global_batch_size(); }
  std::string model_signature() const override { return inner_.model_signature(); }
  std::string optimizer_name() const override { return inner_.optimizer_name(); }
  std::string augmentation_signature() const override {
    return inner_.augmentation_signature();
  }

  const std::vector<double>& setup_readings() const { return setup_readings_; }
  const std::vector<double>& epoch_readings() const { return epoch_readings_; }
  /// CPU seconds spent in the probe so far.
  double probe_total_seconds() const { return probe_total_s_; }

 private:
  mlperf::models::Workload& inner_;
  std::vector<double> setup_readings_, epoch_readings_;
  double probe_total_s_ = 0.0;
};

/// Process CPU time (all threads) minus the time a ProbedWorkload spent in
/// its probe, so the harness's regions and intervals hold only the
/// workload's own work.
class ProbeExcludingCpuClock final : public mlperf::core::Clock {
 public:
  explicit ProbeExcludingCpuClock(const ProbedWorkload& probed) : probed_(probed) {}
  double now_ms() const override;

 private:
  const ProbedWorkload& probed_;
};

}  // namespace ttt_bench
