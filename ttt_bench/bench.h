#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/benchmark_spec.h"
#include "harness/reference.h"

namespace ttt_bench {

/// One named result value with its unit, printed as `name = value unit` and
/// as an entry of the result line's "metrics" object.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// A benchmark workload: one Table-1 reference workload at a fixed thread
/// count.
struct WorkloadDef {
  const char* name;
  mlperf::core::BenchmarkId id;
  std::int64_t threads;
  /// Names the workload's records in outcomes.txt; one family for every
  /// thread count, since the trained bits do not depend on it.
  const char* family;
  /// A training session that has not reached the target after this many
  /// epochs fails.
  std::int64_t max_epochs;
};

struct TraceOptions {
  mlperf::harness::WorkloadScale scale = mlperf::harness::WorkloadScale::kReference;
  std::uint64_t seed = 42;
  double seconds = 1.0;  ///< minimum length of the traced run
};

struct TracedResult {
  std::vector<Metric> metrics;
  std::int64_t steps = 0;
};

/// Thrown when the traced replay does not reproduce the workload's own
/// train_epoch: the traced run then reports this error instead of numbers.
class ReplayMismatch : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Trains the reference workload for a few untraced epochs, then replays it
/// step by step with spans around every layer call and returns the per-layer
/// metrics. Throws ReplayMismatch if the replay diverges from the workload.
TracedResult run_traced(const WorkloadDef& workload, const TraceOptions& options);

}  // namespace ttt_bench
