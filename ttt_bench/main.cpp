// Time-to-train benchmark over Table-1 reference workloads.
//
//   ttt_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--scale reference|smoke] [--outcomes FILE] [--commit SHA]
//
// --trace 0 runs the §3.2.2 protocol with tracing off: training sessions for
// about S seconds (at least one), each trained to the workload's quality
// target by harness::run_to_target. The sessions train the recorded seeds
// of FILE (outcomes.txt) in turn from seed N on, and each must end with its
// recorded outcome bit for bit. The §3.2.1 timing rules run on the process
// CPU-time clock (all threads), and each epoch's time is scaled to the
// reference host speed by the probe in probe.h, so the end-to-end times are
// CPU seconds at that speed. It prints the end-to-end metrics. --trace 1
// replays the workload step by step with spans around each layer call and
// prints the per-layer metrics (see replay.cpp). Every metric is printed as
// `name = value unit`; the last line is one JSON object with the keys
// correct, attempted, failed and metrics. ttt_bench/run.py builds this
// program and passes it ttt_bench/outcomes.txt.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "core/aggregate.h"
#include "core/mlog.h"
#include "harness/run.h"
#include "probe.h"
#include "trace.h"

namespace ttt_bench {
namespace {

using namespace mlperf;

constexpr std::uint64_t kDefaultSeed = 42;
/// Setup is timed at least this many times per run (sessions plus extra
/// prepare_data + build_model rounds) and reported as the median.
constexpr std::int64_t kSetupSamples = 9;

/// The workloads: image_classification at one thread is the bypass case for
/// the thread pool, and at two threads runs the same training through it;
/// reinforcement_learning runs thousands of batch-1 inference forwards inside
/// MCTS. translation_nonrecurrent.t2 is left out: its time-to-train spreads
/// 37-100 epochs across seeds and a session takes 18-37 s at two threads,
/// too slow to repeat enough in one run.
///
/// max_epochs sits above the slowest recorded seed (ResNet 32 epochs,
/// MiniGo 34).
constexpr WorkloadDef kWorkloads[] = {
    {"image_classification.t1", core::BenchmarkId::kImageClassification, 1,
     "image_classification", 40},
    {"image_classification.t2", core::BenchmarkId::kImageClassification, 2,
     "image_classification", 40},
    {"reinforcement_learning.t1", core::BenchmarkId::kReinforcementLearning, 1,
     "reinforcement_learning", 48},
};

/// What a reference-scale session trained at one seed ends with.
struct Outcome {
  std::uint64_t fingerprint;  ///< harness::outcome_fingerprint
  std::int64_t epochs;        ///< epochs to target
};

struct Options {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  harness::WorkloadScale scale = harness::WorkloadScale::kReference;
  std::string outcomes_path;
  std::string commit = "unknown";
};

/// The workload family's records from an outcomes file: lines of
/// `family seed fingerprint-hex epochs`, `#` starting a comment line.
std::map<std::uint64_t, Outcome> read_outcomes(const std::string& path, const char* family) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read outcomes file " + path);
  std::map<std::uint64_t, Outcome> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t seed = 0;
    Outcome outcome{};
    if (!(fields >> name >> seed >> std::hex >> outcome.fingerprint >> std::dec >> outcome.epochs))
      throw std::runtime_error("bad line in " + path + ": " + line);
    if (name == family) records[seed] = outcome;
  }
  if (records.empty()) throw std::runtime_error(path + " has no records for " + family);
  return records;
}

/// Training seeds of a run at --seed n: the recorded seeds in turn, from the
/// first one at or after n (wrapping past the largest to the smallest). A
/// seed without a record is never trained.
std::vector<std::uint64_t> seeds_from(const std::map<std::uint64_t, Outcome>& records,
                                      std::uint64_t n) {
  std::vector<std::uint64_t> order;
  const std::uint64_t span = records.rbegin()->first;
  auto it = records.lower_bound(n == 0 ? span : (n - 1) % span + 1);
  for (std::size_t i = 0; i < records.size(); ++i, ++it) {
    if (it == records.end()) it = records.begin();
    order.push_back(it->first);
  }
  return order;
}

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr, "ttt_bench: %s\nworkloads:", error.c_str());
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    auto number = [&](double lo) {
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(v >= lo))
        usage("bad value '" + value + "' for " + flag);
      return v;
    };
    if (flag == "--workload") {
      for (const WorkloadDef& w : kWorkloads)
        if (value == w.name) o.workload = &w;
      if (!o.workload) usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad seed '" + value + "'");
    } else if (flag == "--seconds") {
      o.seconds = number(0.001);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--scale") {
      if (value == "reference") o.scale = harness::WorkloadScale::kReference;
      else if (value == "smoke") o.scale = harness::WorkloadScale::kSmoke;
      else usage("--scale takes reference or smoke");
    } else if (flag == "--outcomes") {
      o.outcomes_path = value;
    } else if (flag == "--commit") {
      o.commit = value;
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (!o.workload) usage("--workload is required");
  return o;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Host and build the numbers were taken on; they do not carry across hosts.
void print_provenance(const Options& o) {
  std::printf(
      "{\"provenance\": {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", \"workload\": \"%s\", \"threads\": %lld, "
      "\"scale\": \"%s\", \"seed\": %llu}}\n",
      sysconf(_SC_NPROCESSORS_ONLN), core::json_escape(cpu_model()).c_str(),
      core::json_escape(compiler()).c_str(), TTT_BENCH_BUILD_TYPE,
      core::json_escape(o.commit).c_str(), o.workload->name,
      static_cast<long long>(o.workload->threads),
      o.scale == harness::WorkloadScale::kReference ? "reference" : "smoke",
      static_cast<unsigned long long>(o.seed));
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// §3.2.2 aggregation: the olympic mean once there are three or more
/// values, the plain mean below that; 0 when every session failed.
double aggregate(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  if (xs.size() >= 3) {
    const core::AggregationPolicy policy{static_cast<std::int64_t>(xs.size()), 1, 1};
    return core::olympic_mean(xs, policy);
  }
  return core::mean(xs);
}

double region_ms(const core::MlLog& log, const char* start, const char* stop) {
  const core::LogEvent* a = log.find(start);
  const core::LogEvent* b = log.find(stop);
  return a && b ? b->time_ms - a->time_ms : 0.0;
}

/// Durations from each `start` event to the next `stop` event, in ms.
std::vector<double> intervals_ms(const core::MlLog& log, const char* start, const char* stop) {
  std::vector<double> out;
  double open = -1.0;
  for (const core::LogEvent& e : log.events()) {
    if (e.key == start) {
      open = e.time_ms;
    } else if (e.key == stop && open >= 0.0) {
      out.push_back(e.time_ms - open);
      open = -1.0;
    }
  }
  return out;
}

int run_end_to_end(const Options& o) {
  const WorkloadDef& w = *o.workload;
  const core::SuiteVersion suite = core::suite_v05();
  const core::QualityMetric target = harness::scaled_target(core::find_spec(suite, w.id), o.scale);
  print_provenance(o);
  // With --outcomes at reference scale the sessions train recorded seeds and
  // must end with the recorded outcome. Otherwise (smoke scale, or recording
  // outcomes) they train seeds N, N+1, ... and must reach the target.
  std::map<std::uint64_t, Outcome> records;
  std::vector<std::uint64_t> seeds;
  if (o.scale == harness::WorkloadScale::kReference && !o.outcomes_path.empty()) {
    records = read_outcomes(o.outcomes_path, w.family);
    seeds = seeds_from(records, o.seed);
  }
  const auto session_seed = [&](std::int64_t i) {
    return seeds.empty() ? o.seed + static_cast<std::uint64_t>(i)
                         : seeds[static_cast<std::size_t>(i) % seeds.size()];
  };

  // CPU seconds at the reference host speed (probe.h).
  std::vector<double> ttt_s, epochs, setup_s, epoch_s, eval_s;
  std::vector<double> raw_epoch_s, readings_s;  // unscaled, for the info line
  // A session that throws, misses its target within the workload's
  // max_epochs or ends otherwise than its record is a failed run, and makes
  // the output incorrect.
  std::int64_t failed = 0;
  bool outputs_correct = true;
  // Another session starts while the run, with half a typical session
  // added, stays within --seconds, so runs end near --seconds on average.
  // No session starts after an incorrect output.
  const auto run_start = Clock::now();
  std::vector<double> session_wall_s;
  std::int64_t sessions = 0;
  const auto another_session = [&] {
    if (sessions == 0) return true;
    if (!outputs_correct) return false;
    return seconds_since(run_start) + 0.5 * median(session_wall_s) < o.seconds;
  };
  for (; another_session(); ++sessions) {
    const std::int64_t i = sessions;
    harness::RunOptions run;
    run.seed = session_seed(i);
    run.num_threads = w.threads;
    run.max_epochs = w.max_epochs;
    auto workload = harness::make_reference_workload(w.id, o.scale);
    ProbedWorkload probed(*workload);
    const ProbeExcludingCpuClock clock(probed);
    harness::RunOutcome out;
    const auto wall0 = Clock::now();
    try {
      out = harness::run_to_target(probed, target, run, clock);
      session_wall_s.push_back(seconds_since(wall0));
    } catch (const std::exception& e) {
      session_wall_s.push_back(seconds_since(wall0));
      std::printf("session %lld seed %llu: FAILED, threw: %s\n", static_cast<long long>(i),
                  static_cast<unsigned long long>(run.seed), e.what());
      ++failed;
      outputs_correct = false;
      continue;
    }
    const std::uint64_t fingerprint = harness::outcome_fingerprint(out);
    std::string verdict = out.quality_reached ? "ok" : "FAILED, target missed";
    if (!records.empty()) {
      const Outcome& want = records.at(run.seed);
      if (fingerprint != want.fingerprint || out.epochs != want.epochs) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "FAILED, expected fingerprint %016llx in %lld epochs",
                      static_cast<unsigned long long>(want.fingerprint),
                      static_cast<long long>(want.epochs));
        verdict = buf;
      }
    }
    // Each epoch's training and evaluation scale by the probe reading taken
    // just before it; the rest of the timed run (logging between them) by
    // the session's median reading.
    const std::vector<double> train_ms =
        intervals_ms(out.log, core::keys::kEpochStart, core::keys::kEpochStop);
    const std::vector<double> eval_ms =
        intervals_ms(out.log, core::keys::kEvalStart, core::keys::kEvalAccuracy);
    const std::vector<double>& readings = probed.epoch_readings();
    if (train_ms.size() != readings.size() || eval_ms.size() != readings.size())
      throw std::logic_error("expected one evaluation per epoch");
    double ttt_ms = 0.0, rest_ms = out.time_to_train_ms;
    for (std::size_t e = 0; e < readings.size(); ++e) {
      ttt_ms += (train_ms[e] + eval_ms[e]) * speed_scale(readings[e]);
      rest_ms -= train_ms[e] + eval_ms[e];
    }
    ttt_ms += rest_ms * speed_scale(median(readings));
    std::printf(
        "session %lld seed %llu: %lld epochs, ttt %.3f s (%.3f cpu-s unscaled, %.3f wall-s "
        "with setup), fingerprint %016llx: %s\n",
        static_cast<long long>(i), static_cast<unsigned long long>(run.seed),
        static_cast<long long>(out.epochs), ttt_ms * 1e-3, out.time_to_train_ms * 1e-3,
        session_wall_s.back(), static_cast<unsigned long long>(fingerprint), verdict.c_str());
    if (verdict != "ok") {
      ++failed;
      outputs_correct = false;
      continue;
    }
    ttt_s.push_back(ttt_ms * 1e-3);
    epochs.push_back(static_cast<double>(out.epochs));
    setup_s.push_back(1e-3 *
                      (region_ms(out.log, core::keys::kReformatStart, core::keys::kReformatStop) +
                       region_ms(out.log, core::keys::kModelCreationStart,
                                 core::keys::kModelCreationStop)) *
                      speed_scale(probed.setup_readings().front()));
    for (std::size_t e = 0; e < readings.size(); ++e) {
      epoch_s.push_back(1e-3 * train_ms[e] * speed_scale(readings[e]));
      eval_s.push_back(1e-3 * eval_ms[e] * speed_scale(readings[e]));
      raw_epoch_s.push_back(1e-3 * train_ms[e]);
      readings_s.push_back(readings[e]);
    }
  }
  // More setup samples, each the same untimed reformat + model creation.
  for (std::int64_t i = sessions; static_cast<std::int64_t>(setup_s.size()) < kSetupSamples; ++i) {
    auto workload = harness::make_reference_workload(w.id, o.scale);
    ProbedWorkload probed(*workload);
    const ProbeExcludingCpuClock clock(probed);
    const double t0 = clock.now_ms();
    probed.prepare_data();
    probed.build_model(session_seed(i));
    setup_s.push_back(1e-3 * (clock.now_ms() - t0) *
                      speed_scale(probed.setup_readings().front()));
  }

  std::printf("failed_run_ratio = %.6g (%lld of %lld sessions)\n",
              static_cast<double>(failed) / static_cast<double>(sessions),
              static_cast<long long>(failed), static_cast<long long>(sessions));
  // Deterministic for a seed but spread across seeds by more than any bound
  // allows (ResNet: 7-32 epochs), so it is printed, not a result metric.
  std::printf("epochs_to_target = %.6g count (olympic mean)\n", aggregate(epochs));
  std::printf("ttt_olympic_s = %.6g s (olympic mean of the sessions' scaled ttt)\n",
              aggregate(ttt_s));
  std::printf("unscaled: epoch_train %.6g cpu-s, probe %.6g s (reference %.6g s)\n",
              median(raw_epoch_s), median(readings_s), kProbeReferenceSeconds);
  std::printf("samples: %zu sessions, %zu epochs, %zu evals, %zu setups, %.1f wall-s\n",
              ttt_s.size(), epoch_s.size(), eval_s.size(), setup_s.size(),
              seconds_since(run_start));
  // Expected time-to-train over seeds: the run's timed seconds per epoch to
  // target times the mean epochs to target of the recorded seeds (smoke-scale
  // runs have no records and use their own mean).
  double recorded_epochs = 0.0;
  for (const auto& record : records) recorded_epochs += static_cast<double>(record.second.epochs);
  const double mean_epochs = !records.empty() ? recorded_epochs / static_cast<double>(records.size())
                             : epochs.empty()  ? 0.0
                                               : core::mean(epochs);
  const double ttt_per_epoch = epochs.empty() ? 0.0 : core::mean(ttt_s) / core::mean(epochs);
  const std::vector<Metric> metrics = {
      {"ttt_s", ttt_per_epoch * mean_epochs, "s"},
      {"epoch_train_s", median(epoch_s), "s"},
      {"eval_s", median(eval_s), "s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  print_result(outputs_correct && !ttt_s.empty(), sessions, failed, metrics);
  return 0;
}

int run_trace(const Options& o) {
  print_provenance(o);
  TraceOptions t;
  t.scale = o.scale;
  t.seed = o.seed;
  t.seconds = o.seconds;
  try {
    const TracedResult r = run_traced(*o.workload, t);
    std::printf("samples: %lld traced steps\n", static_cast<long long>(r.steps));
    print_result(true, r.steps, 0, r.metrics);
    return 0;
  } catch (const ReplayMismatch& e) {
    std::fprintf(stderr, "ttt_bench: %s\n", e.what());
    print_result(false, 1, 1, {});
    return 1;
  }
}

}  // namespace
}  // namespace ttt_bench

int main(int argc, char** argv) {
  const ttt_bench::Options o = ttt_bench::parse(argc, argv);
  try {
    return o.trace ? ttt_bench::run_trace(o) : ttt_bench::run_end_to_end(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ttt_bench: %s\n", e.what());
    return 1;
  }
}
