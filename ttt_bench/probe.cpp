// Built with -falign-functions=64 -falign-loops=64 and branches kept within
// 32-byte boundaries (see CMakeLists.txt): without them the probe's inner
// loop ran 1.5x slower in one build than in another that only added an
// unrelated function elsewhere.
#include "probe.h"

#include <atomic>
#include <cmath>
#include <ctime>
#include <stdexcept>

#include "parallel/parallel_for.h"
#include "trace.h"

namespace ttt_bench {
namespace {

constexpr int kN = 64;
constexpr int kReps = 200;
/// Most threads that probe at once.
constexpr int kMaxProbeThreads = 8;
/// Floats per thread's operands, rounded up to whole 4 KiB pages.
constexpr int kSlotFloats = (3 * (kN * kN + 64) + 1023) / 1024 * 1024;

/// Each thread's operands at fixed offsets from a page boundary, so that
/// their cache-set placement is the same in every run.
alignas(4096) float g_buffers[kMaxProbeThreads][kSlotFloats];
/// Receives one result of every probe so that the compiler keeps the work.
std::atomic<float> g_sink;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double probe_seconds(int slot) {
  float* a = g_buffers[slot];
  float* b = a + kN * kN + 64;
  float* c = b + kN * kN + 64;
  const double t0 = thread_cpu_seconds();
  for (int i = 0; i < kN * kN; ++i) {
    a[i] = 1.0001f;
    b[i] = 0.9999f;
  }
  // kReps products C = A B of 64x64 float matrices; each feeds one element
  // of A for the next, so no repetition can be skipped.
  for (int r = 0; r < kReps; ++r) {
    for (int i = 0; i < kN; ++i) {
      float* ci = c + i * kN;
      for (int j = 0; j < kN; ++j) ci[j] = 0.0f;
      for (int k = 0; k < kN; ++k) {
        const float aik = a[i * kN + k];
        const float* bk = b + k * kN;
        for (int j = 0; j < kN; ++j) ci[j] += aik * bk[j];
      }
    }
    a[r % (kN * kN)] = c[(r * 7) % (kN * kN)] * 1e-6f + 1.0f;
  }
  const double s = thread_cpu_seconds() - t0;
  g_sink.store(c[5], std::memory_order_relaxed);
  return s;
}

double probe_working_cores() {
  const std::int64_t n = mlperf::parallel::num_threads();
  if (n > kMaxProbeThreads) throw std::logic_error("too many threads to probe");
  std::vector<double> readings(static_cast<std::size_t>(n));
  mlperf::parallel::parallel_for(1, n, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      readings[static_cast<std::size_t>(i)] = probe_seconds(static_cast<int>(i));
  });
  double sum = 0.0;
  for (double r : readings) sum += r;
  return sum;
}

double speed_scale(double reading_s) {
  return std::pow(kProbeReferenceSeconds / reading_s, kProbeExponent);
}

void ProbedWorkload::prepare_data() {
  const double total = probe_working_cores();
  setup_readings_.push_back(total / static_cast<double>(mlperf::parallel::num_threads()));
  probe_total_s_ += total;
  inner_.prepare_data();
}

void ProbedWorkload::train_epoch() {
  const double total = probe_working_cores();
  epoch_readings_.push_back(total / static_cast<double>(mlperf::parallel::num_threads()));
  probe_total_s_ += total;
  inner_.train_epoch();
}

double ProbeExcludingCpuClock::now_ms() const {
  return (process_cpu_seconds() - probed_.probe_total_seconds()) * 1e3;
}

}  // namespace ttt_bench
