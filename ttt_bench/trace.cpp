#include "trace.h"

#include <algorithm>
#include <cmath>
#include <ctime>

namespace ttt_bench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Tracer::Scope::stop() {
  if (open_) {
    tracer_.close(index_);
    open_ = false;
  }
  return tracer_.duration_ms(index_);
}

int Tracer::open(const char* name) {
  spans_.push_back({name, current_, now_ns(), -1});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  current_ = s.parent;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

double Tracer::duration_ms(int index) const {
  const Span& s = spans_[static_cast<std::size_t>(index)];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
}

double Tracer::children_ms(int index) const {
  double total = 0.0;
  for (std::size_t i = static_cast<std::size_t>(index) + 1; i < spans_.size(); ++i)
    if (spans_[i].parent == index) total += duration_ms(static_cast<int>(i));
  return total;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

}  // namespace ttt_bench
