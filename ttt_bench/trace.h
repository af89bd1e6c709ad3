#pragma once

// Spans and sample statistics for the traced replay. Spans are recorded in
// memory from the benchmark's own code, around its calls into each layer.

#include <chrono>
#include <cstdint>
#include <vector>

namespace ttt_bench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Process CPU time (all threads) in seconds.
double process_cpu_seconds();

/// One interval at a layer boundary; `parent` indexes the enclosing span
/// (-1 at top level).
struct Span {
  const char* name;
  int parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span nested in the innermost open one; closes it on stop() or
  /// destruction. `name` must be a string literal.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer), index_(tracer.open(name)) {}
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Closes the span (once) and returns its duration in milliseconds.
    double stop();
    int index() const { return index_; }

   private:
    Tracer& tracer_;
    int index_;
    bool open_ = true;
  };

  double duration_ms(int index) const;
  /// Sum of the durations of the direct children of span `index`, in ms.
  double children_ms(int index) const;

 private:
  int open(const char* name);
  void close(int index);
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> xs);
/// Nearest-rank percentile, p in (0, 100]; 0 when empty.
double percentile(std::vector<double> xs, double p);

}  // namespace ttt_bench
