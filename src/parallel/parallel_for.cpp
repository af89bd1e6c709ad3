#include "parallel/parallel_for.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace mlperf::parallel {

namespace {

/// One parallel_for call's static partition: part p owns chunks
/// [p*q + min(p,r), ...), i.e. the same grain-aligned interval every run.
struct Job {
  detail::RangeFn fn = nullptr;
  const void* ctx = nullptr;
  std::int64_t grain = 1;
  std::int64_t range = 0;
  std::int64_t n_chunks = 0;
  std::int64_t parts = 0;
};

/// A fork-join team: the caller plus one worker thread per extra part.
/// Worker w always runs part w+1. A fork publishes the job and bumps the
/// generation under the mutex; each worker with a part counts `pending_`
/// down, and the caller, after running part 0 itself, waits for zero. The
/// team takes one fork at a time: `busy_` turns any other call (nested, or
/// from a second thread) away to the inline path.
class Team {
 public:
  explicit Team(std::int64_t workers) : errors_(static_cast<std::size_t>(workers + 1)) {
    threads_.reserve(static_cast<std::size_t>(workers));
    try {
      for (std::int64_t w = 0; w < workers; ++w)
        threads_.emplace_back([this, w] { worker_loop(w + 1); });
    } catch (...) {
      stop_and_join();  // the workers already started
      throw;
    }
  }

  ~Team() { stop_and_join(); }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  bool fork_join(const Job& job) {
    if (busy_.exchange(true)) return false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = job;
      pending_ = job.parts - 1;
      ++generation_;
    }
    start_cv_.notify_all();
    run_part(job, 0);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return pending_ == 0; });
    }
    std::exception_ptr error;
    for (std::int64_t p = 0; p < job.parts; ++p) {
      auto& slot = errors_[static_cast<std::size_t>(p)];
      if (!error) error = slot;
      slot = nullptr;
    }
    busy_.store(false);
    if (error) std::rethrow_exception(error);
    return true;
  }

 private:
  void stop_and_join() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void run_part(const Job& job, std::int64_t p) {
    const std::int64_t q = job.n_chunks / job.parts;
    const std::int64_t r = job.n_chunks % job.parts;
    const std::int64_t c_begin = p * q + std::min(p, r);
    const std::int64_t c_end = c_begin + q + (p < r ? 1 : 0);
    try {
      job.fn(job.ctx, c_begin * job.grain, std::min(c_end * job.grain, job.range));
    } catch (...) {
      errors_[static_cast<std::size_t>(p)] = std::current_exception();
    }
  }

  void worker_loop(std::int64_t part) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      // A worker without a part in this fork skips it; the caller does not
      // wait for it.
      if (part >= job_.parts) continue;
      const Job job = job_;
      lock.unlock();
      run_part(job, part);
      lock.lock();
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  std::int64_t pending_ = 0;
  bool stop_ = false;
  Job job_;
  std::vector<std::exception_ptr> errors_;  // one slot per part
  std::atomic<bool> busy_{false};
  std::vector<std::thread> threads_;  // last: started once the rest exists
};

std::atomic<std::int64_t> g_num_threads{1};
std::unique_ptr<Team> g_team;

}  // namespace

void set_num_threads(std::int64_t n) {
  if (n < 1) throw std::invalid_argument("set_num_threads: n must be >= 1");
  if (n == g_num_threads) return;
  g_num_threads = 1;  // stays consistent with no team if starting one throws
  g_team.reset();     // joins the old workers
  if (n > 1) g_team = std::make_unique<Team>(n - 1);
  g_num_threads = n;
}

std::int64_t num_threads() { return g_num_threads; }

namespace detail {

bool fork_join(std::int64_t grain, std::int64_t range, RangeFn fn, const void* ctx) {
  Job job;
  job.fn = fn;
  job.ctx = ctx;
  job.grain = grain < 1 ? 1 : grain;
  job.range = range;
  job.n_chunks = (range + job.grain - 1) / job.grain;
  job.parts = std::min(job.n_chunks, num_threads());
  return job.parts > 1 && g_team->fork_join(job);
}

}  // namespace detail

std::int64_t grain_for(std::int64_t work_per_item) {
  constexpr std::int64_t kTargetOpsPerChunk = std::int64_t{1} << 15;
  if (work_per_item < 1) work_per_item = 1;
  const std::int64_t grain = kTargetOpsPerChunk / work_per_item;
  return grain < 1 ? 1 : grain;
}

}  // namespace mlperf::parallel
