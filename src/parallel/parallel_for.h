#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mlperf::parallel {

/// Intra-op parallelism knob. `n` counts the threads doing tensor work: the
/// calling thread plus n-1 team workers; 1 (the default) starts no thread and
/// everything runs inline on the caller, exactly as the pre-parallelism code
/// did. Call from the main thread while no parallel work is in flight (e.g.
/// before harness::run_to_target) — the team is torn down and rebuilt here,
/// which is not safe mid-op.
void set_num_threads(std::int64_t n);
std::int64_t num_threads();

namespace detail {
using RangeFn = void (*)(const void* ctx, std::int64_t begin, std::int64_t end);
/// Splits [0, range) over the team and runs fn(ctx, ...) on every part,
/// part 0 on the caller. Returns false, having run nothing, when the call
/// should run inline: one thread, one chunk, or the team already busy.
bool fork_join(std::int64_t grain, std::int64_t range, RangeFn fn, const void* ctx);
}  // namespace detail

/// Invoke fn(begin, end) on disjoint contiguous subranges covering
/// [0, range): the caller runs the first and team worker w runs part w+1.
///
/// Subrange boundaries always fall on multiples of `grain`, and the static
/// contiguous partition (min(chunks, num_threads()) parts) is fixed before
/// any part runs — there is no work stealing and no dynamic re-splitting.
/// Ops whose elements are computed independently (disjoint writes,
/// per-element accumulation order unchanged) are therefore bitwise identical
/// at any thread count, including the inline single-threaded path.
/// Exceptions thrown by fn are rethrown on the calling thread once every
/// part has finished (the lowest failing part wins). Runs inline at one
/// thread, when only one subrange exists, or when the team is busy — a
/// nested call from inside any part, or a call from a second thread.
template <typename Fn>
void parallel_for(std::int64_t grain, std::int64_t range, const Fn& fn) {
  if (range <= 0) return;
  const detail::RangeFn call = [](const void* ctx, std::int64_t begin, std::int64_t end) {
    (*static_cast<const Fn*>(ctx))(begin, end);
  };
  if (!detail::fork_join(grain, range, call, &fn)) fn(std::int64_t{0}, range);
}

/// Deterministic ordered reduction over [0, range).
///
/// The range is cut into ceil(range/grain) chunks whose boundaries depend
/// only on (grain, range) — never on the thread count — and the per-chunk
/// results are combined in ascending chunk order on the calling thread. A
/// non-associative combine (float/double accumulation) therefore yields the
/// same bits at every thread count; it differs from an unchunked sequential
/// fold only when range > grain, so pick `grain` at least as large as the
/// sizes that must match a legacy sequential path exactly.
template <typename T, typename ChunkFn, typename CombineFn>
T parallel_reduce(std::int64_t grain, std::int64_t range, T identity, const ChunkFn& chunk,
                  const CombineFn& combine) {
  if (range <= 0) return identity;
  const std::int64_t g = grain < 1 ? 1 : grain;
  if (range <= g) return combine(identity, chunk(std::int64_t{0}, range));
  const std::int64_t n_chunks = (range + g - 1) / g;
  std::vector<T> partials(static_cast<std::size_t>(n_chunks), identity);
  parallel_for(1, n_chunks, [&](std::int64_t c_begin, std::int64_t c_end) {
    for (std::int64_t c = c_begin; c < c_end; ++c) {
      const std::int64_t lo = c * g;
      const std::int64_t hi = std::min(lo + g, range);
      partials[static_cast<std::size_t>(c)] = chunk(lo, hi);
    }
  });
  T acc = identity;
  for (const T& p : partials) acc = combine(acc, p);
  return acc;
}

/// Grain size targeting ~32k scalar ops per subrange, given the work one
/// item costs. Keeps tiny tensors on the inline path (zero dispatch
/// overhead) while splitting big ones finely enough to load every worker.
std::int64_t grain_for(std::int64_t work_per_item);

}  // namespace mlperf::parallel
