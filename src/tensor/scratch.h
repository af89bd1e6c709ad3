#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace mlperf::tensor {

/// Per-thread bump allocator for kernel scratch: GEMM pack panels, im2col
/// column buffers, per-sample gradient partials. Chunks are 64-byte aligned
/// and retained across frames, so a steady-state training step performs zero
/// heap allocations for scratch — the arena only grows until the largest
/// working set has been seen once.
///
/// Usage: open a Frame, alloc() from it, let the Frame restore the watermark
/// on scope exit. Frames nest (a GEMM called inside a conv reuses the same
/// arena above the conv's own buffers). Pointers stay valid for the lifetime
/// of the frame that allocated them, including across mid-frame growth: a
/// full chunk is never reallocated, a new chunk is appended instead.
///
/// Not thread-safe; each thread uses its own instance via tls(). Scratch
/// written by the calling thread before a parallel_for (e.g. a shared packed
/// B panel) may be read by the team's workers: the fork and the join provide
/// the happens-before edges.
class ScratchArena {
 public:
  class Frame {
   public:
    explicit Frame(ScratchArena& arena)
        : arena_(arena), saved_chunk_(arena.cur_chunk_), saved_used_(arena.cur_used_) {}
    ~Frame() {
      arena_.cur_chunk_ = saved_chunk_;
      arena_.cur_used_ = saved_used_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    /// Uninitialized, 64-byte-aligned storage for n floats (n >= 0).
    float* alloc(std::int64_t n) { return arena_.alloc(n); }

   private:
    ScratchArena& arena_;
    std::size_t saved_chunk_;
    std::int64_t saved_used_;
  };

  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// The calling thread's arena. Pool workers each get their own.
  static ScratchArena& tls();

  /// Cumulative number of chunk (heap) allocations this arena has made.
  /// Flat across steps == the steady state allocates nothing.
  std::int64_t chunk_allocations() const { return chunk_allocations_; }

  /// Total floats of capacity currently retained.
  std::int64_t capacity() const;

  /// Drop all retained chunks (only valid with no open frames).
  void release();

 private:
  struct AlignedDelete {
    void operator()(float* p) const;
  };
  struct Chunk {
    std::unique_ptr<float[], AlignedDelete> data;
    std::int64_t size = 0;
  };

  float* alloc(std::int64_t n);

  std::vector<Chunk> chunks_;
  std::size_t cur_chunk_ = 0;   // chunk the bump pointer is in
  std::int64_t cur_used_ = 0;   // floats used in chunks_[cur_chunk_]
  std::int64_t chunk_allocations_ = 0;
};

}  // namespace mlperf::tensor
