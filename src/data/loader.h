#pragma once

#include <future>

#include "data/augment.h"
#include "data/dataset.h"

namespace mlperf::data {

/// A minibatch of images: NCHW tensor plus labels.
struct ImageBatch {
  tensor::Tensor images;             // [N, C, H, W]
  std::vector<std::int64_t> labels;  // size N
};

/// Epoch-based minibatch loader over a reformatted image set.
///
/// Each epoch draws a fresh shuffle from the run's Rng (the paper §2.2.3
/// lists "random data traversal" as a variance source — fixing the seed fixes
/// the traversal). Augmentation runs per example at load time, i.e. inside
/// the timed portion of training (paper §3.2.1).
///
/// With `prefetch` enabled the loader double-buffers: batch k+1 is augmented
/// and assembled by a std::async task while batch k trains (a deferred one,
/// run on the consumer when the batch is taken, at one thread). The shuffle
/// order is unchanged, and each batch's augmentation draws come from a child
/// Rng split off the run Rng on the consumer thread, in batch order — so a
/// fixed seed yields the same batches at any thread count, just not the same
/// draws as the non-prefetch path, which threads one Rng through every
/// example.
class ImageLoader {
 public:
  ImageLoader(const ReformattedImageSet& set, std::int64_t batch_size,
              const AugmentationPipeline* augment, tensor::Rng& rng, bool drop_last = false,
              bool prefetch = false);

  ImageLoader(const ImageLoader&) = delete;
  ImageLoader& operator=(const ImageLoader&) = delete;

  /// Start a new epoch (reshuffles; discards any in-flight prefetched batch).
  void start_epoch();

  /// True if another batch is available this epoch.
  bool has_next() const;

  /// Next minibatch; the last one may be smaller unless drop_last.
  ImageBatch next();

  std::int64_t batches_per_epoch() const;

  bool prefetch_enabled() const { return prefetch_; }

  /// ---- checkpoint support -----------------------------------------------
  /// Block until any in-flight prefetched batch has been fully assembled
  /// (the batch stays pending for the next next()). A checkpoint must drain
  /// the loader before snapshotting so no producer task is still running.
  void drain() const {
    if (pending_.valid()) pending_.wait();
  }
  /// True when every batch of the current epoch has been consumed — the only
  /// position at which the traversal state is checkpointable: between
  /// epochs the entire traversal is a pure function of the run Rng, so a
  /// restored Rng replays the next epoch's shuffle and augmentation draws
  /// exactly. (Mid-epoch, a prefetching loader has already consumed the rng
  /// split for the batch in flight, so a mid-epoch snapshot could not resume
  /// bitwise-identically.)
  bool epoch_exhausted() const;

 private:
  /// Kick off assembly of the next batch (prefetch mode). Advances cursor_.
  void schedule_next();
  /// Build the batch for shuffle positions [begin, end); `rng` drives the
  /// augmentation draws (ignored without an augmentation pipeline). Reads
  /// only epoch state that is frozen while a batch is in flight, so it is
  /// safe to run off-thread with a private rng.
  ImageBatch assemble(std::int64_t begin, std::int64_t end, tensor::Rng& rng) const;

  const ReformattedImageSet* set_;
  std::int64_t batch_size_;
  const AugmentationPipeline* augment_;  // nullptr = no augmentation (eval)
  tensor::Rng* rng_;
  bool drop_last_;
  bool prefetch_;
  std::vector<std::size_t> order_;
  std::int64_t cursor_ = 0;
  std::int64_t limit_ = 0;
  /// Valid = one batch pending or ready. Declared last so that it is
  /// destroyed first: an async task's future blocks until the task, which
  /// reads the members above, has finished.
  std::future<ImageBatch> pending_;
};

/// Assemble a batch tensor from (already augmented) examples.
ImageBatch make_batch(const std::vector<const ImageExample*>& examples);

}  // namespace mlperf::data
