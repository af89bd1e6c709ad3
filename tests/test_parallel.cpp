// Tests for the parallel execution layer (src/parallel): the fork-join team,
// the deterministic parallel_for/parallel_reduce contracts, and — the hard
// requirement — bitwise-identical kernel outputs at any thread count.
#include "parallel/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "data/loader.h"
#include "nn/functional.h"
#include "tensor/tensor.h"

namespace mlperf::parallel {
namespace {

using tensor::Rng;
using tensor::Tensor;

/// Every test leaves the process back in single-threaded mode so the rest of
/// the suite (and test-order shuffling) sees the default configuration.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_num_threads(1); }
};

TEST_F(ParallelTest, SetNumThreadsSizesTheTeam) {
  EXPECT_EQ(num_threads(), 1);
  for (std::int64_t threads : {1, 2, 4}) {
    set_num_threads(threads);
    EXPECT_EQ(num_threads(), threads);
    // One chunk per thread: the caller runs part 0 and each of the n-1
    // workers one more part.
    std::vector<std::thread::id> ran_on(static_cast<std::size_t>(threads));
    parallel_for(1, threads, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i)
        ran_on[static_cast<std::size_t>(i)] = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on[0], std::this_thread::get_id());
    EXPECT_EQ(std::set<std::thread::id>(ran_on.begin(), ran_on.end()).size(),
              static_cast<std::size_t>(threads));
  }
  EXPECT_THROW(set_num_threads(0), std::invalid_argument);
}

TEST_F(ParallelTest, ParallelForCoversRangeExactlyOnce) {
  // With two callers at once, one of them finds the team busy and runs its
  // calls inline; both must still cover their ranges exactly once.
  for (int callers : {1, 2}) {
    for (std::int64_t threads : {1, 2, 4}) {
      set_num_threads(threads);
      auto cover = [](std::int64_t range) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(range));
        for (auto& h : hits) h.store(0);
        parallel_for(3, range, [&](std::int64_t begin, std::int64_t end) {
          ASSERT_LE(std::int64_t{0}, begin);
          ASSERT_LE(begin, end);
          ASSERT_LE(end, range);
          for (std::int64_t i = begin; i < end; ++i) hits[static_cast<std::size_t>(i)]++;
        });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
      };
      auto sweep = [&] {
        for (int rep = 0; rep < 50; ++rep)
          for (std::int64_t range : {std::int64_t{1}, std::int64_t{7}, std::int64_t{1000}})
            cover(range);
      };
      std::vector<std::thread> threads_out;
      for (int c = 0; c < callers; ++c) threads_out.emplace_back(sweep);
      for (auto& t : threads_out) t.join();
    }
  }
}

TEST_F(ParallelTest, EmptyAndNegativeRangesAreNoOps) {
  set_num_threads(4);
  bool called = false;
  parallel_for(1, 0, [&](std::int64_t, std::int64_t) { called = true; });
  parallel_for(1, -5, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_F(ParallelTest, SingleElementRange) {
  set_num_threads(4);
  int calls = 0;
  parallel_for(8, 1, [&](std::int64_t begin, std::int64_t end) {
    ++calls;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 1);
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, ExceptionPropagatesAndPoolStaysUsable) {
  set_num_threads(4);
  // A throwing worker part, and a throwing caller part (part 0, which also
  // must not return before the workers are done with `fn`).
  for (std::int64_t first_bad : {50, 0}) {
    EXPECT_THROW(parallel_for(1, 100,
                              [&](std::int64_t begin, std::int64_t) {
                                if (begin >= first_bad) throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    // The team must survive a throwing body and keep serving work.
    std::atomic<std::int64_t> total{0};
    parallel_for(1, 100, [&](std::int64_t begin, std::int64_t end) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), 100);
  }
  // Every part throws: the lowest part's exception is the one rethrown.
  try {
    parallel_for(1, 100, [](std::int64_t begin, std::int64_t) {
      throw std::runtime_error(std::to_string(begin));
    });
    ADD_FAILURE() << "parallel_for did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST_F(ParallelTest, NestedParallelForRunsInline) {
  set_num_threads(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  parallel_for(1, 8, [&](std::int64_t ob, std::int64_t oe) {
    const std::thread::id outer = std::this_thread::get_id();
    for (std::int64_t o = ob; o < oe; ++o)
      parallel_for(1, 8, [&](std::int64_t ib, std::int64_t ie) {
        EXPECT_EQ(std::this_thread::get_id(), outer);  // the team is busy: inline
        for (std::int64_t i = ib; i < ie; ++i) hits[static_cast<std::size_t>(o * 8 + i)]++;
      });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, GrainForTargetsFixedWork) {
  EXPECT_GE(grain_for(1), 1);
  EXPECT_EQ(grain_for(1 << 20), 1);  // huge per-item work -> chunk of one
  EXPECT_GT(grain_for(1), grain_for(64));
}

TEST_F(ParallelTest, ParallelReduceIsThreadCountInvariant) {
  // Float summation is non-associative, so invariance here exercises the
  // fixed-chunk + ordered-combine contract, not luck.
  Rng rng(99);
  Tensor big = Tensor::randn({1 << 18}, rng);
  set_num_threads(1);
  const double sum1 = big.sum();
  const float l21 = big.l2_norm_sq();
  for (std::int64_t threads : {2, 4, 8}) {
    set_num_threads(threads);
    EXPECT_EQ(big.sum(), sum1);
    EXPECT_EQ(big.l2_norm_sq(), l21);
  }
}

/// Bytewise equality — EXPECT_EQ on floats would also pass for -0.0 vs 0.0
/// and miss NaN payloads; the determinism contract is *bitwise*.
void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)));
}

TEST_F(ParallelTest, MatmulBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(7);
  Tensor a = Tensor::randn({67, 45}, rng);
  Tensor b = Tensor::randn({45, 81}, rng);
  set_num_threads(1);
  const Tensor ref = a.matmul(b);
  for (std::int64_t threads : {2, 3, 4, 8}) {
    set_num_threads(threads);
    expect_bitwise_equal(a.matmul(b), ref);
  }
}

TEST_F(ParallelTest, Conv2dForwardAndBackwardBitwiseIdentical) {
  Rng rng(8);
  Tensor x = Tensor::randn({5, 4, 13, 11}, rng);
  Tensor w = Tensor::randn({6, 4, 3, 3}, rng);
  Tensor b = Tensor::randn({6}, rng);

  auto run = [&] {
    autograd::Variable vx(x, true), vw(w, true), vb(b, true);
    autograd::Variable y = nn::conv2d(vx, vw, vb, 2, 1);
    autograd::sum_all(y).backward();
    return std::tuple<Tensor, Tensor, Tensor, Tensor>{y.value(), vw.grad(), vx.grad(),
                                                      vb.grad()};
  };

  set_num_threads(1);
  const auto [y1, dw1, dx1, db1] = run();
  for (std::int64_t threads : {2, 4, 8}) {
    set_num_threads(threads);
    const auto [yn, dwn, dxn, dbn] = run();
    expect_bitwise_equal(yn, y1);
    expect_bitwise_equal(dwn, dw1);
    expect_bitwise_equal(dxn, dx1);
    expect_bitwise_equal(dbn, db1);
  }
}

TEST_F(ParallelTest, PoolingBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(9);
  // 64x64 planes make grain_for's chunk 8 planes, so 32 planes split 4 ways.
  Tensor x = Tensor::randn({4, 8, 64, 64}, rng);
  auto run = [&] {
    autograd::Variable vx(x, true);
    autograd::Variable y = nn::global_avg_pool(vx);
    autograd::sum_all(y).backward();
    return std::pair<Tensor, Tensor>{y.value(), vx.grad()};
  };
  set_num_threads(1);
  const auto [y1, dx1] = run();
  set_num_threads(4);
  const auto [y4, dx4] = run();
  expect_bitwise_equal(y4, y1);
  expect_bitwise_equal(dx4, dx1);
}

TEST_F(ParallelTest, PrefetchLoaderDeterministicAcrossThreadCounts) {
  data::SyntheticImageDataset::Config cfg;
  cfg.train_size = 23;
  data::SyntheticImageDataset ds(cfg);
  data::ReformattedSplits splits = data::reformat(ds);
  data::AugmentationPipeline aug = data::AugmentationPipeline::reference_image_pipeline();

  auto collect = [&](std::int64_t threads) {
    set_num_threads(threads);
    Rng rng(321);
    data::ImageLoader loader(splits.train, 5, &aug, rng, /*drop_last=*/false,
                             /*prefetch=*/true);
    std::vector<data::ImageBatch> batches;
    while (loader.has_next()) batches.push_back(loader.next());
    return batches;
  };

  const auto ref = collect(1);
  EXPECT_EQ(ref.size(), 5u);  // 23 = 5*4 + 3
  for (std::int64_t threads : {2, 4}) {
    const auto got = collect(threads);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].labels, ref[i].labels);
      expect_bitwise_equal(got[i].images, ref[i].images);
    }
  }
}

}  // namespace
}  // namespace mlperf::parallel
