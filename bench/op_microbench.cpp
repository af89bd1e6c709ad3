// DeepBench-style kernel microbenchmarks (paper §2.3 background): the
// operations that dominate the suite's workloads, measured with
// google-benchmark. The paper's point — and the reason MLPerf is NOT a
// microbenchmark — is that these numbers say nothing about end-to-end
// time-to-quality; they are included as the baseline the suite improves on.
//
// Run with --benchmark_format=json to get machine-readable output; the
// custom main below stamps the kernel configuration into the JSON context.
// BENCH_kernels.json at the repo root is the checked-in before/after
// snapshot of the most recent kernel change (the *Ref benchmarks here
// regenerate the scalar "before" side of the packed-GEMM rows from the
// retained reference kernel).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "checkpoint/format.h"
#include "checkpoint/state.h"
#include "harness/reference.h"
#include "models/minigo.h"
#include "models/ncf.h"
#include "models/resnet.h"
#include "models/transformer.h"
#include "nn/functional.h"
#include "nn/layers.h"
#include "parallel/parallel_for.h"
#include "reference/conv_ref.h"
#include "reference/gemm_ref.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

using namespace mlperf;
using tensor::Rng;
using tensor::Tensor;

static void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = a.matmul(b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// The retained pre-PR2 scalar kernel at the same square sizes: the "before"
// row of BENCH_kernels.json, regenerable from this binary forever.
static void BM_GemmRef(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    std::fill(c.vec().begin(), c.vec().end(), 0.0f);
    tensor::gemm_accumulate_ref(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmRef)->Arg(64)->Arg(256);

// Rectangular GEMMs at the suite's workload shapes. Args are {m, k, n}.
// resnet: the im2col GEMM of a 3x3 conv on a 16x16 plane at 32 channels
// (weight [32, 288] x columns [288, 256]) — the per-sample product inside
// BM_Conv2dForward/32. transformer_ffn: tokens x model_dim x ff_dim for the
// suite's TransformerBlock at batch 4, seq 32.
static void gemm_shape_body(benchmark::State& state, bool use_ref) {
  const std::int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(11);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n});
  for (auto _ : state) {
    std::fill(c.vec().begin(), c.vec().end(), 0.0f);
    if (use_ref)
      tensor::gemm_accumulate_ref(a.data(), b.data(), c.data(), m, k, n);
    else
      tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::N, m, n, k, a.data(), k, b.data(),
                              n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
static void BM_GemmShape(benchmark::State& state) { gemm_shape_body(state, false); }
static void BM_GemmShapeRef(benchmark::State& state) { gemm_shape_body(state, true); }
BENCHMARK(BM_GemmShape)
    ->ArgNames({"m", "k", "n"})
    ->Args({32, 288, 256})    // resnet conv-as-GEMM
    ->Args({128, 32, 128})    // transformer FFN
    ->Args({16, 144, 81});    // minigo conv-as-GEMM: 16 filters x 3x3x16 taps x 9x9 board
BENCHMARK(BM_GemmShapeRef)
    ->ArgNames({"m", "k", "n"})
    ->Args({32, 288, 256})
    ->Args({128, 32, 128})
    ->Args({16, 144, 81});

// Each kernel build the binary carries (tensor::detail::gemm_variants(), Arg
// 0 = widest) at the MiniGo conv shape, for the float kernel (Arg 1 = 0) and
// the double-accumulator dW kernel (Arg 1 = 1), both on the same B panels
// packed once outside the timed loop. Puts the avx512-vs-avx2-vs-default
// speedup on one binary and one host. main() registers one row per build
// this CPU can run.
static void BM_GemmVariant(benchmark::State& state) {
  const tensor::detail::GemmVariant& v =
      tensor::detail::gemm_variants()[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(v.isa);
  const std::int64_t m = 16, k = 144, n = 81;
  Rng rng(12);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n});
  std::vector<float> bp(static_cast<std::size_t>(tensor::gemm_packed_b_size(k, n)));
  tensor::gemm_pack_b(tensor::Trans::N, b.data(), n, k, n, bp.data());
  const bool f64acc = state.range(1) != 0;
  for (auto _ : state) {
    if (f64acc)
      v.f64acc_packed(tensor::Trans::N, a.data(), k, bp.data(), m, n, k, c.data(), n);
    else
      v.packed(tensor::Trans::N, a.data(), k, bp.data(), m, n, k, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}

// Batched matmul at the attention shape of the suite's Transformer (batch 4,
// 4 heads, seq 32, head dim 8): scores = Q K^T through the transposed-B
// variant, exactly as MultiHeadAttention now issues it.
static void BM_BmmAttention(benchmark::State& state) {
  const std::int64_t bh = 16, t = 32, dh = 8;
  Rng rng(12);
  Tensor q = Tensor::randn({bh, t, dh}, rng);
  Tensor k = Tensor::randn({bh, t, dh}, rng);
  for (auto _ : state) {
    Tensor s = q.bmm(k, tensor::Trans::N, tensor::Trans::T);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * bh * t * t * dh);
}
BENCHMARK(BM_BmmAttention);

static void BM_Conv2dForward(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  Rng rng(2);
  Tensor x = Tensor::randn({4, c, 16, 16}, rng);
  Tensor w = Tensor::randn({c, c, 3, 3}, rng);
  autograd::Variable vx(x), vw(w);
  for (auto _ : state) {
    auto y = nn::conv2d(vx, vw, autograd::Variable(), 1, 1);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

// Threaded variants: same kernels through the parallel_for partitioner at
// range(1) threads (the caller plus range(1)-1 workers). The output is
// bitwise identical across the thread counts (asserted in
// tests/test_parallel.cpp); only the wall time may move. Thread count 1
// starts no worker, i.e. the inline path above.
static void BM_GemmThreaded(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  parallel::set_num_threads(state.range(1));
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = a.matmul(b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  parallel::set_num_threads(1);
}
BENCHMARK(BM_GemmThreaded)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4});

static void BM_Conv2dForwardThreaded(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  parallel::set_num_threads(state.range(1));
  Rng rng(2);
  Tensor x = Tensor::randn({4, c, 16, 16}, rng);
  Tensor w = Tensor::randn({c, c, 3, 3}, rng);
  autograd::Variable vx(x), vw(w);
  for (auto _ : state) {
    auto y = nn::conv2d(vx, vw, autograd::Variable(), 1, 1);
    benchmark::DoNotOptimize(y.value().data());
  }
  parallel::set_num_threads(1);
}
BENCHMARK(BM_Conv2dForwardThreaded)
    ->Args({32, 1})
    ->Args({32, 2})
    ->Args({32, 4});

static void BM_Conv2dTrainStep(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::randn({4, c, 16, 16}, rng);
  Tensor w = Tensor::randn({c, c, 3, 3}, rng);
  for (auto _ : state) {
    autograd::Variable vw(w, true);
    auto y = nn::conv2d(autograd::Variable(x), vw, autograd::Variable(), 1, 1);
    autograd::sum_all(y).backward();
    benchmark::DoNotOptimize(vw.grad().data());
  }
}
BENCHMARK(BM_Conv2dTrainStep)->Arg(8)->Arg(16);

// The weight-gradient pass in isolation (forward excluded via PauseTiming):
// gemm_f64acc_packed on cached panels, which replaced a naive unblocked
// double dot-product loop plus a per-sample im2col re-pack.
static void BM_Conv2dDw(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  Rng rng(13);
  Tensor x = Tensor::randn({4, c, 16, 16}, rng);
  Tensor w = Tensor::randn({c, c, 3, 3}, rng);
  for (auto _ : state) {
    state.PauseTiming();
    autograd::Variable vw(w, true);
    auto y = nn::conv2d(autograd::Variable(x), vw, autograd::Variable(), 1, 1);
    Tensor seed(y.shape(), 1.0f);
    state.ResumeTiming();
    y.backward(seed);
    benchmark::DoNotOptimize(vw.grad().data());
  }
}
BENCHMARK(BM_Conv2dDw)->Arg(8)->Arg(16);

// One sample's conv lowering into GEMM panels (3x3 kernel, stride 1,
// padding 1) at the suite's two conv planes: {8, 16} is the first
// ResNet-mini stage, {16, 9} the MiniGo tower on a 9x9 board. Arg direct 0
// is the former two-pass route (the reference im2col slab, then
// gemm_pack_b), direct 1 writes the panels straight from the image
// (nn::detail::lower_conv_panels). Arg dw 0 writes only the forward's
// Trans::N panels (an inference forward), dw 1 also the dW operand's
// Trans::T panels (a cached training forward).
static void BM_ConvLowering(benchmark::State& state) {
  nn::detail::ConvDims d{};
  d.n = 1;
  d.c = state.range(0);
  d.h = d.w = d.oh = d.ow = state.range(1);
  d.o = d.c;
  d.kh = d.kw = 3;
  const bool dw = state.range(2) != 0;
  const bool direct = state.range(3) != 0;
  const std::int64_t rows = d.c * 9, cols = d.oh * d.ow;
  Rng rng(16);
  Tensor x = Tensor::randn({d.c, d.h, d.w}, rng);
  std::vector<float> patch(static_cast<std::size_t>(rows * cols));
  std::vector<float> bp_n(static_cast<std::size_t>(tensor::gemm_packed_b_size(rows, cols)));
  std::vector<float> bp_t(static_cast<std::size_t>(tensor::gemm_packed_b_size(cols, rows)));
  for (auto _ : state) {
    if (direct) {
      nn::detail::lower_conv_panels(x.data(), d, 1, 1, bp_n.data(), dw ? bp_t.data() : nullptr);
    } else {
      nn::detail::im2col(x.data(), d, 1, 1, patch.data());
      tensor::gemm_pack_b(tensor::Trans::N, patch.data(), cols, rows, cols, bp_n.data());
      if (dw) tensor::gemm_pack_b(tensor::Trans::T, patch.data(), cols, cols, rows, bp_t.data());
    }
    benchmark::DoNotOptimize(bp_n.data());
    benchmark::DoNotOptimize(bp_t.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ConvLowering)
    ->ArgNames({"c", "hw", "dw", "direct"})
    ->ArgsProduct({{8}, {16}, {0, 1}, {0, 1}})
    ->ArgsProduct({{16}, {9}, {0, 1}, {0, 1}});

// Full conv train step with the step-scoped im2col pack cache off (Arg 0) and
// on (Arg 1). Doubles as the CI smoke check of the cache contract: the run
// errors out unless im2col_calls() advanced by exactly one sweep per step
// cached and two uncached.
static void BM_Im2colPackCache(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  nn::set_conv_pack_cache(cached);
  Rng rng(14);
  Tensor x = Tensor::randn({4, 8, 16, 16}, rng);
  Tensor w = Tensor::randn({8, 8, 3, 3}, rng);
  std::int64_t steps = 0;
  const std::int64_t calls0 = nn::im2col_calls();
  for (auto _ : state) {
    autograd::Variable vw(w, true);
    auto y = nn::conv2d(autograd::Variable(x), vw, autograd::Variable(), 1, 1);
    autograd::sum_all(y).backward();
    benchmark::DoNotOptimize(vw.grad().data());
    ++steps;
  }
  const std::int64_t sweeps = nn::im2col_calls() - calls0;
  if (sweeps != (cached ? steps : 2 * steps))
    state.SkipWithError("im2col_calls() violates the pack-cache contract");
  nn::set_conv_pack_cache(true);
}
BENCHMARK(BM_Im2colPackCache)->Arg(0)->Arg(1);

// Attention's softmax: the fused scale+mask+softmax node vs the three-node
// chain it replaced (bitwise-identical outputs; this pair measures the win).
static void BM_FusedScaledSoftmax(benchmark::State& state) {
  const std::int64_t t = state.range(0);
  Rng rng(15);
  Tensor scores = Tensor::randn({16, t, t}, rng);
  Tensor mask = Tensor::uninitialized({t, t});
  for (std::int64_t i = 0; i < t; ++i)
    for (std::int64_t j = 0; j < t; ++j) mask[i * t + j] = j > i ? -1e9f : 0.0f;
  for (auto _ : state) {
    auto y = nn::fused_scaled_softmax(autograd::Variable(scores), 0.125f, mask);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_FusedScaledSoftmax)->Arg(32)->Arg(64);

static void BM_ScaledSoftmaxUnfusedRef(benchmark::State& state) {
  const std::int64_t t = state.range(0);
  Rng rng(15);
  Tensor scores = Tensor::randn({16, t, t}, rng);
  Tensor mask = Tensor::uninitialized({t, t});
  for (std::int64_t i = 0; i < t; ++i)
    for (std::int64_t j = 0; j < t; ++j) mask[i * t + j] = j > i ? -1e9f : 0.0f;
  for (auto _ : state) {
    auto s = autograd::mul_scalar(autograd::Variable(scores), 0.125f);
    s = autograd::add(s, autograd::Variable(mask));
    auto y = autograd::softmax_last(s);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_ScaledSoftmaxUnfusedRef)->Arg(32)->Arg(64);

static void BM_SoftmaxLast(benchmark::State& state) {
  Rng rng(4);
  Tensor x = Tensor::randn({256, state.range(0)}, rng);
  for (auto _ : state) {
    Tensor y = x.softmax_last();
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SoftmaxLast)->Arg(128)->Arg(1024);

static void BM_BatchNormForward(benchmark::State& state) {
  Rng rng(5);
  nn::BatchNorm2d bn(16);
  Tensor x = Tensor::randn({8, 16, 16, 16}, rng);
  for (auto _ : state) {
    auto y = bn.forward(autograd::Variable(x));
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_BatchNormForward);

// One BatchNorm2d training step, forward plus backward, at the two ResNet-mini
// activation shapes: [32, 8, 16, 16] (stem and stage 1) and [32, 32, 8, 8]
// (stage 2). Args are {n, c, h, w}.
static void BM_BatchNormTrainStep(benchmark::State& state) {
  const tensor::Shape shape = {state.range(0), state.range(1), state.range(2), state.range(3)};
  Rng rng(6);
  nn::BatchNorm2d bn(shape[1]);
  const Tensor x = Tensor::randn(shape, rng);
  const Tensor g = Tensor::randn(shape, rng);
  for (auto _ : state) {
    autograd::Variable vx(x, true);
    autograd::Variable y = bn.forward(vx);
    y.backward(g);
    benchmark::DoNotOptimize(vx.grad().data());
  }
}
BENCHMARK(BM_BatchNormTrainStep)
    ->ArgNames({"n", "c", "h", "w"})
    ->Args({32, 8, 16, 16})
    ->Args({32, 32, 8, 8});

// relu forward and its masked backward on a [32, 8, 16, 16] activation of
// random sign (the BatchNorm output it follows in ResNet-mini).
static void BM_ReluTrainStep(benchmark::State& state) {
  Rng rng(7);
  const Tensor x = Tensor::randn({32, 8, 16, 16}, rng);
  const Tensor g = Tensor::randn(x.shape(), rng);
  for (auto _ : state) {
    autograd::Variable vx(x, true);
    autograd::Variable y = autograd::relu(vx);
    y.backward(g);
    benchmark::DoNotOptimize(vx.grad().data());
  }
}
BENCHMARK(BM_ReluTrainStep);

// An op's freshly computed gradient (here a copy of a fixed tensor) handed to
// a node that has no gradient yet: the first-touch path every interior node
// of the backward sweep takes. 65536 floats, one ResNet-mini activation.
static void BM_AccumulateGrad(benchmark::State& state) {
  Rng rng(8);
  const Tensor g = Tensor::randn({32, 8, 16, 16}, rng);
  autograd::detail::Node node;
  node.value = Tensor(g.shape());
  for (auto _ : state) {
    node.grad = Tensor();
    node.grad_initialized = false;
    node.accumulate_grad(Tensor(g));
    benchmark::DoNotOptimize(node.grad.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AccumulateGrad);

static void BM_Attention(benchmark::State& state) {
  Rng rng(6);
  nn::MultiHeadAttention mha(64, 4, rng);
  autograd::Variable x(Tensor::randn({4, state.range(0), 64}, rng));
  for (auto _ : state) {
    auto y = mha.forward(x, x, x);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_Attention)->Arg(8)->Arg(32);

static void BM_LstmCell(benchmark::State& state) {
  Rng rng(7);
  nn::LSTMCell cell(64, 64, rng);
  auto s = cell.zero_state(16);
  autograd::Variable x(Tensor::randn({16, 64}, rng));
  for (auto _ : state) {
    auto next = cell.forward(x, s);
    benchmark::DoNotOptimize(next.h.value().data());
  }
}
BENCHMARK(BM_LstmCell);

// --- Go rules (MiniGo self-play) ---
// Eight mid-game 9x9 positions: 24-31 random legal stones (passes skipped)
// from an empty board, the stretch MiniGo's 36-move games spend most time in.
static std::vector<go::Board> midgame_boards() {
  std::vector<go::Board> boards;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    go::Board b(9, 5.5f);
    for (std::uint64_t m = 0; m < 23 + seed; ++m) {
      std::vector<go::Move> legal = b.legal_moves();
      legal.pop_back();  // pass
      b.play(legal[static_cast<std::size_t>(rng.randint(legal.size()))]);
    }
    boards.push_back(b);
  }
  return boards;
}

static void BM_GoLegalMoves(benchmark::State& state) {
  const std::vector<go::Board> boards = midgame_boards();
  for (auto _ : state)
    for (const go::Board& b : boards) {
      std::vector<go::Move> moves = b.legal_moves();
      benchmark::DoNotOptimize(moves.data());
    }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(boards.size()));
}
BENCHMARK(BM_GoLegalMoves);

// One teacher search as MiniGo's reference games run it: uniform priors and
// the Tromp-Taylor value, 32 simulations, so no network time is included.
static void BM_MctsSearchHeuristic(benchmark::State& state) {
  const go::Board root = midgame_boards().front();
  models::Mcts mcts({.simulations = 32, .dirichlet_weight = 0.1f}, models::heuristic_evaluator());
  for (auto _ : state) {
    Rng rng(5);
    std::vector<float> pi = mcts.search(root, rng);
    benchmark::DoNotOptimize(pi.data());
  }
}
BENCHMARK(BM_MctsSearchHeuristic);

// --- End-to-end train steps (BENCH_trainstep.json regenerates from these) ---
// One complete training step per iteration — zero_grad, forward, loss,
// backward, optimizer update — for three of the suite's reference models.
// These are the numbers the tensor-pool / fused-update work moves: the
// kernels themselves were PR 1/2; what remains per step is the allocation
// and bookkeeping around them.

static void BM_TrainStepResnet(benchmark::State& state) {
  Rng rng(21);
  tensor::Rng init_rng(7);
  models::ResNetMini::Config cfg;  // defaults: 2 stages {8,16}, expansion 2
  models::ResNetMini model(cfg, init_rng);
  optim::SgdMomentum opt(model.parameters(), 0.9f, 5e-4f);
  const std::int64_t batch = 8;
  Tensor images = Tensor::randn({batch, cfg.in_channels, 16, 16}, rng);
  std::vector<std::int64_t> labels(static_cast<std::size_t>(batch));
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<std::int64_t>(i) % cfg.num_classes;
  for (auto _ : state) {
    opt.zero_grad();
    auto logits = model.forward(autograd::Variable(images));
    auto loss = nn::cross_entropy(logits, labels);
    loss.backward();
    opt.step(0.01f);
    benchmark::DoNotOptimize(loss.value().data());
  }
}
BENCHMARK(BM_TrainStepResnet);

static void BM_TrainStepNcf(benchmark::State& state) {
  tensor::Rng init_rng(8);
  models::NeuMf::Config cfg;  // defaults: 64 users, 128 items
  models::NeuMf model(cfg, init_rng);
  optim::Adam opt(model.parameters());
  const std::int64_t batch = 256;
  std::vector<std::int64_t> users, items;
  std::vector<float> labels;
  for (std::int64_t i = 0; i < batch; ++i) {
    users.push_back(i % cfg.num_users);
    items.push_back((i * 7) % cfg.num_items);
    labels.push_back(i % 5 == 0 ? 1.0f : 0.0f);
  }
  for (auto _ : state) {
    opt.zero_grad();
    auto logits = model.forward(users, items);
    auto loss = nn::bce_with_logits(logits, labels);
    loss.backward();
    opt.step(0.002f);
    benchmark::DoNotOptimize(loss.value().data());
  }
}
BENCHMARK(BM_TrainStepNcf);

static void BM_TrainStepTransformer(benchmark::State& state) {
  tensor::Rng init_rng(9);
  models::TransformerModel::Config cfg;  // defaults: dim 32, 2+2 blocks
  models::TransformerModel model(cfg, init_rng);
  optim::Adam opt(model.parameters());
  const std::int64_t batch = 8, seq = 12;
  std::vector<data::TokenSeq> src, tgt_in;
  std::vector<std::int64_t> targets;
  for (std::int64_t b = 0; b < batch; ++b) {
    data::TokenSeq s, t{data::kBos};
    for (std::int64_t i = 0; i < seq; ++i) {
      s.push_back(data::kFirstWord + (b * 3 + i) % (cfg.vocab - data::kFirstWord));
      const std::int64_t tok = data::kFirstWord + (b * 5 + i) % (cfg.vocab - data::kFirstWord);
      t.push_back(tok);
      targets.push_back(tok);
    }
    targets.push_back(data::kEos);
    src.push_back(std::move(s));
    tgt_in.push_back(std::move(t));
  }
  for (auto _ : state) {
    opt.zero_grad();
    auto memory = model.encode(src);
    auto logits = model.decode(tgt_in, memory);
    auto loss = nn::cross_entropy(logits, targets);
    loss.backward();
    opt.step(0.003f);
    benchmark::DoNotOptimize(loss.value().data());
  }
}
BENCHMARK(BM_TrainStepTransformer);

// --- Checkpoint subsystem (BENCH_checkpoint.json regenerates from these) ---
// Checkpoint writes land INSIDE the timed §3.2.1 run window, so their cost is
// part of every fault-tolerant time-to-train result; these entries pin it.

static void BM_Crc32c(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 131);
  for (auto _ : state) {
    std::uint32_t crc = checkpoint::crc32c(buf.data(), buf.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_Crc32c)->Arg(1 << 12)->Arg(1 << 20);

namespace {
std::unique_ptr<models::Workload> trained_smoke_workload() {
  auto w = harness::make_reference_workload(core::BenchmarkId::kRecommendation,
                                            harness::WorkloadScale::kSmoke);
  w->prepare_data();
  w->build_model(1);
  w->train_epoch();
  return w;
}
}  // namespace

// Full-state serialize (model + optimizer slots + rng) to memory, CRC'd.
static void BM_CheckpointSave(benchmark::State& state) {
  auto w = trained_smoke_workload();
  std::size_t bytes = 0;
  for (auto _ : state) {
    checkpoint::CheckpointWriter ckpt;
    checkpoint::write_state(ckpt, w->training_state());
    std::vector<std::uint8_t> buf = ckpt.serialize();
    bytes = buf.size();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
  state.counters["ckpt_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CheckpointSave);

// Save plus the atomic temp-file + rename landing — the cost the harness
// actually charges per checkpoint_saved event.
static void BM_CheckpointWriteFile(benchmark::State& state) {
  auto w = trained_smoke_workload();
  const std::string path = "bench_checkpoint.ckpt";
  for (auto _ : state) {
    checkpoint::CheckpointWriter ckpt;
    checkpoint::write_state(ckpt, w->training_state());
    ckpt.write_file(path);
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_CheckpointWriteFile);

// Parse (magic/version/every-CRC validation) + in-place state restore — the
// cost of the checkpoint_restored event on a resumed session.
static void BM_CheckpointRestore(benchmark::State& state) {
  auto w = trained_smoke_workload();
  checkpoint::CheckpointWriter ckpt;
  checkpoint::write_state(ckpt, w->training_state());
  const std::vector<std::uint8_t> bytes = ckpt.serialize();
  for (auto _ : state) {
    checkpoint::CheckpointReader r = checkpoint::CheckpointReader::parse(bytes, "bench");
    checkpoint::read_state(r, w->training_state());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_CheckpointRestore);

// Custom main instead of BENCHMARK_MAIN(): stamps the kernel configuration
// into the benchmark context so --benchmark_format=json output is
// self-describing (BENCH_kernels.json records which kernel produced a row).
int main(int argc, char** argv) {
  std::int64_t mr = tensor::kGemmMR;
  for (const auto& v : tensor::detail::gemm_variants())
    if (std::string(v.isa) == tensor::gemm_isa()) mr = v.mr;
  benchmark::AddCustomContext("gemm_kernel",
                              std::string("packed isa=") + tensor::gemm_isa() +
                                  " mr=" + std::to_string(mr) +
                                  " nr=" + std::to_string(tensor::kGemmNR) +
                                  " mc=" + std::to_string(tensor::kGemmMC));
  benchmark::AddCustomContext("num_threads_default",
                              std::to_string(parallel::num_threads()));
  const auto variants = tensor::detail::gemm_variants();
  for (std::size_t i = 0; i < variants.size(); ++i)
    if (variants[i].host_supported)
      benchmark::RegisterBenchmark("BM_GemmVariant", BM_GemmVariant)
          ->ArgNames({"variant", "f64acc"})
          ->ArgsProduct({{static_cast<std::int64_t>(i)}, {0, 1}});
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
