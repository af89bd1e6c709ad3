// Traced per-layer replay. The benchmark re-runs a workload's train_epoch
// from its own code, step by step, through the same public calls in the same
// order, with a span around each call into a layer. After the first epoch the
// replayed model must hash equal to the model the workload's own
// train_epoch produced; otherwise the replay measured something else and the
// run reports ReplayMismatch instead of numbers.
#include <deque>
#include <functional>
#include <memory>

#include "autograd/variable.h"
#include "bench.h"
#include "checkpoint/state.h"
#include "core/op_profile.h"
#include "data/augment.h"
#include "data/dataset.h"
#include "data/loader.h"
#include "harness/run.h"
#include "models/minigo.h"
#include "models/resnet.h"
#include "nn/functional.h"
#include "optim/optimizer.h"
#include "parallel/parallel_for.h"
#include "tensor/pool.h"
#include "tensor/rng.h"
#include "trace.h"

namespace ttt_bench {
namespace {

using namespace mlperf;
using autograd::Variable;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::int64_t kMaxReplayEpochs = 1000;
/// Enough steps that step.total_ms.p90 has ten samples beyond it.
constexpr std::int64_t kMinTracedSteps = 100;
constexpr int kDispatchCalls = 2000;
/// Epochs compared between the untraced workload and the traced replay for
/// trace.overhead: epochs 2 to 1 + kOverheadEpochs, identical work on both.
constexpr std::int64_t kOverheadEpochs = 3;
/// The OpProfile slots both models run. Their convolutions have no
/// bias (BatchNorm follows) and neither runs attention, so conv_db and the
/// fused-softmax slots are not reported.
constexpr const char* kConvSlots[] = {"im2col", "col2im", "conv_forward", "conv_dw", "conv_dx"};

/// Samples taken as spans close.
struct Samples {
  std::vector<double> data_ms, forward_ms, backward_ms, optim_ms, step_ms, pack_cache_mb;
  std::int64_t im2col = 0;  ///< im2col sweeps inside training steps
  std::vector<double> infer_us;
  std::vector<double> search_self_ms;  ///< per self-play game, infer time excluded
};

struct Replay {
  Tracer tracer;
  Samples samples;
  std::int64_t steps = 0;
};

/// One training step in the order both models run it: batch, forward plus
/// loss, zero_grad, backward, optimizer step. The op profile is on only
/// inside steps, so its slots are per-training-step time.
template <typename MakeBatch, typename Forward>
void traced_step(Replay& r, MakeBatch&& make_batch, Forward&& forward, optim::Optimizer& opt,
                 float lr) {
  core::OpProfile::set_enabled(true);
  const std::int64_t im2col0 = nn::im2col_calls();
  Tracer::Scope step(r.tracer, "step");
  Tracer::Scope data(r.tracer, "data.batch");
  const auto batch = make_batch();
  r.samples.data_ms.push_back(data.stop());
  Tracer::Scope fwd(r.tracer, "nn.forward");
  const Variable loss = forward(batch);
  r.samples.forward_ms.push_back(fwd.stop());
  r.samples.pack_cache_mb.push_back(static_cast<double>(nn::conv_pack_cache_live_bytes()) / kMiB);
  Tracer::Scope zero(r.tracer, "optim.zero_grad");
  opt.zero_grad();
  const double zero_ms = zero.stop();
  Tracer::Scope bwd(r.tracer, "autograd.backward");
  loss.backward();
  r.samples.backward_ms.push_back(bwd.stop());
  Tracer::Scope upd(r.tracer, "optim.step");
  opt.step(lr);
  r.samples.optim_ms.push_back(zero_ms + upd.stop());
  r.samples.step_ms.push_back(step.stop());
  r.samples.im2col += nn::im2col_calls() - im2col0;
  core::OpProfile::set_enabled(false);
  ++r.steps;
}

// ---- image_classification: ResNetWorkload::train_epoch ---------------------

/// Mirrors harness::make_reference_workload's ResNet configuration.
models::ResNetWorkload::Config resnet_config(harness::WorkloadScale scale) {
  models::ResNetWorkload::Config c;
  if (scale == harness::WorkloadScale::kSmoke) {
    c.dataset.height = 8;
    c.dataset.width = 8;
    c.dataset.num_classes = 4;
    c.dataset.train_size = 128;
    c.dataset.val_size = 64;
    c.dataset.noise = 0.25f;
    c.model.num_classes = 4;
    c.model.stage_channels = {6, 8};
  }
  return c;
}

class ResNetReplay {
 public:
  ResNetReplay(harness::WorkloadScale scale, std::uint64_t seed)
      : cfg_(resnet_config(scale)), dataset_(cfg_.dataset), splits_(data::reformat(dataset_)),
        augment_(data::AugmentationPipeline::reference_image_pipeline()), rng_(seed) {
    if (cfg_.use_lars || cfg_.weight_format != numerics::Format::kFP32)
      throw std::logic_error("ResNet replay covers the fp32 SGD-momentum reference only");
    // ResNetWorkload::build_model: the init stream is split off the run rng.
    tensor::Rng init_rng = rng_.split();
    model_ = std::make_unique<models::ResNetMini>(cfg_.model, init_rng);
    optimizer_ = std::make_unique<optim::SgdMomentum>(
        model_->parameters(), cfg_.momentum, cfg_.weight_decay, cfg_.momentum_semantics);
    const std::int64_t steps_per_epoch =
        (dataset_.train_size() + cfg_.batch_size - 1) / cfg_.batch_size;
    schedule_ = std::make_unique<optim::LinearScalingWarmupLr>(
        cfg_.base_lr, cfg_.batch_size, cfg_.base_batch, cfg_.warmup_steps, cfg_.lr_decay_gamma,
        cfg_.lr_decay_epochs * steps_per_epoch);
  }

  static const nn::Module& model_of(models::Workload& w) {
    return *dynamic_cast<models::ResNetWorkload&>(w).model();
  }
  const nn::Module& model() const { return *model_; }

  void epoch(Replay& r) {
    model_->set_training(true);
    if (!loader_) {
      loader_ = std::make_unique<data::ImageLoader>(splits_.train, cfg_.batch_size, &augment_,
                                                    rng_, /*drop_last=*/false,
                                                    cfg_.prefetch_loader);
    } else {
      loader_->start_epoch();
    }
    while (loader_->has_next()) {
      autograd::GraphEpoch graph_epoch;
      traced_step(
          r, [&] { return loader_->next(); },
          [&](const data::ImageBatch& b) {
            return nn::cross_entropy(model_->forward(Variable(b.images)), b.labels);
          },
          *optimizer_, schedule_->lr(step_));
      ++step_;
    }
  }

 private:
  models::ResNetWorkload::Config cfg_;
  data::SyntheticImageDataset dataset_;
  data::ReformattedSplits splits_;
  data::AugmentationPipeline augment_;
  tensor::Rng rng_;
  std::unique_ptr<models::ResNetMini> model_;
  std::unique_ptr<optim::SgdMomentum> optimizer_;
  std::unique_ptr<optim::LinearScalingWarmupLr> schedule_;
  std::int64_t step_ = 0;
  std::unique_ptr<data::ImageLoader> loader_;  // references splits_, augment_, rng_
};

// ---- reinforcement_learning: MiniGoWorkload::train_epoch --------------------

/// Mirrors harness::make_reference_workload's MiniGo configuration.
models::MiniGoWorkload::Config minigo_config(harness::WorkloadScale scale) {
  models::MiniGoWorkload::Config c;
  if (scale == harness::WorkloadScale::kSmoke) {
    c.mcts.simulations = 8;
    c.selfplay_games_per_epoch = 1;
    c.max_game_moves = 20;
    c.train_batches_per_epoch = 8;
    c.reference_games = 2;
    c.reference_teacher_sims = 16;
    c.reference_moves_per_game = 10;
  }
  c.model.board_size = c.board_size;  // as MiniGoWorkload's constructor does
  return c;
}

class MiniGoReplay {
 public:
  MiniGoReplay(harness::WorkloadScale scale, std::uint64_t seed)
      : cfg_(minigo_config(scale)), rng_(seed) {
    if (cfg_.nondeterministic_scheduling)
      throw std::logic_error("MiniGo replay needs deterministic scheduling");
    // MiniGoWorkload::prepare_data: reference games from the fixed teacher.
    tensor::Rng ref_rng(0xD0D0CAFEULL);
    models::Mcts::Config teacher = cfg_.mcts;
    teacher.simulations = cfg_.reference_teacher_sims;
    teacher.dirichlet_weight = 0.1f;
    for (std::int64_t g = 0; g < cfg_.reference_games; ++g) {
      models::SelfPlayResult game =
          models::self_play_game(teacher, models::heuristic_evaluator(), cfg_.board_size,
                                 cfg_.komi, cfg_.max_game_moves, /*temperature_moves=*/4, ref_rng);
      for (auto& ex : game.examples) reference_examples_.push_back(std::move(ex));
    }
    // MiniGoWorkload::build_model.
    tensor::Rng init_rng = rng_.split();
    net_ = std::make_unique<models::PolicyValueNet>(cfg_.model, init_rng);
    optimizer_ = std::make_unique<optim::SgdMomentum>(net_->parameters(), cfg_.momentum);
  }

  static const nn::Module& model_of(models::Workload& w) {
    return *dynamic_cast<models::MiniGoWorkload&>(w).net();
  }
  const nn::Module& model() const { return *net_; }

  void epoch(Replay& r) {
    Samples& s = r.samples;
    const models::Mcts::Evaluator evaluator = [&](const go::Board& board) {
      Tracer::Scope infer(r.tracer, "models.infer");
      auto out = net_->infer(board);
      s.infer_us.push_back(infer.stop() * 1e3);
      return out;
    };
    for (std::int64_t g = 0; g < cfg_.selfplay_games_per_epoch; ++g) {
      const std::size_t calls0 = s.infer_us.size();
      Tracer::Scope game_span(r.tracer, "go.self_play_game");
      models::SelfPlayResult game =
          models::self_play_game(cfg_.mcts, evaluator, cfg_.board_size, cfg_.komi,
                                 cfg_.max_game_moves, cfg_.temperature_moves, rng_);
      double self_ms = game_span.stop();
      for (std::size_t i = calls0; i < s.infer_us.size(); ++i) self_ms -= s.infer_us[i] * 1e-3;
      s.search_self_ms.push_back(self_ms);
      for (auto& ex : game.examples) {
        replay_.push_back(std::move(ex));
        if (static_cast<std::int64_t>(replay_.size()) > cfg_.replay_capacity) replay_.pop_front();
      }
    }
    if (replay_.empty() && reference_examples_.empty()) return;
    for (std::int64_t b = 0; b < cfg_.train_batches_per_epoch; ++b)
      traced_step(
          r, [&] { return make_batch(); },
          [&](const Batch& batch) { return loss(batch); }, *optimizer_, cfg_.lr);
  }

 private:
  struct Batch {
    tensor::Tensor planes, pi, z;
    std::int64_t n;
  };

  // MiniGoWorkload::train_epoch's batch draw plus train_batch's assembly.
  Batch make_batch() {
    std::vector<const models::SelfPlayExample*> picks;
    picks.reserve(static_cast<std::size_t>(cfg_.batch_size));
    for (std::int64_t i = 0; i < cfg_.batch_size; ++i) {
      const bool from_ref = !reference_examples_.empty() &&
                            (replay_.empty() || rng_.uniform() < cfg_.reference_mix);
      if (from_ref) {
        picks.push_back(&reference_examples_[static_cast<std::size_t>(
            rng_.randint(reference_examples_.size()))]);
      } else {
        picks.push_back(&replay_[static_cast<std::size_t>(rng_.randint(replay_.size()))]);
      }
    }
    const std::int64_t n = static_cast<std::int64_t>(picks.size());
    const std::int64_t bs = cfg_.board_size;
    const std::int64_t num_moves = bs * bs + 1;
    Batch batch{tensor::Tensor({n, 3, bs, bs}), tensor::Tensor({n, num_moves}),
                tensor::Tensor({n, 1}), n};
    for (std::int64_t i = 0; i < n; ++i) {
      const models::SelfPlayExample& ex = *picks[static_cast<std::size_t>(i)];
      std::copy(ex.planes.vec().begin(), ex.planes.vec().end(),
                batch.planes.vec().begin() + i * 3 * bs * bs);
      for (std::int64_t m = 0; m < num_moves; ++m)
        batch.pi[i * num_moves + m] = ex.pi[static_cast<std::size_t>(m)];
      batch.z[i] = ex.z;
    }
    return batch;
  }

  // MiniGoWorkload::train_batch's forward and loss.
  Variable loss(const Batch& batch) {
    net_->set_training(true);
    models::PolicyValueNet::Output out = net_->forward(Variable(batch.planes));
    Variable logp = autograd::log_softmax_last(out.policy_logits);
    Variable policy_loss =
        autograd::mul_scalar(autograd::sum_all(autograd::mul(Variable(batch.pi), logp)),
                             -1.0f / static_cast<float>(batch.n));
    Variable value_loss = nn::mse(out.value, batch.z);
    return autograd::add(policy_loss, value_loss);
  }

  models::MiniGoWorkload::Config cfg_;
  tensor::Rng rng_;
  std::vector<models::SelfPlayExample> reference_examples_;
  std::unique_ptr<models::PolicyValueNet> net_;
  std::unique_ptr<optim::SgdMomentum> optimizer_;
  std::deque<models::SelfPlayExample> replay_;
};

// ---- the traced run ----------------------------------------------------------

template <typename ReplayT>
TracedResult trace(const WorkloadDef& w, const TraceOptions& o) {
  const auto t0 = Clock::now();
  parallel::set_num_threads(w.threads);
  const harness::RunOptions defaults;
  nn::set_conv_pack_cache(defaults.conv_pack_cache, defaults.conv_pack_cache_cap_bytes);
  core::OpProfile::set_enabled(false);

  // Untraced reference: the workload's own setup and train_epoch calls. Its
  // first epoch is the replay's fidelity reference; the next ones repeat the
  // replay's exactly and are the overhead reference.
  auto workload = harness::make_reference_workload(w.id, o.scale);
  auto t = Clock::now();
  workload->prepare_data();
  const double reformat_s = seconds_since(t);
  t = Clock::now();
  workload->build_model(o.seed);
  const double build_model_s = seconds_since(t);
  workload->train_epoch();
  const std::uint64_t reference_hash = checkpoint::hash_module(ReplayT::model_of(*workload));
  std::vector<double> untraced_epoch_s, traced_epoch_s;
  for (std::int64_t e = 0; e < kOverheadEpochs; ++e) {
    t = Clock::now();
    workload->train_epoch();
    untraced_epoch_s.push_back(seconds_since(t));
  }
  workload.reset();

  Replay r;
  ReplayT replay(o.scale, o.seed);
  core::OpProfile::reset();
  tensor::TensorPool& pool = tensor::TensorPool::instance();
  const tensor::TensorPool::Stats pool0 = pool.stats();
  tensor::TensorPool::Stats pool1 = pool0;
  double epochs_ms = 0.0, covered_ms = 0.0, cpu_s = 0.0;
  for (std::int64_t e = 0; e < kMaxReplayEpochs; ++e) {
    const double cpu0 = process_cpu_seconds();
    Tracer::Scope epoch(r.tracer, "models.train_epoch");
    replay.epoch(r);
    const double ms = epoch.stop();
    cpu_s += process_cpu_seconds() - cpu0;
    epochs_ms += ms;
    covered_ms += r.tracer.children_ms(epoch.index());
    if (e == 0) {
      if (checkpoint::hash_module(replay.model()) != reference_hash)
        throw ReplayMismatch(std::string(w.name) +
                             ": traced replay's weights differ from the workload's after one "
                             "epoch; the replay no longer mirrors train_epoch");
      pool1 = pool.stats();
    }
    if (e >= 1 && e <= kOverheadEpochs) traced_epoch_s.push_back(ms * 1e-3);
    if (e >= kOverheadEpochs && r.steps >= kMinTracedSteps && seconds_since(t0) >= o.seconds)
      break;
  }
  if (r.steps < kMinTracedSteps)
    throw std::runtime_error(std::string(w.name) + ": replay ran too few steps");
  const tensor::TensorPool::Stats pool2 = pool.stats();
  const std::vector<core::OpProfile::Entry> ops = core::OpProfile::snapshot();

  // Dispatch cost of an empty parallel_for split across the pool at the
  // workload's thread count (inline at one thread).
  std::vector<double> dispatch_us;
  dispatch_us.reserve(kDispatchCalls);
  const std::int64_t parts = parallel::num_threads();
  for (int i = 0; i < kDispatchCalls; ++i) {
    Tracer::Scope call(r.tracer, "parallel.parallel_for");
    parallel::parallel_for(1, parts, [](std::int64_t, std::int64_t) {});
    dispatch_us.push_back(call.stop() * 1e3);
  }

  const Samples& s = r.samples;
  const double steps = static_cast<double>(r.steps);
  const double hits = static_cast<double>(pool2.hits - pool0.hits);
  const double misses = static_cast<double>(pool2.misses - pool0.misses);
  const double games = static_cast<double>(s.search_self_ms.size());
  TracedResult result;
  result.steps = r.steps;
  std::vector<Metric>& m = result.metrics;
  m.push_back({"harness.reformat_s", reformat_s, "s"});
  m.push_back({"harness.build_model_s", build_model_s, "s"});
  m.push_back({"models.train_epoch_s", median(traced_epoch_s), "s"});
  m.push_back({"data.batch_ms", median(s.data_ms), "ms"});
  m.push_back({"nn.forward_ms", median(s.forward_ms), "ms"});
  m.push_back({"nn.im2col_per_step", static_cast<double>(s.im2col) / steps, "count"});
  m.push_back({"nn.pack_cache_mb", median(s.pack_cache_mb), "MB"});
  for (const char* slot : kConvSlots) {
    double ns = 0.0;
    for (const core::OpProfile::Entry& e : ops)
      if (std::string(e.name) == slot) ns = static_cast<double>(e.total_ns);
    m.push_back({std::string("op.") + slot + "_ms_per_step", ns * 1e-6 / steps, "ms"});
  }
  m.push_back({"autograd.backward_ms", median(s.backward_ms), "ms"});
  m.push_back({"optim.step_ms", median(s.optim_ms), "ms"});
  m.push_back({"step.total_ms.p50", median(s.step_ms), "ms"});
  m.push_back({"step.total_ms.p90", percentile(s.step_ms, 90), "ms"});
  m.push_back({"tensor.pool_hit_ratio", hits / std::max(1.0, hits + misses), "ratio"});
  m.push_back({"tensor.pool_steady_misses", static_cast<double>(pool2.misses - pool1.misses),
               "count"});
  m.push_back({"tensor.pool_cached_mb", static_cast<double>(pool2.bytes_cached) / kMiB, "MB"});
  m.push_back({"parallel.cpu_per_wall", cpu_s / (epochs_ms * 1e-3), "ratio"});
  m.push_back({"parallel.dispatch_us.p50", median(dispatch_us), "us"});
  m.push_back({"parallel.dispatch_us.p99", percentile(dispatch_us, 99), "us"});
  m.push_back({"models.infer_us.p50", median(s.infer_us), "us"});
  m.push_back({"models.infer_us.p99", percentile(s.infer_us, 99), "us"});
  m.push_back({"models.infer_calls_per_game",
               games > 0 ? static_cast<double>(s.infer_us.size()) / games : 0.0, "count"});
  m.push_back({"go.search_self_ms", median(s.search_self_ms), "ms"});
  m.push_back({"trace.coverage", covered_ms / epochs_ms, "ratio"});
  m.push_back(
      {"trace.overhead", median(traced_epoch_s) / median(untraced_epoch_s) - 1.0, "ratio"});
  return result;
}

}  // namespace

TracedResult run_traced(const WorkloadDef& workload, const TraceOptions& options) {
  switch (workload.id) {
    case core::BenchmarkId::kImageClassification:
      return trace<ResNetReplay>(workload, options);
    case core::BenchmarkId::kReinforcementLearning:
      return trace<MiniGoReplay>(workload, options);
    default:
      throw std::logic_error(std::string(workload.name) + ": no traced replay");
  }
}

}  // namespace ttt_bench
