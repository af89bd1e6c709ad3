#include "optim/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "reference/optim_ref.h"
#include "tensor/rng.h"

namespace mlperf::optim {
namespace {

using autograd::Variable;
using tensor::Tensor;

Variable make_param(float value) { return Variable(Tensor({1}, value), true); }

void set_grad(Variable& p, float g) {
  p.zero_grad();
  p.node()->grad[0] = g;
}

TEST(Schedules, StepDecayStaircase) {
  StepDecayLr s(1.0f, 0.5f, 10);
  EXPECT_FLOAT_EQ(s.lr(0), 1.0f);
  EXPECT_FLOAT_EQ(s.lr(9), 1.0f);
  EXPECT_FLOAT_EQ(s.lr(10), 0.5f);
  EXPECT_FLOAT_EQ(s.lr(25), 0.25f);
  EXPECT_THROW(StepDecayLr(1.0f, 0.5f, 0), std::invalid_argument);
}

TEST(Schedules, LinearScalingPeakFollowsBatch) {
  // Goyal et al. linear scaling: peak lr proportional to batch size.
  LinearScalingWarmupLr small(0.1f, 256, 256, 5, 0.1f, 100);
  LinearScalingWarmupLr large(0.1f, 1024, 256, 5, 0.1f, 100);
  // The first step after the 5 warmup steps runs at the peak.
  EXPECT_FLOAT_EQ(small.lr(5), 0.1f);
  EXPECT_FLOAT_EQ(large.lr(5), 0.4f);
}

TEST(Schedules, WarmupRampsLinearly) {
  LinearScalingWarmupLr s(1.0f, 32, 32, 10, 0.5f, 100);
  EXPECT_LT(s.lr(0), s.lr(5));
  EXPECT_LT(s.lr(5), s.lr(9));
  EXPECT_FLOAT_EQ(s.lr(9), 1.0f);
  EXPECT_FLOAT_EQ(s.lr(10), 1.0f);   // decay epoch 0
  EXPECT_FLOAT_EQ(s.lr(110), 0.5f);  // one decay step after warmup
}

TEST(SgdMomentum, PlainStepNoMomentum) {
  auto p = make_param(1.0f);
  SgdMomentum opt({p}, /*momentum=*/0.0f);
  set_grad(p, 0.5f);
  opt.step(0.1f);
  EXPECT_NEAR(p.value()[0], 1.0f - 0.05f, 1e-6);
}

TEST(SgdMomentum, TwoSemanticsIdenticalUnderConstantLr) {
  // The paper's §2.2.4 point, part 1: Eq.1 and Eq.2 agree while lr is fixed.
  auto p1 = make_param(1.0f);
  auto p2 = make_param(1.0f);
  SgdMomentum a({p1}, 0.9f, 0.0f, MomentumSemantics::kLrInsideMomentum);
  SgdMomentum b({p2}, 0.9f, 0.0f, MomentumSemantics::kLrOutsideMomentum);
  for (int i = 0; i < 20; ++i) {
    set_grad(p1, 0.3f);
    set_grad(p2, 0.3f);
    a.step(0.01f);
    b.step(0.01f);
    EXPECT_NEAR(p1.value()[0], p2.value()[0], 1e-5) << "step " << i;
  }
}

TEST(SgdMomentum, TwoSemanticsDivergeWhenLrDecays) {
  // Part 2: they differ once the schedule changes the lr mid-training,
  // because Eq.1 bakes the old lr into the momentum buffer.
  auto p1 = make_param(1.0f);
  auto p2 = make_param(1.0f);
  SgdMomentum a({p1}, 0.9f, 0.0f, MomentumSemantics::kLrInsideMomentum);
  SgdMomentum b({p2}, 0.9f, 0.0f, MomentumSemantics::kLrOutsideMomentum);
  StepDecayLr sched(0.1f, 0.1f, 5);
  for (int i = 0; i < 10; ++i) {
    set_grad(p1, 1.0f);
    set_grad(p2, 1.0f);
    a.step(sched.lr(i));
    b.step(sched.lr(i));
  }
  EXPECT_GT(std::fabs(p1.value()[0] - p2.value()[0]), 1e-3f);
}

TEST(SgdMomentum, WeightDecayPullsTowardZero) {
  auto p = make_param(10.0f);
  SgdMomentum opt({p}, 0.0f, /*weight_decay=*/0.1f);
  set_grad(p, 0.0f);
  opt.step(1.0f);
  EXPECT_NEAR(p.value()[0], 9.0f, 1e-5);
}

TEST(SgdMomentum, MomentumAccumulates) {
  auto p = make_param(0.0f);
  SgdMomentum opt({p}, 0.9f);
  set_grad(p, 1.0f);
  opt.step(1.0f);
  EXPECT_NEAR(p.value()[0], -1.0f, 1e-5);
  set_grad(p, 1.0f);
  opt.step(1.0f);
  EXPECT_NEAR(p.value()[0], -1.0f - 1.9f, 1e-5);  // v = 0.9*1 + 1
}

TEST(Adam, FirstStepIsLrSized) {
  auto p = make_param(0.0f);
  Adam opt({p});
  set_grad(p, 0.123f);
  opt.step(0.01f);
  // Bias-corrected Adam first step == lr * sign(grad) (approximately).
  EXPECT_NEAR(p.value()[0], -0.01f, 1e-4);
}

TEST(Adam, AdaptsToGradientScale) {
  // Two params with gradients of very different scale move ~equally.
  auto p1 = make_param(0.0f);
  auto p2 = make_param(0.0f);
  Adam opt({p1, p2});
  for (int i = 0; i < 10; ++i) {
    set_grad(p1, 100.0f);
    set_grad(p2, 0.01f);
    opt.step(0.01f);
  }
  EXPECT_NEAR(p1.value()[0], p2.value()[0], 2e-3);
}

TEST(Adam, ConvergesOnQuadratic) {
  auto p = make_param(5.0f);
  Adam opt({p});
  for (int i = 0; i < 800; ++i) {
    set_grad(p, 2.0f * p.value()[0]);  // d/dx x^2
    opt.step(0.05f);
  }
  EXPECT_NEAR(p.value()[0], 0.0f, 0.05f);
}

TEST(Lars, TrustRatioScalesUpdate) {
  // Large weight norm + small grad norm => trust ratio amplifies the step
  // relative to plain SGD with the same lr.
  auto p_lars = Variable(Tensor({4}, 10.0f), true);
  auto p_sgd = Variable(Tensor({4}, 10.0f), true);
  Lars lars({p_lars}, 0.0f, 0.0f, /*eta=*/0.1f);
  SgdMomentum sgd({p_sgd}, 0.0f);
  for (auto* p : {&p_lars, &p_sgd}) {
    p->zero_grad();
    for (int i = 0; i < 4; ++i) p->node()->grad[i] = 0.001f;
  }
  lars.step(0.1f);
  sgd.step(0.1f);
  const float lars_delta = std::fabs(p_lars.value()[0] - 10.0f);
  const float sgd_delta = std::fabs(p_sgd.value()[0] - 10.0f);
  EXPECT_GT(lars_delta, sgd_delta * 10.0f);
}

TEST(Lars, ZeroWeightFallsBackToPlainStep) {
  auto p = make_param(0.0f);
  Lars lars({p}, 0.0f, 0.0f, 0.001f);
  set_grad(p, 1.0f);
  lars.step(0.1f);
  EXPECT_NEAR(p.value()[0], -0.1f, 1e-6);  // trust ratio defaults to 1
}

TEST(Lars, ConvergesOnQuadratic) {
  auto p = make_param(3.0f);
  Lars lars({p}, 0.9f, 0.0f, 0.05f);
  for (int i = 0; i < 500; ++i) {
    set_grad(p, 2.0f * p.value()[0]);
    lars.step(0.5f);
  }
  EXPECT_NEAR(p.value()[0], 0.0f, 0.1f);
}

TEST(ClipGradNorm, ClipsOnlyWhenAboveMax) {
  auto p = Variable(Tensor({2}, 0.0f), true);
  p.zero_grad();
  p.node()->grad[0] = 3.0f;
  p.node()->grad[1] = 4.0f;
  const float norm = clip_grad_norm({p}, 10.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  EXPECT_FLOAT_EQ(p.grad()[0], 3.0f);  // unchanged
  const float norm2 = clip_grad_norm({p}, 1.0f);
  EXPECT_FLOAT_EQ(norm2, 5.0f);
  EXPECT_NEAR(std::sqrt(p.grad().l2_norm_sq()), 1.0f, 1e-5);
}

TEST(Optimizer, ZeroGradResetsAllParams) {
  auto p1 = make_param(1.0f);
  auto p2 = make_param(2.0f);
  SgdMomentum opt({p1, p2});
  set_grad(p1, 1.0f);
  set_grad(p2, 1.0f);
  opt.zero_grad();
  EXPECT_EQ(p1.grad()[0], 0.0f);
  EXPECT_EQ(p2.grad()[0], 0.0f);
}

// Property sweep: every optimizer reduces a convex loss from several starts.
class OptimizerConvergence : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerConvergence, ReducesQuadraticLoss) {
  const float x0 = static_cast<float>(GetParam());
  auto p = make_param(x0);
  std::unique_ptr<Optimizer> opt;
  switch (GetParam() % 3) {
    case 0: opt = std::make_unique<SgdMomentum>(std::vector<Variable>{p}, 0.9f); break;
    case 1: opt = std::make_unique<Adam>(std::vector<Variable>{p}); break;
    default: opt = std::make_unique<Lars>(std::vector<Variable>{p}, 0.9f, 0.0f, 0.05f); break;
  }
  for (int i = 0; i < 300; ++i) {
    set_grad(p, 2.0f * p.value()[0]);
    opt->step(0.03f);
  }
  EXPECT_LT(std::fabs(p.value()[0]), std::fabs(x0) * 0.5f + 0.2f);
}

INSTANTIATE_TEST_SUITE_P(Starts, OptimizerConvergence, ::testing::Values(1, 2, 3, -4, 5, -6));

// ---- fused-vs-reference bitwise refchecks ----------------------------------
//
// step() is a fused single-sweep kernel; the free functions in
// tests/reference/optim_ref.h are the retained per-element references. The
// contract is BITWISE equality — same weights, same slot buffers, after
// multiple steps with a decaying LR (the regime where momentum semantics and
// accumulated state diverge fastest). The big
// parameter exceeds the ordered-reduction chunk (1<<16 floats) so LARS's
// fused pair-norm exercises the multi-chunk combine path.

std::vector<Variable> make_twin(tensor::Rng& rng) {
  // Recreate from an identical rng stream so both twins start bit-equal.
  std::vector<Variable> params;
  params.push_back(Variable(Tensor::randn({7}, rng), true));
  params.push_back(Variable(Tensor::randn({300, 220}, rng), true));  // > 1<<16
  params.push_back(Variable(Tensor::randn({33}, rng), true));
  return params;
}

void load_grads(std::vector<Variable>& params, tensor::Rng& rng) {
  for (auto& p : params) {
    p.zero_grad();
    const Tensor g = Tensor::randn(p.shape(), rng);
    std::copy(g.data(), g.data() + g.numel(), p.node()->grad.data());
  }
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what;
}

/// Runs the fused `Opt(params, args...)` and `reference_step(params, state,
/// lr)` on twin parameters; `state` is the state_dict() of a second Opt that
/// only holds the reference's slots (its step() never runs).
template <typename Opt, typename RefStep, typename... Args>
void check_fused_matches_reference(RefStep reference_step, Args... args) {
  tensor::Rng init_a(123), init_b(123);
  std::vector<Variable> pa = make_twin(init_a);
  std::vector<Variable> pb = make_twin(init_b);
  Opt fused(pa, args...);
  Opt slots(pb, args...);
  OptimizerStateDict db = slots.state_dict();
  const float lrs[] = {0.1f, 0.1f, 0.05f, 0.05f, 0.025f, 0.0125f};
  tensor::Rng grad_a(456), grad_b(456);
  for (float lr : lrs) {
    load_grads(pa, grad_a);
    load_grads(pb, grad_b);
    fused.step(lr);
    reference_step(pb, db, lr);
  }
  for (std::size_t i = 0; i < pa.size(); ++i)
    expect_bitwise_equal(pa[i].value(), pb[i].value(), "param " + std::to_string(i));
  OptimizerStateDict da = fused.state_dict();
  ASSERT_EQ(da.tensors.size(), db.tensors.size());
  for (std::size_t i = 0; i < da.tensors.size(); ++i)
    expect_bitwise_equal(*da.tensors[i].second, *db.tensors[i].second, da.tensors[i].first);
  ASSERT_EQ(da.scalars.size(), db.scalars.size());
  for (std::size_t i = 0; i < da.scalars.size(); ++i)
    EXPECT_EQ(*da.scalars[i].second, *db.scalars[i].second) << da.scalars[i].first;
}

TEST(FusedOptimizer, SgdLrInsideMomentumMatchesReferenceBitwise) {
  constexpr auto kSemantics = MomentumSemantics::kLrInsideMomentum;
  check_fused_matches_reference<SgdMomentum>(
      [](std::vector<Variable>& p, OptimizerStateDict& s, float lr) {
        sgd_momentum_step_ref(p, s, lr, 0.9f, 1e-4f, kSemantics);
      },
      0.9f, 1e-4f, kSemantics);
}

TEST(FusedOptimizer, SgdLrOutsideMomentumMatchesReferenceBitwise) {
  constexpr auto kSemantics = MomentumSemantics::kLrOutsideMomentum;
  check_fused_matches_reference<SgdMomentum>(
      [](std::vector<Variable>& p, OptimizerStateDict& s, float lr) {
        sgd_momentum_step_ref(p, s, lr, 0.9f, 1e-4f, kSemantics);
      },
      0.9f, 1e-4f, kSemantics);
}

TEST(FusedOptimizer, AdamMatchesReferenceBitwise) {
  check_fused_matches_reference<Adam>(
      [](std::vector<Variable>& p, OptimizerStateDict& s, float lr) {
        adam_step_ref(p, s, lr, 0.9f, 0.999f, 1e-8f, 1e-5f);
      },
      0.9f, 0.999f, 1e-8f, 1e-5f);
}

TEST(FusedOptimizer, LarsMatchesReferenceBitwise) {
  check_fused_matches_reference<Lars>(
      [](std::vector<Variable>& p, OptimizerStateDict& s, float lr) {
        lars_step_ref(p, s, lr, 0.9f, 1e-4f, 0.001f);
      },
      0.9f, 1e-4f, 0.001f);
}

}  // namespace
}  // namespace mlperf::optim
