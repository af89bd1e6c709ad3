#include "optim/optimizer.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "parallel/parallel_for.h"

namespace {

// Mirror of the ordered-reduction chunk size in src/tensor/tensor.cpp
// (kReduceGrain). Lars::step() computes both layer norms in one fused
// parallel_reduce and must chunk exactly like Tensor::l2_norm_sq() to stay
// bitwise identical to lars_step_ref() (tests/reference/optim_ref.h), which
// calls it; a refcheck test with numel > 1<<16 pins the coupling, so a drift
// in either constant fails loudly.
constexpr std::int64_t kReduceGrain = std::int64_t{1} << 16;

}  // namespace

namespace mlperf::optim {

using autograd::Variable;
using tensor::Tensor;

StepDecayLr::StepDecayLr(float base, float gamma, std::int64_t step_size)
    : base_(base), gamma_(gamma), step_size_(step_size) {
  if (step_size <= 0) throw std::invalid_argument("StepDecayLr: step_size must be > 0");
}

float StepDecayLr::lr(std::int64_t step) const {
  return base_ * std::pow(gamma_, static_cast<float>(step / step_size_));
}

LinearScalingWarmupLr::LinearScalingWarmupLr(float base_lr, std::int64_t batch,
                                             std::int64_t base_batch, std::int64_t warmup_steps,
                                             float gamma, std::int64_t decay_step_size)
    : peak_(base_lr * static_cast<float>(batch) / static_cast<float>(base_batch)),
      warmup_steps_(warmup_steps), gamma_(gamma), decay_step_size_(decay_step_size) {
  if (base_batch <= 0 || decay_step_size <= 0)
    throw std::invalid_argument("LinearScalingWarmupLr: bad arguments");
}

float LinearScalingWarmupLr::lr(std::int64_t step) const {
  if (step < warmup_steps_)
    return peak_ * static_cast<float>(step + 1) / static_cast<float>(warmup_steps_);
  const std::int64_t after = step - warmup_steps_;
  return peak_ * std::pow(gamma_, static_cast<float>(after / decay_step_size_));
}

SgdMomentum::SgdMomentum(std::vector<Variable> params, float momentum, float weight_decay,
                         MomentumSemantics semantics)
    : Optimizer(std::move(params)), momentum_(momentum), weight_decay_(weight_decay),
      semantics_(semantics) {
  velocity_.reserve(params_.size());
  for (const auto& p : params_) velocity_.emplace_back(p.shape());
}

void SgdMomentum::step(float lr) {
  // Fused single-sweep update: the semantics branch is hoisted out of the
  // element loop and the buffers are walked through raw pointers. Per-element
  // arithmetic is expression-for-expression identical to
  // sgd_momentum_step_ref(), so the resulting bits are the same (no FMA
  // contraction at the default build flags; refcheck tests pin the
  // equivalence).
  const float mu = momentum_;
  const float wd = weight_decay_;
  const bool lr_inside = semantics_ == MomentumSemantics::kLrInsideMomentum;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* v = velocity_[i].data();
    const std::int64_t n = velocity_[i].numel();
    if (lr_inside) {
      for (std::int64_t j = 0; j < n; ++j) {
        const float grad = g[j] + wd * w[j];
        const float vj = mu * v[j] + lr * grad;  // Eq. 1
        v[j] = vj;
        w[j] -= vj;
      }
    } else {
      for (std::int64_t j = 0; j < n; ++j) {
        const float grad = g[j] + wd * w[j];
        const float vj = mu * v[j] + grad;       // Eq. 2
        v[j] = vj;
        w[j] -= lr * vj;
      }
    }
  }
}

OptimizerStateDict SgdMomentum::state_dict() {
  OptimizerStateDict d;
  d.kind = "sgd_momentum";
  for (std::size_t i = 0; i < velocity_.size(); ++i)
    d.tensors.emplace_back("velocity." + std::to_string(i), &velocity_[i]);
  return d;
}

Adam::Adam(std::vector<Variable> params, float beta1, float beta2, float eps, float weight_decay)
    : Optimizer(std::move(params)), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.shape());
    v_.emplace_back(p.shape());
  }
}

void Adam::step(float lr) {
  // Fused single-sweep update over raw pointers; moment reads/writes go
  // through locals so each slot is loaded and stored once per element. The
  // per-element expressions (including the explicit /bc1 and /bc2 divisions —
  // no reciprocal-multiply) match adam_step_ref() exactly, so the bits do too.
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const float b1 = beta1_;
  const float b2 = beta2_;
  const float one_minus_b1 = 1.0f - beta1_;
  const float one_minus_b2 = 1.0f - beta2_;
  const float wd = weight_decay_;
  const float eps = eps_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const std::int64_t n = m_[i].numel();
    for (std::int64_t j = 0; j < n; ++j) {
      const float grad = g[j] + wd * w[j];
      const float mj = b1 * m[j] + one_minus_b1 * grad;
      const float vj = b2 * v[j] + one_minus_b2 * grad * grad;
      m[j] = mj;
      v[j] = vj;
      const float mhat = mj / bc1;
      const float vhat = vj / bc2;
      w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

OptimizerStateDict Adam::state_dict() {
  OptimizerStateDict d;
  d.kind = "adam";
  for (std::size_t i = 0; i < m_.size(); ++i)
    d.tensors.emplace_back("m." + std::to_string(i), &m_[i]);
  for (std::size_t i = 0; i < v_.size(); ++i)
    d.tensors.emplace_back("v." + std::to_string(i), &v_[i]);
  d.scalars.emplace_back("step", &t_);
  return d;
}

Lars::Lars(std::vector<Variable> params, float momentum, float weight_decay, float eta)
    : Optimizer(std::move(params)), momentum_(momentum), weight_decay_(weight_decay), eta_(eta) {
  velocity_.reserve(params_.size());
  for (const auto& p : params_) velocity_.emplace_back(p.shape());
}

void Lars::step(float lr) {
  // Fused LARS: both layer norms come from ONE ordered reduction over the
  // parameter (each chunk sums ||w||^2 and ||g||^2 partials side by side),
  // then a single raw-pointer sweep applies decay + trust + momentum + step.
  // Each pair component accumulates in exactly the chunk boundaries and
  // ascending combine order of Tensor::l2_norm_sq() (kReduceGrain mirrored
  // above), so the norms — and therefore the update — are bitwise identical
  // to lars_step_ref().
  const float mu = momentum_;
  const float wd = weight_decay_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* v = velocity_[i].data();
    const std::int64_t n = velocity_[i].numel();
    const std::pair<double, double> norms_sq = parallel::parallel_reduce(
        kReduceGrain, n, std::pair<double, double>{0.0, 0.0},
        [&](std::int64_t begin, std::int64_t end) {
          double aw = 0.0;
          for (std::int64_t j = begin; j < end; ++j) {
            const double x = w[j];
            aw += x * x;
          }
          double ag = 0.0;
          for (std::int64_t j = begin; j < end; ++j) {
            const double x = g[j];
            ag += x * x;
          }
          return std::pair<double, double>{aw, ag};
        },
        [](const std::pair<double, double>& a, const std::pair<double, double>& b) {
          return std::pair<double, double>{a.first + b.first, a.second + b.second};
        });
    const float w_norm = std::sqrt(static_cast<float>(norms_sq.first));
    const float g_norm = std::sqrt(static_cast<float>(norms_sq.second));
    float trust = 1.0f;
    if (w_norm > 0.0f && g_norm > 0.0f)
      trust = eta_ * w_norm / (g_norm + wd * w_norm);
    // lars_step_ref evaluates momentum*v + trust*lr*grad left-to-right, so
    // hoisting (trust * lr) preserves the bits.
    const float tl = trust * lr;
    for (std::int64_t j = 0; j < n; ++j) {
      const float grad = g[j] + wd * w[j];
      const float vj = mu * v[j] + tl * grad;
      v[j] = vj;
      w[j] -= vj;
    }
  }
}

OptimizerStateDict Lars::state_dict() {
  OptimizerStateDict d;
  d.kind = "lars";
  for (std::size_t i = 0; i < velocity_.size(); ++i)
    d.tensors.emplace_back("velocity." + std::to_string(i), &velocity_[i]);
  return d;
}

float clip_grad_norm(const std::vector<Variable>& params, float max_norm) {
  double total = 0.0;
  for (const auto& p : params) total += p.grad().l2_norm_sq();
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (const auto& p : params) {
      // Grad tensors are mutated in place through the node.
      Tensor& g = p.node()->grad;
      for (std::int64_t j = 0; j < g.numel(); ++j) g[j] *= scale;
    }
  }
  return norm;
}

}  // namespace mlperf::optim
