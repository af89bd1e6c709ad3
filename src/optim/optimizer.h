#pragma once

#include <memory>
#include <vector>

#include "autograd/variable.h"

namespace mlperf::optim {

/// Learning-rate schedule: maps a global step index to a learning rate.
/// Schedules are first-class because the paper's §2.2.4 point — the two SGD
/// momentum semantics only diverge when the LR *changes* during training —
/// and the §3.4 hyperparameter rules (linear-scaling + warmup for large
/// minibatches, per Goyal et al. 2017) both hinge on them.
class LrSchedule {
 public:
  virtual ~LrSchedule() = default;
  virtual float lr(std::int64_t step) const = 0;
};

/// lr = base * gamma^(step / step_size) — classic staircase decay.
class StepDecayLr final : public LrSchedule {
 public:
  StepDecayLr(float base, float gamma, std::int64_t step_size);
  float lr(std::int64_t step) const override;

 private:
  float base_;
  float gamma_;
  std::int64_t step_size_;
};

/// Goyal-style large-batch schedule: linear warmup from ~0 to
/// base * (batch / base_batch) over `warmup_steps`, then staircase decay.
class LinearScalingWarmupLr final : public LrSchedule {
 public:
  LinearScalingWarmupLr(float base_lr, std::int64_t batch, std::int64_t base_batch,
                        std::int64_t warmup_steps, float gamma, std::int64_t decay_step_size);
  float lr(std::int64_t step) const override;

 private:
  float peak_;
  std::int64_t warmup_steps_;
  float gamma_;
  std::int64_t decay_step_size_;
};

/// A named, ordered view of an optimizer's mutable state: the slot buffers
/// (velocity / moment tensors, one per parameter, in parameter order) plus
/// any integer scalars (e.g. Adam's bias-correction step count). The view
/// aliases the optimizer's own storage, so it serves both introspection and
/// in-place checkpoint restore. Names are stable ("velocity.3", "m.0",
/// "step") and pinned by unit tests, so a checkpoint fails loudly — by name
/// or shape mismatch — when the architecture or optimizer choice drifts.
struct OptimizerStateDict {
  std::string kind;  ///< "sgd_momentum", "adam", "lars"
  std::vector<std::pair<std::string, tensor::Tensor*>> tensors;
  std::vector<std::pair<std::string, std::int64_t*>> scalars;
};

/// Optimizer over a fixed parameter list. step(lr) consumes the gradients
/// currently stored on the parameters; callers zero_grad() between batches.
class Optimizer {
 public:
  explicit Optimizer(std::vector<autograd::Variable> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  virtual void step(float lr) = 0;

  /// Full mutable training state beyond the parameters themselves. Every
  /// optimizer must expose it — resumable training (checkpoint subsystem)
  /// depends on slot buffers surviving a restart bit-for-bit.
  virtual OptimizerStateDict state_dict() = 0;

  void zero_grad() {
    for (auto& p : params_) p.zero_grad();
  }

  const std::vector<autograd::Variable>& params() const { return params_; }

 protected:
  std::vector<autograd::Variable> params_;
};

/// The two SGD+momentum semantics the paper contrasts (§2.2.4):
///   Eq. 1 (Caffe):      m = a*m + lr*g;  w -= m
///   Eq. 2 (PyTorch/TF): m = a*m + g;     w -= lr*m
/// Identical under constant LR; they diverge when the LR decays mid-training,
/// which bench/ablation_momentum demonstrates.
enum class MomentumSemantics { kLrInsideMomentum /*Eq.1*/, kLrOutsideMomentum /*Eq.2*/ };

class SgdMomentum final : public Optimizer {
 public:
  SgdMomentum(std::vector<autograd::Variable> params, float momentum = 0.9f,
              float weight_decay = 0.0f,
              MomentumSemantics semantics = MomentumSemantics::kLrOutsideMomentum);

  /// Fused single-sweep update, bitwise equal to the per-element reference
  /// sgd_momentum_step_ref() in tests/reference/optim_ref.h (refchecked).
  void step(float lr) override;
  OptimizerStateDict state_dict() override;

 private:
  float momentum_;
  float weight_decay_;
  MomentumSemantics semantics_;
  std::vector<tensor::Tensor> velocity_;
};

/// Adam (Kingma & Ba 2015) with bias correction.
class Adam final : public Optimizer {
 public:
  Adam(std::vector<autograd::Variable> params, float beta1 = 0.9f, float beta2 = 0.999f,
       float eps = 1e-8f, float weight_decay = 0.0f);

  /// Bitwise equal to adam_step_ref() in tests/reference/optim_ref.h.
  void step(float lr) override;
  OptimizerStateDict state_dict() override;

 private:
  float beta1_, beta2_, eps_, weight_decay_;
  std::int64_t t_ = 0;
  std::vector<tensor::Tensor> m_, v_;
};

/// LARS (You et al. 2017): layer-wise adaptive rate scaling, the optimizer
/// MLPerf v0.6 allowed for large-batch ResNet (paper §5/§6). Per layer:
///   trust = eta * ||w|| / (||g|| + wd * ||w||)
///   m = mu * m + trust * lr * (g + wd * w);  w -= m
class Lars final : public Optimizer {
 public:
  Lars(std::vector<autograd::Variable> params, float momentum = 0.9f,
       float weight_decay = 1e-4f, float eta = 0.001f);

  /// Bitwise equal to lars_step_ref() in tests/reference/optim_ref.h.
  void step(float lr) override;
  OptimizerStateDict state_dict() override;

 private:
  float momentum_, weight_decay_, eta_;
  std::vector<tensor::Tensor> velocity_;
};

/// Global-norm gradient clipping (used by GNMT reference); returns the norm.
float clip_grad_norm(const std::vector<autograd::Variable>& params, float max_norm);

}  // namespace mlperf::optim
