#pragma once

#include <vector>

#include "optim/optimizer.h"

namespace mlperf::optim {

/// The per-element optimizer updates, retained as the executable
/// specifications of the fused step() kernels (tests/test_optim.cpp checks
/// them at 0 ULP). Each updates `params` from their gradients and the slot
/// buffers in `state` (the optimizer's state_dict(): velocity, m/v and Adam's
/// "step") in place, with the hyperparameters passed explicitly.

/// SgdMomentum::step(): Eq. 1 or Eq. 2 of the paper, per `semantics`.
void sgd_momentum_step_ref(std::vector<autograd::Variable>& params, OptimizerStateDict& state,
                           float lr, float momentum, float weight_decay,
                           MomentumSemantics semantics);

/// Adam::step(): bias-corrected moments; increments the "step" scalar first.
void adam_step_ref(std::vector<autograd::Variable>& params, OptimizerStateDict& state, float lr,
                   float beta1, float beta2, float eps, float weight_decay);

/// Lars::step(): trust ratio from Tensor::l2_norm_sq() of weight and gradient.
void lars_step_ref(std::vector<autograd::Variable>& params, OptimizerStateDict& state, float lr,
                   float momentum, float weight_decay, float eta);

}  // namespace mlperf::optim
