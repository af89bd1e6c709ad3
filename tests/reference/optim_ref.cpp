#include "reference/optim_ref.h"

#include <cmath>

namespace mlperf::optim {

using tensor::Tensor;

void sgd_momentum_step_ref(std::vector<autograd::Variable>& params, OptimizerStateDict& state,
                           float lr, float momentum, float weight_decay,
                           MomentumSemantics semantics) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor& w = params[i].mutable_value();
    const Tensor& g = params[i].grad();
    Tensor& v = *state.tensors[i].second;
    const std::int64_t n = w.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      const float grad = g[j] + weight_decay * w[j];
      if (semantics == MomentumSemantics::kLrInsideMomentum) {
        v[j] = momentum * v[j] + lr * grad;  // Eq. 1
        w[j] -= v[j];
      } else {
        v[j] = momentum * v[j] + grad;       // Eq. 2
        w[j] -= lr * v[j];
      }
    }
  }
}

void adam_step_ref(std::vector<autograd::Variable>& params, OptimizerStateDict& state, float lr,
                   float beta1, float beta2, float eps, float weight_decay) {
  std::int64_t& t = *state.scalars.at(0).second;
  ++t;
  const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
  const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor& w = params[i].mutable_value();
    const Tensor& g = params[i].grad();
    Tensor& m = *state.tensors[i].second;
    Tensor& v = *state.tensors[params.size() + i].second;
    const std::int64_t n = w.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      const float grad = g[j] + weight_decay * w[j];
      m[j] = beta1 * m[j] + (1.0f - beta1) * grad;
      v[j] = beta2 * v[j] + (1.0f - beta2) * grad * grad;
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

void lars_step_ref(std::vector<autograd::Variable>& params, OptimizerStateDict& state, float lr,
                   float momentum, float weight_decay, float eta) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor& w = params[i].mutable_value();
    const Tensor& g = params[i].grad();
    const float w_norm = std::sqrt(w.l2_norm_sq());
    const float g_norm = std::sqrt(g.l2_norm_sq());
    float trust = 1.0f;
    if (w_norm > 0.0f && g_norm > 0.0f)
      trust = eta * w_norm / (g_norm + weight_decay * w_norm);
    const std::int64_t n = w.numel();
    Tensor& v = *state.tensors[i].second;
    for (std::int64_t j = 0; j < n; ++j) {
      const float grad = g[j] + weight_decay * w[j];
      v[j] = momentum * v[j] + trust * lr * grad;
      w[j] -= v[j];
    }
  }
}

}  // namespace mlperf::optim
