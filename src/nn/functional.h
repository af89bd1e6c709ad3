#pragma once

#include "autograd/variable.h"

namespace mlperf::nn {

/// Differentiable NCHW 2-D convolution as a GEMM over the patch matrix
/// (im2col), lowered straight into the GEMM's packed panels: no patch matrix
/// is ever materialized (detail::lower_conv_panels).
/// input: [N, C, H, W]; weight: [O, C, KH, KW]; bias: [O] (may be empty
/// Variable with numel 0 to skip). Output: [N, O, OH, OW].
autograd::Variable conv2d(const autograd::Variable& input, const autograd::Variable& weight,
                          const autograd::Variable& bias, std::int64_t stride,
                          std::int64_t padding);

/// Max pooling, NCHW. kernel k, stride s, zero "padding" excluded from max.
autograd::Variable max_pool2d(const autograd::Variable& input, std::int64_t kernel,
                              std::int64_t stride);

/// Average pooling, NCHW.
autograd::Variable avg_pool2d(const autograd::Variable& input, std::int64_t kernel,
                              std::int64_t stride);

/// Global average pool: [N, C, H, W] -> [N, C].
autograd::Variable global_avg_pool(const autograd::Variable& input);

/// Dropout: in training, zeroes entries with probability p and scales
/// survivors by 1/(1-p) (inverted dropout). Identity when !training.
autograd::Variable dropout(const autograd::Variable& input, float p, bool training,
                           tensor::Rng& rng);

/// Nearest-neighbour 2x upsample, NCHW (used by detection FPN-style heads).
autograd::Variable upsample2x(const autograd::Variable& input);

/// Fused scale -> additive-mask -> softmax over the last dim: one graph node
/// replacing the mul_scalar / add(mask) / softmax_last chain in attention.
/// `mask` broadcasts over leading dims (its rows tile the score rows, NumPy
/// right-aligned); pass an empty Tensor for no mask. Forward is two data
/// passes plus the normalize sweep (scale+mask folded into the max scan, exp
/// fused with the double-precision denominator); backward fuses the softmax
/// Jacobian product with the scale factor. Both are refchecked BITWISE (0 ULP)
/// against the unfused chain at 1/2/4/8 threads in tests/test_nn.cpp.
autograd::Variable fused_scaled_softmax(const autograd::Variable& scores, float scale,
                                        const tensor::Tensor& mask);

// ---- conv pack cache & diagnostics -----------------------------------------

/// Step-scoped conv pack cache knob. When enabled (the default), conv2d's
/// forward lowering sweep also writes each sample's weight-gradient operand —
/// the patch matrix transposed, as ready-packed GEMM panels — into a pooled
/// Tensor owned by the backward closure, so the dW pass runs its GEMM on them
/// without lowering or packing anything. Variable::backward()'s graph
/// teardown (or graph destruction) releases them at the end of the step. A
/// conv op whose panels would push the global live total past `cap_bytes`
/// simply falls back to lowering the panels again in backward.
void set_conv_pack_cache(bool enabled, std::int64_t cap_bytes = std::int64_t{256} << 20);
bool conv_pack_cache_enabled();
std::int64_t conv_pack_cache_cap_bytes();
/// Bytes of cached dW panels currently live (forwards whose backward has not
/// yet run/torn down). Returns to 0 once all conv graphs of a step are freed.
std::int64_t conv_pack_cache_live_bytes();
/// Diagnostic counter: cumulative batched lowering (im2col) sweeps — one per
/// conv2d forward, plus one per dW backward that had to lower again because
/// the cache was off or over cap. With the cache on, a train step costs
/// exactly one sweep per conv layer; uncached, two. Pinned in
/// tests/test_autograd.cpp.
std::int64_t im2col_calls();

// ---- losses ----------------------------------------------------------------

/// Softmax cross-entropy from logits [N, C] and integer targets (size N).
/// Returns mean loss (scalar Variable).
autograd::Variable cross_entropy(const autograd::Variable& logits,
                                 const std::vector<std::int64_t>& targets);

/// As above with per-example weights (used by detection hard-negative mining;
/// weight 0 removes an example from the loss). Mean over sum of weights.
autograd::Variable weighted_cross_entropy(const autograd::Variable& logits,
                                          const std::vector<std::int64_t>& targets,
                                          const std::vector<float>& weights);

/// Label-smoothed cross-entropy (Transformer reference training): the target
/// distribution is (1 - eps) on the true class plus eps/C uniform mass.
/// smoothing = 0 reduces exactly to cross_entropy.
autograd::Variable smoothed_cross_entropy(const autograd::Variable& logits,
                                          const std::vector<std::int64_t>& targets,
                                          float smoothing);

/// Binary cross-entropy from logits [N] (or [N,1]) and float targets in {0,1}.
autograd::Variable bce_with_logits(const autograd::Variable& logits,
                                   const std::vector<float>& targets);

/// Smooth-L1 (Huber, beta=1) between pred and target (same shape), mean over
/// elements with nonzero weight rows; weights has one entry per row of pred.
autograd::Variable smooth_l1(const autograd::Variable& pred, const tensor::Tensor& target,
                             const std::vector<float>& row_weights);

/// Mean squared error against a constant target of the same shape.
autograd::Variable mse(const autograd::Variable& pred, const tensor::Tensor& target);

namespace detail {

/// NCHW conv2d geometry: input [n, c, h, w], weight [o, c, kh, kw], output
/// [n, o, oh, ow].
struct ConvDims {
  std::int64_t n, c, h, w, o, kh, kw, oh, ow;
};

/// conv2d's lowering of one sample [c, h, w] straight into GEMM panels. The
/// patch matrix is cols [c*kh*kw, oh*ow] (row (channel, ki, kj), column
/// (oi, oj); taps that fall in the zero padding read 0), but it is never
/// stored: it is read from the image kGemmNR columns at a time, straight
/// into the panels. `bp_n`, when non-null, receives exactly
/// gemm_pack_b(Trans::N, cols, oh*ow, c*kh*kw, oh*ow) — the forward GEMM's
/// B operand — and `bp_t`, when non-null, exactly
/// gemm_pack_b(Trans::T, cols, oh*ow, oh*ow, c*kh*kw) — the dW GEMM's. A 1x1,
/// stride-1, unpadded conv's rows are the input planes, so those panels are
/// packed from `src` directly. Bitwise pinned in tests/test_nn.cpp. Throws
/// std::invalid_argument if a padded sample has 2^31 or more elements.
void lower_conv_panels(const float* src, const ConvDims& d, std::int64_t stride,
                       std::int64_t padding, float* bp_n, float* bp_t);

/// The adjoint of the patch-matrix lowering: adds every in-bounds entry of
/// cols [c*kh*kw, oh*ow] back onto its input position in dst [c, h, w]. Each
/// dst element receives its adds in the same (channel, ki, kj, oi, oj) order
/// as a per-element bounds-checked loop, so the result is bitwise identical
/// to one.
void col2im_accumulate(const float* cols, const ConvDims& d, std::int64_t stride,
                       std::int64_t padding, float* dst);

}  // namespace detail

}  // namespace mlperf::nn
