#pragma once

#include <cstdint>

#include "tensor/gemm.h"

namespace mlperf::tensor {

/// The original scalar kernel, retained as the numerics reference of
/// gemm_accumulate/gemm_packed: blocked i-k-j loops, one accumulator per C
/// element, ascending k. The packed kernel keeps exactly this per-element
/// accumulation order, so the refcheck contract (tests/test_gemm.cpp) is
/// EXACT BITWISE EQUALITY — a 0-ULP tolerance.
void gemm_accumulate_ref(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                         std::int64_t n);

/// The naive reference for gemm_f64acc/gemm_f64acc_packed: the exact
/// double-accumulator dot-product loop conv2d's dW used before the packed
/// kernel, generalized to the four Trans orientations. Retained as the 0-ULP
/// refcheck target; any future kernel that widens the product to double or
/// splits the k-fold must update EXPERIMENTS.md and the test tolerance in
/// one change.
void gemm_f64acc_ref(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
                     const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                     std::int64_t ldc);

}  // namespace mlperf::tensor
