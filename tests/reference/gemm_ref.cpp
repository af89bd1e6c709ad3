#include "reference/gemm_ref.h"

#include <algorithm>

namespace mlperf::tensor {

void gemm_accumulate_ref(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                         std::int64_t n) {
  // i-k-j loop order: unit-stride inner loop over both B and C rows. One
  // accumulator per C element, k folded in ascending order — the numerics
  // contract the packed kernel reproduces bit-for-bit.
  constexpr std::int64_t kBlock = 64;
  for (std::int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const std::int64_t i1 = std::min(i0 + kBlock, m);
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlock) {
      const std::int64_t k1 = std::min(k0 + kBlock, k);
      for (std::int64_t i = i0; i < i1; ++i) {
        float* crow = c + i * n;
        for (std::int64_t kk = k0; kk < k1; ++kk) {
          const float av = a[i * k + kk];
          const float* brow = b + kk * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void gemm_f64acc_ref(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
                     const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                     std::int64_t ldc) {
  const std::int64_t ars = ta == Trans::N ? lda : 1;
  const std::int64_t acs = ta == Trans::N ? 1 : lda;
  const std::int64_t brs = tb == Trans::N ? ldb : 1;
  const std::int64_t bcs = tb == Trans::N ? 1 : ldb;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += a[i * ars + p * acs] * b[p * brs + j * bcs];  // float product, double fold
      c[i * ldc + j] = static_cast<float>(acc);
    }
  }
}

}  // namespace mlperf::tensor
