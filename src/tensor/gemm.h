#pragma once

#include <cstdint>
#include <cstring>
#include <span>

namespace mlperf::tensor {

/// Operand orientation for the GEMM entry points. `T` means the stored
/// matrix is consumed transposed; the pack routines absorb the transpose
/// while copying panels, so no materialized transpose is ever needed.
enum class Trans : std::uint8_t { N, T };

// Blocking parameters of the packed kernel (see EXPERIMENTS.md, "GEMM
// micro-kernel"). MR x NR is the register tile of the default build: NR = 8
// floats is two SSE2 vectors, the widest the baseline x86-64 target has. The
// avx2 and avx512 builds (see gemm_isa) keep NR = 8 — one 256-bit vector, so
// packed B panels are the same for every build — and widen MR to 8. MC
// bounds the packed A panel so it stays cache-resident while a B panel
// streams past it.
// K is not blocked: each C element folds its k-products in one ascending
// pass, which is what makes the kernel bitwise reproducible (see
// gemm_accumulate_ref in tests/reference).
inline constexpr std::int64_t kGemmMR = 4;
inline constexpr std::int64_t kGemmNR = 8;
inline constexpr std::int64_t kGemmMC = 64;

/// The kernel build gemm_packed and gemm_f64acc_packed dispatch to on this
/// host: "avx512" when the CPU supports AVX-512F and AVX-512VL, else "avx2"
/// when it supports AVX2, else "default" (baseline x86-64, or the only build
/// on other architectures). Chosen once, on first use, from the CPU's feature
/// flags; nothing else selects it. Every build computes the same bits,
/// because none of them uses FMA: a fused multiply-add rounds once where
/// `acc += a * b` rounds twice, which would change every 0-ULP pin and every
/// recorded training outcome. The run's mlog records this name (key
/// "kernel_isa") so a time-to-train says which kernel produced it.
const char* gemm_isa();

namespace detail {

/// The signature of the prepacked kernels (gemm_packed, gemm_f64acc_packed).
using PackedGemmFn = void (*)(Trans ta, const float* a, std::int64_t lda, const float* bp,
                              std::int64_t m, std::int64_t n, std::int64_t k, float* c,
                              std::int64_t ldc);

/// One compiled build of the two GEMM drivers. Exposed so tests can refcheck
/// every build the binary carries, not only the dispatched one.
struct GemmVariant {
  const char* isa;
  std::int64_t mr;      ///< float register-tile rows (NR is kGemmNR in every build)
  bool host_supported;  ///< this CPU can execute it
  PackedGemmFn packed;
  PackedGemmFn f64acc_packed;
};

/// Every build compiled in, in dispatch preference order (widest first):
/// avx512, avx2, default on x86-64. gemm_packed/gemm_f64acc_packed run the
/// first entry with host_supported set.
std::span<const GemmVariant> gemm_variants();

}  // namespace detail

/// Floats needed for a packed B panel of op(B) with k rows and n columns
/// (n rounded up to a multiple of kGemmNR, zero-padded).
std::int64_t gemm_packed_b_size(std::int64_t k, std::int64_t n);

/// Pack op(B) (k x n after the optional transpose) into `bp`, laid out as
/// ceil(n/NR) panels of [k][NR]. `ldb` is the leading dimension of the
/// STORED matrix: op(B)[p][j] = b[p*ldb + j] when N, b[j*ldb + p] when T.
/// A packed panel is read-only afterwards and may be shared across the
/// row-partitions of a threaded GEMM.
void gemm_pack_b(Trans tb, const float* b, std::int64_t ldb, std::int64_t k, std::int64_t n,
                 float* bp);

/// Stores the transpose of one kGemmNR x kGemmNR tile (row l at
/// tile + l*kGemmNR) as rows [0, nq) of a packed panel:
/// dst[e*kGemmNR + l] = tile[l*kGemmNR + e]. This is how gemm_pack_b lays out
/// NR stored rows of a Trans::T operand; it is inline so that callers which
/// generate op(B) on the fly (conv2d's lowering) can pack it tile by tile.
/// The tile goes through four 4x4 register transposes; a pure copy.
inline void gemm_pack_b_tile_t(const float* tile, std::int64_t nq, float* dst) {
  static_assert(kGemmNR == 8, "the tile is transposed as 4x4 quadrants");
  using f32x4 = float __attribute__((vector_size(16)));
  f32x4 quad[2][2][4];  // [row half][column half][row], transposed in place
  for (int h = 0; h < 2; ++h)
    for (int g = 0; g < 2; ++g) {
      f32x4* v = quad[h][g];
      for (int l = 0; l < 4; ++l)
        std::memcpy(&v[l], tile + (4 * h + l) * kGemmNR + 4 * g, sizeof(f32x4));
      const f32x4 t0 = __builtin_shufflevector(v[0], v[1], 0, 4, 1, 5);
      const f32x4 t1 = __builtin_shufflevector(v[0], v[1], 2, 6, 3, 7);
      const f32x4 t2 = __builtin_shufflevector(v[2], v[3], 0, 4, 1, 5);
      const f32x4 t3 = __builtin_shufflevector(v[2], v[3], 2, 6, 3, 7);
      v[0] = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
      v[1] = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
      v[2] = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
      v[3] = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
    }
  // Row e of the panel: column e of the tile, i.e. row e % 4 of the
  // transposed quadrants in column half e / 4, both row halves side by side.
  auto store_row = [&](std::int64_t e) {
    for (int h = 0; h < 2; ++h)
      std::memcpy(dst + e * kGemmNR + 4 * h, &quad[h][e / 4][e % 4], sizeof(f32x4));
  };
  if (nq == kGemmNR) {
    for (std::int64_t e = 0; e < kGemmNR; ++e) store_row(e);
  } else {
    for (std::int64_t e = 0; e < nq; ++e) store_row(e);
  }
}

/// C[m,n] (row-major, leading dimension ldc) += op(A) * Bp, where Bp was
/// filled by gemm_pack_b. op(A)[i][p] = a[i*lda + p] when N, a[p*lda + i]
/// when T. A panels are packed into the calling thread's ScratchArena.
/// Deterministic: every C element accumulates C_initial + sum of its
/// k-products in ascending k order with a single float accumulator, so the
/// result is independent of tiling, threading and call-site partitioning.
void gemm_packed(Trans ta, const float* a, std::int64_t lda, const float* bp, std::int64_t m,
                 std::int64_t n, std::int64_t k, float* c, std::int64_t ldc);

/// One-call form: packs op(B) into the calling thread's scratch arena, then
/// runs gemm_packed. C[m,n] += op(A)[m,k] * op(B)[k,n].
///
/// Bitwise identical to the retained scalar reference kernel
/// (gemm_accumulate_ref, tests/reference): one accumulator per C element,
/// ascending k. The refcheck contract (tests/test_gemm.cpp) is EXACT BITWISE
/// EQUALITY — a 0-ULP tolerance. Any future kernel that reorders the
/// summation (k-splitting, multiple accumulators, FMA-only paths) must widen
/// the documented tolerance in EXPERIMENTS.md and relax the test in the same
/// change.
void gemm_accumulate(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
                     const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                     std::int64_t ldc);

/// Packed, cache-blocked GEMM with DOUBLE accumulators — the conv2d weight
/// gradient kernel — on op(B) already packed by gemm_pack_b (or laid out
/// exactly as it would). OVERWRITE semantics:
///
///   C[i][j] = float( sum over p ascending of double( op(A)[i][p] * Bp[p][j] ) )
///
/// Each product is computed in float (exactly as the naive dW dot-product
/// loop does: float*float rounds before widening) and folded into ONE double
/// accumulator per C element in ascending k order. MR x NR register tiling
/// with double accumulator lanes, MC blocking on the packed A panel, K
/// un-blocked — so the result is bitwise identical to the naive reference
/// (gemm_f64acc_ref, tests/reference: the double-accumulator dot-product
/// loop conv2d's dW used before the packed kernel) at any tiling, threading
/// or call-site partitioning (a 0-ULP contract, pinned in
/// tests/test_gemm.cpp). k <= 0 zeroes C (the naive loop writes float(0.0)).
/// Existing C contents are ignored — this is NOT an accumulate kernel.
/// conv2d's dW calls it on panels its lowering wrote straight from the image.
void gemm_f64acc_packed(Trans ta, const float* a, std::int64_t lda, const float* bp,
                        std::int64_t m, std::int64_t n, std::int64_t k, float* c,
                        std::int64_t ldc);

}  // namespace mlperf::tensor
