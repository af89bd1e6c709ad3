#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "tensor/scratch.h"

namespace mlperf::tensor {

namespace {

// The drivers and micro-kernels below are written once and compiled once per
// ISA variant (the table is detail::gemm_variants): every helper is
// force-inlined into the per-ISA entry points, so the register-tile loops are
// compiled for that entry point's target — 128-bit SSE2 in the default build,
// 256-bit AVX2 in the avx2 build, 512-bit double lanes in the avx512 build.
// No variant may fuse a multiply and an add (a fused multiply-add rounds once,
// so it changes the bits; AVX-512F itself carries FMA forms), and this file
// is compiled with -ffp-contract=off.
#define MLPERF_GEMM_INLINE inline __attribute__((always_inline))

#if defined(__x86_64__) || defined(__i386__)
#define MLPERF_GEMM_HAVE_AVX2 1
#define MLPERF_GEMM_TARGET_AVX2 __attribute__((target("avx2")))
#define MLPERF_GEMM_TARGET_AVX512 __attribute__((target("avx512f,avx512vl")))
#else
#define MLPERF_GEMM_HAVE_AVX2 0
#endif

constexpr std::int64_t NR = kGemmNR;
constexpr std::int64_t MC = kGemmMC;

using f32x4 = float __attribute__((vector_size(16)));
using f32x8 = float __attribute__((vector_size(32)));
using f64x2 = double __attribute__((vector_size(16)));
using f64x4 = double __attribute__((vector_size(32)));
using f64x8 = double __attribute__((vector_size(64)));

// Pack one MR-row strip of op(A) k-major: ap[p*MR + r] = opA[i0+r][p].
// rs/cs are the row/column strides of op(A) over the stored matrix, so the
// same routine serves both orientations. Rows past `mr` are zero-padded;
// their accumulator lanes are computed but never stored.
template <std::int64_t MR>
MLPERF_GEMM_INLINE void pack_a_strip(const float* a, std::int64_t rs, std::int64_t cs,
                                     std::int64_t i0, std::int64_t mr, std::int64_t k,
                                     float* ap) {
  for (std::int64_t p = 0; p < k; ++p) {
    float* dst = ap + p * MR;
    const float* src = a + i0 * rs + p * cs;
    std::int64_t r = 0;
    for (; r < mr; ++r) dst[r] = src[r * rs];
    for (; r < MR; ++r) dst[r] = 0.0f;
  }
}

// The register tiles are written with GCC/Clang generic vectors of type V,
// one register of the target: f32x4 (SSE2) in the default build, f32x8 in
// the avx2 build. A tile row of NR floats is NR / lanes(V) vectors. Element-
// wise `acc += a * b` is still one multiply and one add per element, each
// rounded on its own, so the vector width never changes a bit. Vectors move
// through memcpy of exactly one vector, which compiles to a plain unaligned
// load or store.
template <class V>
inline constexpr std::int64_t kLanes = sizeof(V) / sizeof(V{}[0]);

// MR x NR float tile: acc starts from the existing C values and folds the
// packed panels' k-products in ascending k, one float accumulator per
// element — the exact accumulation order of gemm_accumulate_ref, which is
// what keeps the packed kernel bitwise equal to it. Edge tiles run through a
// zero-padded copy of their C block whose padding lanes are never stored.
template <class V, std::int64_t MR>
struct FloatTile {
  static constexpr std::int64_t kMR = MR;
  static constexpr std::int64_t kRowVecs = NR / kLanes<V>;

  static MLPERF_GEMM_INLINE void fold(std::int64_t k, const float* ap, const float* bp, float* c,
                                      std::int64_t ldc) {
    V acc[MR][kRowVecs];
    for (std::int64_t r = 0; r < MR; ++r)
      for (std::int64_t v = 0; v < kRowVecs; ++v)
        std::memcpy(&acc[r][v], c + r * ldc + v * kLanes<V>, sizeof(V));
    for (std::int64_t p = 0; p < k; ++p) {
      V bv[kRowVecs];
      for (std::int64_t v = 0; v < kRowVecs; ++v)
        std::memcpy(&bv[v], bp + p * NR + v * kLanes<V>, sizeof(V));
      for (std::int64_t r = 0; r < MR; ++r)
        for (std::int64_t v = 0; v < kRowVecs; ++v) acc[r][v] += ap[p * MR + r] * bv[v];
    }
    for (std::int64_t r = 0; r < MR; ++r)
      for (std::int64_t v = 0; v < kRowVecs; ++v)
        std::memcpy(c + r * ldc + v * kLanes<V>, &acc[r][v], sizeof(V));
  }

  static MLPERF_GEMM_INLINE void run(std::int64_t k, const float* ap, const float* bp, float* c,
                                     std::int64_t ldc, std::int64_t mr, std::int64_t nr) {
    if (mr == MR && nr == NR) return fold(k, ap, bp, c, ldc);
    float edge[MR][NR] = {};
    for (std::int64_t r = 0; r < mr; ++r)
      for (std::int64_t j = 0; j < nr; ++j) edge[r][j] = c[r * ldc + j];
    fold(k, ap, bp, &edge[0][0], NR);
    for (std::int64_t r = 0; r < mr; ++r)
      for (std::int64_t j = 0; j < nr; ++j) c[r * ldc + j] = edge[r][j];
  }
};

// Double-accumulator twin of FloatTile for the dW numerics contract: the
// product stays float (rounding exactly where the naive `acc += g*c` loop
// rounds) and is then widened, the fold is double, one accumulator per
// element, ascending k. Overwrite semantics — acc starts at zero and C is
// stored, not added to. Each float product vector V widens into
// kLanes<V> / kLanes<D> double vectors D: two half-width ones in the default
// and avx2 builds, one 512-bit vector in the avx512 build. The widening is
// written lane by lane, which gcc turns into one vcvtps2pd per D (gcc 12's
// __builtin_convertvector would split an f32x8 -> f64x8 convert in two).
template <class V, class D, std::int64_t MR>
struct DoubleTile {
  static constexpr std::int64_t kMR = MR;
  static constexpr std::int64_t kRowVecs = NR / kLanes<V>;
  static constexpr std::int64_t kDLanes = kLanes<D>;
  static constexpr std::int64_t kParts = kLanes<V> / kDLanes;

  static MLPERF_GEMM_INLINE void run(std::int64_t k, const float* ap, const float* bp, float* c,
                                     std::int64_t ldc, std::int64_t mr, std::int64_t nr) {
    D acc[MR][kRowVecs * kParts] = {};
    for (std::int64_t p = 0; p < k; ++p) {
      V bv[kRowVecs];
      for (std::int64_t v = 0; v < kRowVecs; ++v)
        std::memcpy(&bv[v], bp + p * NR + v * kLanes<V>, sizeof(V));
      for (std::int64_t r = 0; r < MR; ++r)
        for (std::int64_t v = 0; v < kRowVecs; ++v) {
          const V prod = ap[p * MR + r] * bv[v];
          for (std::int64_t h = 0; h < kParts; ++h) {
            D part;
            for (std::int64_t l = 0; l < kDLanes; ++l) part[l] = prod[h * kDLanes + l];
            acc[r][v * kParts + h] += part;
          }
        }
    }
    for (std::int64_t r = 0; r < mr; ++r)
      for (std::int64_t j = 0; j < nr; ++j)
        c[r * ldc + j] = static_cast<float>(acc[r][j / kDLanes][j % kDLanes]);
  }
};

// The blocked driver both kernels share: op(A) is packed MC rows at a time
// into the calling thread's arena, then every [k][NR] panel of the packed B
// stays L1-hot while this row block's A strips stream past it. K is not
// blocked, so each C element is folded by exactly one Tile::run call.
template <class Tile>
MLPERF_GEMM_INLINE void blocked_gemm(Trans ta, const float* a, std::int64_t lda,
                                     const float* bp, std::int64_t m, std::int64_t n,
                                     std::int64_t k, float* c, std::int64_t ldc) {
  constexpr std::int64_t MR = Tile::kMR;
  static_assert(MC % MR == 0, "MC must be a whole number of MR strips");
  const std::int64_t rs = ta == Trans::N ? lda : 1;
  const std::int64_t cs = ta == Trans::N ? 1 : lda;
  ScratchArena::Frame frame(ScratchArena::tls());
  const std::int64_t mc_cap = std::min(MC, (m + MR - 1) / MR * MR);
  float* ap = frame.alloc(mc_cap * k);
  for (std::int64_t ic = 0; ic < m; ic += MC) {
    const std::int64_t mc = std::min(MC, m - ic);
    const std::int64_t strips = (mc + MR - 1) / MR;
    for (std::int64_t s = 0; s < strips; ++s) {
      const std::int64_t i0 = ic + s * MR;
      pack_a_strip<MR>(a, rs, cs, i0, std::min(MR, m - i0), k, ap + s * MR * k);
    }
    for (std::int64_t j0 = 0; j0 < n; j0 += NR) {
      const std::int64_t nr = std::min(NR, n - j0);
      const float* bpanel = bp + j0 * k;
      for (std::int64_t s = 0; s < strips; ++s) {
        const std::int64_t i0 = ic + s * MR;
        Tile::run(k, ap + s * MR * k, bpanel, c + i0 * ldc + j0, ldc, std::min(MR, m - i0), nr);
      }
    }
  }
}

template <class V, std::int64_t MR>
MLPERF_GEMM_INLINE void packed_body(Trans ta, const float* a, std::int64_t lda, const float* bp,
                                    std::int64_t m, std::int64_t n, std::int64_t k, float* c,
                                    std::int64_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;  // k == 0: C += 0, nothing to do
  blocked_gemm<FloatTile<V, MR>>(ta, a, lda, bp, m, n, k, c, ldc);
}

template <class Tile>
MLPERF_GEMM_INLINE void f64acc_packed_body(Trans ta, const float* a, std::int64_t lda,
                                           const float* bp, std::int64_t m, std::int64_t n,
                                           std::int64_t k, float* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Overwrite contract: an empty fold stores float(0.0) everywhere, just
    // as the naive loop's untouched `double acc = 0.0` would.
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) c[i * ldc + j] = 0.0f;
    return;
  }
  blocked_gemm<Tile>(ta, a, lda, bp, m, n, k, c, ldc);
}

// ---- per-ISA entry points ---------------------------------------------------
// The default build is the baseline-x86-64 kernel with the historical 4x8
// tile. The avx2 build widens the float tile to 8x8: one 256-bit register per
// tile row, eight independent accumulator chains to hide the add latency.
// The avx512 build keeps avx2's float kernel and gives the double tile eight
// rows of one 512-bit accumulator each: a row's eight float products widen
// with a single convert. The tile shape only changes which C elements share
// a call, never the per-element fold, so every build is bitwise identical.

void packed_default(Trans ta, const float* a, std::int64_t lda, const float* bp, std::int64_t m,
                    std::int64_t n, std::int64_t k, float* c, std::int64_t ldc) {
  packed_body<f32x4, kGemmMR>(ta, a, lda, bp, m, n, k, c, ldc);
}

void f64acc_packed_default(Trans ta, const float* a, std::int64_t lda, const float* bp,
                           std::int64_t m, std::int64_t n, std::int64_t k, float* c,
                           std::int64_t ldc) {
  f64acc_packed_body<DoubleTile<f32x4, f64x2, 4>>(ta, a, lda, bp, m, n, k, c, ldc);
}

#if MLPERF_GEMM_HAVE_AVX2
MLPERF_GEMM_TARGET_AVX2 void packed_avx2(Trans ta, const float* a, std::int64_t lda,
                                         const float* bp, std::int64_t m, std::int64_t n,
                                         std::int64_t k, float* c, std::int64_t ldc) {
  packed_body<f32x8, 8>(ta, a, lda, bp, m, n, k, c, ldc);
}

// Four rows of NR double lanes fill eight 256-bit registers; more would spill.
MLPERF_GEMM_TARGET_AVX2 void f64acc_packed_avx2(Trans ta, const float* a, std::int64_t lda,
                                                const float* bp, std::int64_t m, std::int64_t n,
                                                std::int64_t k, float* c, std::int64_t ldc) {
  f64acc_packed_body<DoubleTile<f32x8, f64x4, 4>>(ta, a, lda, bp, m, n, k, c, ldc);
}

MLPERF_GEMM_TARGET_AVX512 void f64acc_packed_avx512(Trans ta, const float* a, std::int64_t lda,
                                                    const float* bp, std::int64_t m,
                                                    std::int64_t n, std::int64_t k, float* c,
                                                    std::int64_t ldc) {
  f64acc_packed_body<DoubleTile<f32x8, f64x8, 8>>(ta, a, lda, bp, m, n, k, c, ldc);
}

bool cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}

bool cpu_has_avx512() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512vl") != 0;
}
#endif

// A full Trans::T panel from NR stored rows (row l at src + l*ldb): each
// NR-column step of the rows is one tile, transposed in registers, so the rows
// are read contiguously instead of gathered element by element.
void pack_transposed_panel(const float* src, std::int64_t ldb, std::int64_t k, float* dst) {
  float tile[NR][NR];
  for (std::int64_t p0 = 0; p0 < k; p0 += NR) {
    const std::int64_t nq = std::min(NR, k - p0);
    for (std::int64_t l = 0; l < NR; ++l) {
      if (nq == NR) {
        std::memcpy(tile[l], src + l * ldb + p0, sizeof tile[l]);
      } else {
        for (std::int64_t e = 0; e < nq; ++e) tile[l][e] = src[l * ldb + p0 + e];
      }
    }
    gemm_pack_b_tile_t(tile[0], nq, dst + p0 * NR);
  }
}

// The dispatched variant: the first (widest) one the host can run, resolved
// once on first use.
const detail::GemmVariant& active_variant() {
  static const detail::GemmVariant* const chosen = [] {
    for (const detail::GemmVariant& v : detail::gemm_variants())
      if (v.host_supported) return &v;
    return &detail::gemm_variants().back();
  }();
  return *chosen;
}

}  // namespace

namespace detail {

std::span<const GemmVariant> gemm_variants() {
  static const GemmVariant variants[] = {
#if MLPERF_GEMM_HAVE_AVX2
      {"avx512", 8, cpu_has_avx512(), &packed_avx2, &f64acc_packed_avx512},
      {"avx2", 8, cpu_has_avx2(), &packed_avx2, &f64acc_packed_avx2},
#endif
      {"default", kGemmMR, true, &packed_default, &f64acc_packed_default},
  };
  return variants;
}

}  // namespace detail

const char* gemm_isa() { return active_variant().isa; }

std::int64_t gemm_packed_b_size(std::int64_t k, std::int64_t n) {
  if (k <= 0 || n <= 0) return 0;
  return (n + NR - 1) / NR * NR * k;
}

void gemm_pack_b(Trans tb, const float* b, std::int64_t ldb, std::int64_t k, std::int64_t n,
                 float* bp) {
  for (std::int64_t j0 = 0; j0 < n; j0 += NR) {
    const std::int64_t nr = std::min(NR, n - j0);
    float* panel = bp + j0 * k;  // panels are k*NR floats each
    if (nr == NR) {
      if (tb == Trans::N) {
        for (std::int64_t p = 0; p < k; ++p)
          std::memcpy(panel + p * NR, b + p * ldb + j0, NR * sizeof(float));
      } else {
        pack_transposed_panel(b + j0 * ldb, ldb, k, panel);
      }
      continue;
    }
    const std::int64_t rs = tb == Trans::N ? ldb : 1;
    const std::int64_t cs = tb == Trans::N ? 1 : ldb;
    for (std::int64_t p = 0; p < k; ++p) {
      float* dst = panel + p * NR;
      const float* src = b + p * rs + j0 * cs;
      std::int64_t j = 0;
      for (; j < nr; ++j) dst[j] = src[j * cs];
      for (; j < NR; ++j) dst[j] = 0.0f;
    }
  }
}

void gemm_packed(Trans ta, const float* a, std::int64_t lda, const float* bp, std::int64_t m,
                 std::int64_t n, std::int64_t k, float* c, std::int64_t ldc) {
  active_variant().packed(ta, a, lda, bp, m, n, k, c, ldc);
}

void gemm_accumulate(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
                     const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                     std::int64_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  ScratchArena::Frame frame(ScratchArena::tls());
  float* bp = frame.alloc(gemm_packed_b_size(k, n));
  gemm_pack_b(tb, b, ldb, k, n, bp);
  gemm_packed(ta, a, lda, bp, m, n, k, c, ldc);
}

void gemm_f64acc_packed(Trans ta, const float* a, std::int64_t lda, const float* bp,
                        std::int64_t m, std::int64_t n, std::int64_t k, float* c,
                        std::int64_t ldc) {
  active_variant().f64acc_packed(ta, a, lda, bp, m, n, k, c, ldc);
}

}  // namespace mlperf::tensor
