#include "src/device/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/device/device.h"
#include "src/util/check.h"

// The AVX2 paths are compiled behind a target attribute so the translation unit builds
// on any host; they are only *called* after __builtin_cpu_supports("avx2") says the
// instructions exist. Non-x86 builds (and non-GNU compilers) compile the scalar
// implementations only and ActiveSimdBackend() reports kScalar.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TAO_SIMD_X86 1
#include <immintrin.h>
#else
#define TAO_SIMD_X86 0
#endif

#if TAO_SIMD_X86
#define TAO_TARGET_AVX2 __attribute__((target("avx2")))
#endif

namespace tao {
namespace {

// -1 = no override; otherwise the int value of the forced SimdBackend.
std::atomic<int> g_forced_backend{-1};

bool CpuHasAvx2() {
#if TAO_SIMD_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool SimdDisabledByEnv() {
  const char* env = std::getenv("TAO_DISABLE_SIMD");
  if (env == nullptr || env[0] == '\0') {
    return false;
  }
  return !(env[0] == '0' && env[1] == '\0');
}

SimdBackend DetectBackend() {
  if (SimdDisabledByEnv()) {
    return SimdBackend::kScalar;
  }
  return CpuHasAvx2() ? SimdBackend::kAvx2 : SimdBackend::kScalar;
}

}  // namespace

bool SimdBackendSupported(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return true;
    case SimdBackend::kAvx2:
      return CpuHasAvx2();
  }
  return false;
}

SimdBackend ActiveSimdBackend() {
  const int forced = g_forced_backend.load(std::memory_order_relaxed);
  if (forced >= 0) {
    return static_cast<SimdBackend>(forced);
  }
  static const SimdBackend detected = DetectBackend();
  return detected;
}

const char* SimdBackendName(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return "scalar";
    case SimdBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

void ForceSimdBackend(std::optional<SimdBackend> backend) {
  if (!backend.has_value()) {
    g_forced_backend.store(-1, std::memory_order_relaxed);
    return;
  }
  TAO_CHECK(SimdBackendSupported(*backend))
      << "cannot force unsupported backend " << SimdBackendName(*backend);
  g_forced_backend.store(static_cast<int>(*backend), std::memory_order_relaxed);
}

ScopedSimdBackend::ScopedSimdBackend(SimdBackend backend) {
  const int forced = g_forced_backend.load(std::memory_order_relaxed);
  if (forced >= 0) {
    previous_ = static_cast<SimdBackend>(forced);
  }
  ForceSimdBackend(backend);
}

ScopedSimdBackend::~ScopedSimdBackend() { ForceSimdBackend(previous_); }

void LogSimdBackendOnce() {
  static const bool logged = [] {
    const SimdBackend b = ActiveSimdBackend();
    std::fprintf(stderr, "tao: kernel backend: %s%s\n", SimdBackendName(b),
                 SimdDisabledByEnv() ? " (TAO_DISABLE_SIMD)" : "");
    return true;
  }();
  (void)logged;
}

namespace simd {
namespace {

// ---- Fixed-tree reduction implementations ------------------------------------------
//
// The scalar and AVX2 bodies below are intentionally the same algorithm written twice:
// eight lane accumulators (one ymm register), a full-block loop, scalar tail additions
// into the extracted lanes, then a left-to-right lane combine. Tails are handled with
// scalar adds after extracting the lanes rather than with a masked vector add: adding
// a masked +0.0 to a lane holding -0.0 would flip it to +0.0 and break bitwise
// equality with the scalar profile.

float SumStrided8Scalar(const float* x, int64_t n) {
  float lanes[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (int64_t i = 0; i < n; ++i) {
    lanes[i & 7] += x[i];
  }
  float total = 0.0f;
  for (int j = 0; j < 8; ++j) {
    total += lanes[j];
  }
  return total;
}

float DotStrided8Scalar(const float* a, int64_t stride_a, const float* b,
                        int64_t stride_b, int64_t n) {
  float lanes[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (int64_t i = 0; i < n; ++i) {
    lanes[i & 7] += a[i * stride_a] * b[i * stride_b];
  }
  float total = 0.0f;
  for (int j = 0; j < 8; ++j) {
    total += lanes[j];
  }
  return total;
}

#if TAO_SIMD_X86

TAO_TARGET_AVX2 float CombineLanesAvx2(__m256 acc, const float* x, int64_t vec_n,
                                       int64_t n) {
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (int64_t i = vec_n; i < n; ++i) {
    lanes[i & 7] += x[i];
  }
  float total = 0.0f;
  for (int j = 0; j < 8; ++j) {
    total += lanes[j];
  }
  return total;
}

TAO_TARGET_AVX2 float SumStrided8Avx2(const float* x, int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(x + i));
  }
  return CombineLanesAvx2(acc, x, vec_n, n);
}

TAO_TARGET_AVX2 float DotContiguousAvx2(const float* a, const float* b, int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    // vmulps + vaddps, never an FMA into the accumulator: each product takes its own
    // rounding before entering the lane sum, exactly as the staged scalar products do.
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (int64_t i = vec_n; i < n; ++i) {
    lanes[i & 7] += a[i] * b[i];
  }
  float total = 0.0f;
  for (int j = 0; j < 8; ++j) {
    total += lanes[j];
  }
  return total;
}

TAO_TARGET_AVX2 float DotGatherAvx2(const float* a, int64_t stride_a, const float* b,
                                    int64_t stride_b, int64_t n) {
  const int sa = static_cast<int>(stride_a);
  const int sb = static_cast<int>(stride_b);
  const __m256i idx_a = _mm256_setr_epi32(0, sa, 2 * sa, 3 * sa, 4 * sa, 5 * sa, 6 * sa, 7 * sa);
  const __m256i idx_b = _mm256_setr_epi32(0, sb, 2 * sb, 3 * sb, 4 * sb, 5 * sb, 6 * sb, 7 * sb);
  __m256 acc = _mm256_setzero_ps();
  const int64_t vec_n = n & ~int64_t{7};
  const float* pa = a;
  const float* pb = b;
  for (int64_t i = 0; i < vec_n; i += 8) {
    const __m256 va = _mm256_i32gather_ps(pa, idx_a, 4);
    const __m256 vb = _mm256_i32gather_ps(pb, idx_b, 4);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
    pa += 8 * stride_a;
    pb += 8 * stride_b;
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (int64_t i = vec_n; i < n; ++i) {
    lanes[i & 7] += a[i * stride_a] * b[i * stride_b];
  }
  float total = 0.0f;
  for (int j = 0; j < 8; ++j) {
    total += lanes[j];
  }
  return total;
}

// Gather indices are 32-bit element offsets; keep a wide safety margin.
constexpr int64_t kMaxGatherStride = int64_t{1} << 27;

#endif  // TAO_SIMD_X86

}  // namespace

float SumStrided8(const float* x, int64_t n) {
  if (n <= 8) {
    // The kStrided profile sums short inputs strictly sequentially.
    float acc = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      acc += x[i];
    }
    return acc;
  }
#if TAO_SIMD_X86
  if (ActiveSimdBackend() == SimdBackend::kAvx2) {
    return SumStrided8Avx2(x, n);
  }
#endif
  return SumStrided8Scalar(x, n);
}

float DotStrided8(const float* a, int64_t stride_a, const float* b, int64_t stride_b,
                  int64_t n) {
  if (n <= 8) {
    float acc = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      acc += a[i * stride_a] * b[i * stride_b];
    }
    return acc;
  }
#if TAO_SIMD_X86
  if (ActiveSimdBackend() == SimdBackend::kAvx2) {
    if (stride_a == 1 && stride_b == 1) {
      return DotContiguousAvx2(a, b, n);
    }
    if (stride_a > 0 && stride_b > 0 && stride_a <= kMaxGatherStride &&
        stride_b <= kMaxGatherStride) {
      return DotGatherAvx2(a, stride_a, b, stride_b, n);
    }
  }
#endif
  return DotStrided8Scalar(a, stride_a, b, stride_b, n);
}

// ---- Lanes across outputs ----------------------------------------------------------
//
// Lane l of every __m256 below carries output l's partial sums; the loops and the
// recursion are the scalar reductions of src/device/device.cc with float replaced by
// __m256, so each lane performs that output's additions in the same order.

#if TAO_SIMD_X86

namespace {

// Products a[i] * b[i*ldb + l] of step i for the eight lanes. With kFma, an exact
// zero product (a zero factor) becomes +0 as fmaf(a, b, 0) makes it; every other
// product, including one that underflows to -0, is the rounded product vmulps gives.
template <bool kFma>
TAO_TARGET_AVX2 inline __m256 LaneProducts(const float* a, const float* b, int64_t ldb,
                                           int64_t i) {
  const __m256 va = _mm256_broadcast_ss(a + i);
  const __m256 vb = _mm256_loadu_ps(b + i * ldb);
  const __m256 p = _mm256_mul_ps(va, vb);
  if constexpr (kFma) {
    const __m256 zero = _mm256_setzero_ps();
    const __m256 exact_zero = _mm256_and_ps(
        _mm256_cmp_ps(p, zero, _CMP_EQ_OQ),
        _mm256_or_ps(_mm256_cmp_ps(va, zero, _CMP_EQ_OQ), _mm256_cmp_ps(vb, zero, _CMP_EQ_OQ)));
    return _mm256_andnot_ps(exact_zero, p);
  }
  return p;
}

// SumPairwise over the products of steps [0, n): the same split-at-n/2 tree with the
// same written-out leaves, products formed at the leaves instead of staged.
template <bool kFma>
TAO_TARGET_AVX2 __m256 TreeLanes(const float* a, const float* b, int64_t ldb, int64_t n) {
  // (No lambda for the leaf product: a lambda does not inherit the AVX2 target.)
  switch (n) {
    case 0:
      return _mm256_setzero_ps();
    case 1:
      return LaneProducts<kFma>(a, b, ldb, 0);
    case 2:
      return _mm256_add_ps(LaneProducts<kFma>(a, b, ldb, 0), LaneProducts<kFma>(a, b, ldb, 1));
    case 3:
      return _mm256_add_ps(
          LaneProducts<kFma>(a, b, ldb, 0),
          _mm256_add_ps(LaneProducts<kFma>(a, b, ldb, 1), LaneProducts<kFma>(a, b, ldb, 2)));
    case 4:
      return _mm256_add_ps(
          _mm256_add_ps(LaneProducts<kFma>(a, b, ldb, 0), LaneProducts<kFma>(a, b, ldb, 1)),
          _mm256_add_ps(LaneProducts<kFma>(a, b, ldb, 2), LaneProducts<kFma>(a, b, ldb, 3)));
    default: {
      const int64_t half = n / 2;
      return _mm256_add_ps(TreeLanes<kFma>(a, b, ldb, half),
                           TreeLanes<kFma>(a + half, b + half * ldb, ldb, n - half));
    }
  }
}

// SumBlocked: per-block partials from +0, each added to an accumulator from +0.
template <bool kFma>
TAO_TARGET_AVX2 __m256 BlockedLanes(const float* a, const float* b, int64_t ldb,
                                    int64_t k, int64_t block) {
  __m256 acc = _mm256_setzero_ps();
  for (int64_t i = 0; i < k; i += block) {
    const int64_t end = std::min(k, i + block);
    __m256 partial = _mm256_setzero_ps();
    for (int64_t j = i; j < end; ++j) {
      partial = _mm256_add_ps(partial, LaneProducts<kFma>(a, b, ldb, j));
    }
    acc = _mm256_add_ps(acc, partial);
  }
  return acc;
}

TAO_TARGET_AVX2 void DotColumns8Avx2(const DeviceProfile& device, const float* a,
                                     const float* b, int64_t ldb, int64_t k, float* out) {
  __m256 sums;
  if (device.order == AccumulationOrder::kPairwiseTree) {
    sums = device.fma ? TreeLanes<true>(a, b, ldb, k) : TreeLanes<false>(a, b, ldb, k);
  } else {
    sums = device.fma ? BlockedLanes<true>(a, b, ldb, k, device.block)
                      : BlockedLanes<false>(a, b, ldb, k, device.block);
  }
  _mm256_storeu_ps(out, sums);
}

}  // namespace

#endif  // TAO_SIMD_X86

bool DotColumns8Supported(const DeviceProfile& device) {
  return TAO_SIMD_X86 && ActiveSimdBackend() == SimdBackend::kAvx2 &&
         (device.order == AccumulationOrder::kPairwiseTree ||
          (device.order == AccumulationOrder::kBlocked && device.block > 0));
}

void DotColumns8(const DeviceProfile& device, const float* a, const float* b,
                 int64_t ldb, int64_t k, float* out) {
  TAO_CHECK(DotColumns8Supported(device))
      << "no lane kernel for profile " << device.name << " on the "
      << SimdBackendName(ActiveSimdBackend()) << " backend";
#if TAO_SIMD_X86
  DotColumns8Avx2(device, a, b, ldb, k, out);
#endif
}

// ---- Exact elementwise helpers -----------------------------------------------------
//
// Each helper performs exactly the listed IEEE operations per element, so the scalar
// and AVX2 bodies agree bitwise and the dispatch choice is unobservable in outputs.

#if TAO_SIMD_X86

namespace {

TAO_TARGET_AVX2 void AddVecAvx2(const float* a, const float* b, float* out, int64_t n) {
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

TAO_TARGET_AVX2 void SubVecAvx2(const float* a, const float* b, float* out, int64_t n) {
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = a[i] - b[i];
  }
}

TAO_TARGET_AVX2 void MulVecAvx2(const float* a, const float* b, float* out, int64_t n) {
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

TAO_TARGET_AVX2 void DivVecAvx2(const float* a, const float* b, float* out, int64_t n) {
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_div_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = a[i] / b[i];
  }
}

TAO_TARGET_AVX2 void ReluAvx2(const float* x, float* out, int64_t n) {
  // max_ps(x, 0) returns the second operand (0) for NaN and for -0 vs +0 ties, which
  // is exactly the scalar `x > 0 ? x : 0` result.
  const __m256 zero = _mm256_setzero_ps();
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
}

TAO_TARGET_AVX2 void NegAvx2(const float* x, float* out, int64_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_xor_ps(_mm256_loadu_ps(x + i), sign));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = -x[i];
  }
}

TAO_TARGET_AVX2 void SubScalarAvx2(const float* x, float s, float* out, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = x[i] - s;
  }
}

TAO_TARGET_AVX2 void DivScalarAvx2(const float* x, float s, float* out, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_div_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = x[i] / s;
  }
}

TAO_TARGET_AVX2 void SquareAvx2(const float* x, float* out, int64_t n) {
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(v, v));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = x[i] * x[i];
  }
}

TAO_TARGET_AVX2 void CenterSquareAvx2(const float* x, float mean, float* out, int64_t n) {
  const __m256 vm = _mm256_set1_ps(mean);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    const __m256 t = _mm256_sub_ps(_mm256_loadu_ps(x + i), vm);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(t, t));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    const float t = x[i] - mean;
    out[i] = t * t;
  }
}

TAO_TARGET_AVX2 void NormAffineAvx2(const float* x, float mean, float inv,
                                    const float* w, const float* b, float* out,
                                    int64_t n) {
  const __m256 vm = _mm256_set1_ps(mean);
  const __m256 vi = _mm256_set1_ps(inv);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    const __m256 norm = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vm), vi);
    const __m256 scaled = _mm256_mul_ps(norm, _mm256_loadu_ps(w + i));
    _mm256_storeu_ps(out + i, _mm256_add_ps(scaled, _mm256_loadu_ps(b + i)));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = ((x[i] - mean) * inv) * w[i] + b[i];
  }
}

TAO_TARGET_AVX2 void NormAffineScalarAvx2(const float* x, float mean, float inv, float w,
                                          float b, float* out, int64_t n) {
  const __m256 vm = _mm256_set1_ps(mean);
  const __m256 vi = _mm256_set1_ps(inv);
  const __m256 vw = _mm256_set1_ps(w);
  const __m256 vb = _mm256_set1_ps(b);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    const __m256 norm = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vm), vi);
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_mul_ps(norm, vw), vb));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = ((x[i] - mean) * inv) * w + b;
  }
}

TAO_TARGET_AVX2 void AffineScalarAvx2(const float* x, float sub, float scale, float bias,
                                      float* out, int64_t n) {
  const __m256 vsub = _mm256_set1_ps(sub);
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vbias = _mm256_set1_ps(bias);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    const __m256 t = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vsub), vscale);
    _mm256_storeu_ps(out + i, _mm256_add_ps(t, vbias));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = (x[i] - sub) * scale + bias;
  }
}

TAO_TARGET_AVX2 void ScaleWeightAvx2(const float* x, float inv, const float* w,
                                     float* out, int64_t n) {
  const __m256 vi = _mm256_set1_ps(inv);
  const int64_t vec_n = n & ~int64_t{7};
  for (int64_t i = 0; i < vec_n; i += 8) {
    const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(x + i), vi);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(t, _mm256_loadu_ps(w + i)));
  }
  for (int64_t i = vec_n; i < n; ++i) {
    out[i] = (x[i] * inv) * w[i];
  }
}

TAO_TARGET_AVX2 float RowMaxAvx2(const float* x, int64_t n) {
  const int64_t vec_n = n & ~int64_t{7};
  __m256 acc = _mm256_set1_ps(-INFINITY);
  for (int64_t i = 0; i < vec_n; i += 8) {
    // Operand order matters: max_ps returns the second operand when the first is NaN,
    // so putting x first skips NaNs exactly like the scalar std::max fold.
    acc = _mm256_max_ps(_mm256_loadu_ps(x + i), acc);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  float m = -INFINITY;
  for (int j = 0; j < 8; ++j) {
    m = std::max(m, lanes[j]);
  }
  for (int64_t i = vec_n; i < n; ++i) {
    m = std::max(m, x[i]);
  }
  return m;
}

}  // namespace

#define TAO_SIMD_DISPATCH(avx2_call, scalar_body)            \
  do {                                                       \
    if (ActiveSimdBackend() == SimdBackend::kAvx2) {         \
      avx2_call;                                             \
      return;                                                \
    }                                                        \
    scalar_body;                                             \
  } while (0)

#else  // !TAO_SIMD_X86

#define TAO_SIMD_DISPATCH(avx2_call, scalar_body) \
  do {                                            \
    scalar_body;                                  \
  } while (0)

#endif  // TAO_SIMD_X86

void AddVec(const float* a, const float* b, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(AddVecAvx2(a, b, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = a[i] + b[i];
    }
  });
}

void SubVec(const float* a, const float* b, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(SubVecAvx2(a, b, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = a[i] - b[i];
    }
  });
}

void MulVec(const float* a, const float* b, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(MulVecAvx2(a, b, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = a[i] * b[i];
    }
  });
}

void DivVec(const float* a, const float* b, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(DivVecAvx2(a, b, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = a[i] / b[i];
    }
  });
}

void Relu(const float* x, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(ReluAvx2(x, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = x[i] > 0.0f ? x[i] : 0.0f;
    }
  });
}

void Neg(const float* x, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(NegAvx2(x, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = -x[i];
    }
  });
}

void SubScalar(const float* x, float s, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(SubScalarAvx2(x, s, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = x[i] - s;
    }
  });
}

void DivScalar(const float* x, float s, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(DivScalarAvx2(x, s, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = x[i] / s;
    }
  });
}

void Square(const float* x, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(SquareAvx2(x, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = x[i] * x[i];
    }
  });
}

void CenterSquare(const float* x, float mean, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(CenterSquareAvx2(x, mean, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      const float t = x[i] - mean;
      out[i] = t * t;
    }
  });
}

void NormAffine(const float* x, float mean, float inv, const float* w, const float* b,
                float* out, int64_t n) {
  TAO_SIMD_DISPATCH(NormAffineAvx2(x, mean, inv, w, b, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = ((x[i] - mean) * inv) * w[i] + b[i];
    }
  });
}

void NormAffineScalar(const float* x, float mean, float inv, float w, float b,
                      float* out, int64_t n) {
  TAO_SIMD_DISPATCH(NormAffineScalarAvx2(x, mean, inv, w, b, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = ((x[i] - mean) * inv) * w + b;
    }
  });
}

void AffineScalar(const float* x, float sub, float scale, float bias, float* out,
                  int64_t n) {
  TAO_SIMD_DISPATCH(AffineScalarAvx2(x, sub, scale, bias, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = (x[i] - sub) * scale + bias;
    }
  });
}

void ScaleWeight(const float* x, float inv, const float* w, float* out, int64_t n) {
  TAO_SIMD_DISPATCH(ScaleWeightAvx2(x, inv, w, out, n), {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = (x[i] * inv) * w[i];
    }
  });
}

float RowMax(const float* x, int64_t n) {
#if TAO_SIMD_X86
  if (ActiveSimdBackend() == SimdBackend::kAvx2) {
    return RowMaxAvx2(x, n);
  }
#endif
  float m = -INFINITY;
  for (int64_t i = 0; i < n; ++i) {
    m = std::max(m, x[i]);
  }
  return m;
}

#undef TAO_SIMD_DISPATCH

}  // namespace simd
}  // namespace tao
