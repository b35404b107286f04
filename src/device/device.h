// Simulated heterogeneous accelerators.
//
// The TAO paper runs on four NVIDIA GPUs whose vendor kernels legitimately reorder
// floating-point reductions and fuse multiply-adds; that reordering is the *only*
// property of the hardware the protocol interacts with (Sec. 1: "cross-platform
// nondeterminism is intrinsic"). We reproduce it faithfully in software: a
// `DeviceProfile` fixes an accumulation order (sequential, pairwise tree, blocked,
// strided/interleaved — all orderings that real warp/tile schedules induce),
// an FMA contraction policy, and an intrinsic evaluation flavour. Running the same
// FP32 operator under two profiles yields bitwise-different results whose deviation is
// exactly IEEE-754 non-associativity, the same mechanism as real GPUs, with the same
// ~u·sqrt(k) relative magnitudes.
//
// Every reduction in the operator library (src/ops) routes through this interface, so
// a model executed on DeviceRegistry::Fleet() exhibits per-operator cross-device error
// distributions that the calibration pipeline (src/calib) measures, exactly as the
// paper's offline calibration does across its GPU fleet.

#ifndef TAO_SRC_DEVICE_DEVICE_H_
#define TAO_SRC_DEVICE_DEVICE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tao {

// How a device's kernels order the partial sums of a reduction.
enum class AccumulationOrder {
  kSequential,    // strict left-to-right; the canonical reference order
  kPairwiseTree,  // recursive pairwise halving (tree reduction)
  kBlocked,       // per-block sequential partials, then sequential across partials
  kStrided,       // S interleaved accumulators (warp-lane style), then combine
};

// How a device evaluates transcendental intrinsics (CUDA math functions are allowed
// vendor-specific ULP error; we model two table entries: a float-native path and a
// compute-in-double-then-round path, which differ in the last ulp). Exp/Tanh/Erf are
// exempt: they route through the pinned vmath polynomials (src/device/vmath.h) on
// every profile so the vectorized hot loops stay bitwise reproducible; the flavour
// still differentiates Log/Sin/Cos/Rsqrt/Pow.
enum class IntrinsicFlavor {
  kFloatNative,
  kDoubleRounded,
};

// fl(a*b + 0) with one rounding — what an FMA profile's tile feeds its reduction —
// without a libm fmaf call: the double product of two floats is exact, `+ 0.0` turns
// an exact -0 into +0 as fmaf(a, b, 0) does, and the cast rounds once (so a product
// that underflows keeps its sign, as fmaf's does). When both factors are NaN, which
// payload survives is not pinned, here or in fmaf.
inline float FusedProduct(float a, float b) {
  return static_cast<float>(static_cast<double>(a) * static_cast<double>(b) + 0.0);
}

// Products a tree/blocked/strided dot stages on the stack; longer inner products
// (none in the model zoo) stage through one heap buffer per dot.
inline constexpr int64_t kStagedDotProducts = 256;

struct DeviceProfile {
  std::string name;
  AccumulationOrder order = AccumulationOrder::kSequential;
  // Block size for kBlocked, accumulator count for kStrided; ignored otherwise.
  int64_t block = 128;
  // Whether multiply-accumulate steps contract to fused multiply-add (one rounding).
  bool fma = false;
  IntrinsicFlavor intrinsics = IntrinsicFlavor::kFloatNative;

  // True when this profile's reduction order is exactly the fixed 8-lane tree an
  // 8-lane FP32 vector unit executes natively (kStrided with block == 8). Only such
  // profiles may vectorize a single reduction (src/device/simd.h), bitwise equal by
  // construction; for all others one register cannot reproduce the association
  // order bit for bit, so their reductions stay scalar and only their GEMM rows
  // vectorize, across outputs (DotRow).
  bool vector_eligible() const {
    return order == AccumulationOrder::kStrided && block == 8;
  }

  // --- Reductions -----------------------------------------------------------------
  // Sum of `xs` in this device's order. This is the sole source of cross-device
  // nondeterminism for reductions.
  float Accumulate(std::span<const float> xs) const;
  // Inner product <a, b> in this device's order and FMA policy.
  float Dot(std::span<const float> a, std::span<const float> b) const;
  // Strided inner product for matmul inner loops: a[i*stride_a], b[i*stride_b].
  float DotStrided(const float* a, int64_t stride_a, const float* b, int64_t stride_b,
                   int64_t n) const;
  // One GEMM output row: out[j] = DotStrided(a, 1, b + j, ldb, k) for j in [0, n),
  // bitwise. Under the AVX2 backend, kPairwiseTree and kBlocked profiles compute
  // eight adjacent outputs per step (simd::DotColumns8, each lane in this profile's
  // scalar order); the n % 8 tail and every other profile take DotStrided.
  void DotRow(const float* a, const float* b, int64_t ldb, int64_t k, int64_t n,
              float* out) const;

  // --- Intrinsics -----------------------------------------------------------------
  float Exp(float x) const;
  float Log(float x) const;
  float Sin(float x) const;
  float Cos(float x) const;
  float Tanh(float x) const;
  float Sqrt(float x) const;
  float Rsqrt(float x) const;
  float Pow(float x, float y) const;
  float Erf(float x) const;

  // Maximum ULP error of each intrinsic under this profile, mirroring the CUDA math
  // table the paper cites for theoretical-bound construction.
  double ExpUlp() const;
  double LogUlp() const;
  double TanhUlp() const;
  double SinCosUlp() const;
  double SqrtUlp() const;
  double RsqrtUlp() const;
  double PowUlp() const;
  double ErfUlp() const;
};

// Canonical single-token signature of a fleet's *arithmetic*: a leading vmath
// version token (the pinned transcendental polynomials every profile shares — see
// src/device/vmath.h) followed by one entry per device (name, accumulation order,
// block, FMA policy, intrinsic flavour). Thresholds are calibrated against a
// specific fleet, so serialized threshold files embed this signature and the loader
// can detect that the arithmetic changed underneath a published calibration (which
// requires recalibrating) — whether by fleet composition or by a vmath generation
// bump. The block is encoded only for the orders whose arithmetic reads it
// (kBlocked, kStrided), so a block value the order ignores does not read as a fleet
// change.
std::string FleetSignature(std::span<const DeviceProfile> fleet);

// The calibration fleet (stand-ins for RTX 4090, RTX 6000, A100, H100) plus the
// canonical reference profile used for deterministic re-execution.
class DeviceRegistry {
 public:
  // Canonical order: strict sequential, no FMA, float-native intrinsics. Challenger
  // re-execution and leaf adjudication use this profile.
  static const DeviceProfile& Reference();
  // The four-device heterogeneous fleet used for calibration and proposer execution.
  static const std::vector<DeviceProfile>& Fleet();
  // Lookup by name (includes "reference"); aborts on unknown name.
  static const DeviceProfile& ByName(const std::string& name);
};

}  // namespace tao

#endif  // TAO_SRC_DEVICE_DEVICE_H_
