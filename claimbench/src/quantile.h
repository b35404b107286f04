// The benchmark's one percentile convention.
//
// A Quantile is a typed probability in [0, 1]; it can only be made from a
// literal fraction, so "p50" cannot be written as 50 here and as 0.5 there
// (util::Percentile takes p in [0, 100], and a bench once passed it 0.5/0.99).
// The value is util::Percentile's numpy-"linear" interpolation, so the library
// and the benchmark agree on every number they both print.
//
// A percentile is only reported when at least kMinTailSamples samples lie beyond
// it; below that it is refused (nullopt), never guessed. Latencies are always
// computed from the benchmark's own per-claim clock readings, never from the
// service's power-of-two histogram.

#ifndef CLAIMBENCH_SRC_QUANTILE_H_
#define CLAIMBENCH_SRC_QUANTILE_H_

#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>

#include "src/util/stats.h"

namespace tao::claimbench {

inline constexpr size_t kMinTailSamples = 10;

class Quantile {
 public:
  explicit constexpr Quantile(double q) : q_(q) {
    if (!(q >= 0.0 && q <= 1.0)) {
      throw std::invalid_argument("quantile outside [0, 1]");
    }
  }
  constexpr double value() const { return q_; }

 private:
  double q_;
};

inline constexpr Quantile kP50{0.5};
inline constexpr Quantile kP90{0.9};
inline constexpr Quantile kP99{0.99};

// Samples strictly beyond quantile q in a sample of n: floor(n * (1 - q)).
inline size_t SamplesBeyond(size_t n, Quantile q) {
  return static_cast<size_t>(std::floor(static_cast<double>(n) * (1.0 - q.value()) + 1e-9));
}

// The q-quantile of `samples`, or nullopt when fewer than kMinTailSamples
// samples lie beyond it.
inline std::optional<double> QuantileOf(std::span<const double> samples, Quantile q) {
  if (samples.empty() || SamplesBeyond(samples.size(), q) < kMinTailSamples) {
    return std::nullopt;
  }
  return Percentile(samples, 100.0 * q.value());
}

}  // namespace tao::claimbench

#endif  // CLAIMBENCH_SRC_QUANTILE_H_
