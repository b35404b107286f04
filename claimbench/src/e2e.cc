// End-to-end run: tracing off, closed loop over the workload's serving path.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "claimbench/src/loop.h"
#include "claimbench/src/quantile.h"
#include "claimbench/src/runs.h"
#include "src/util/stats.h"

namespace tao::claimbench {
namespace {

constexpr auto kRssSamplePeriod = std::chrono::milliseconds(1);
// Warm-up lasts for the workload's warm-up claims and at least this long.
constexpr auto kWarmupMin = std::chrono::seconds(1);
constexpr auto kWarmupDeadline = std::chrono::seconds(60);

double WindowQuantile(const std::vector<double>& samples, Quantile q, const char* what) {
  if (const std::optional<double> value = QuantileOf(samples, q)) {
    return *value;
  }
  throw std::runtime_error(std::string("too few samples for ") + what);
}

struct GateResult {
  int64_t attempted = 0;
  int64_t rejected = 0;
  int64_t lost = 0;
  int64_t mismatched = 0;
  std::vector<size_t> order;  // slots in accepted order

  int64_t failed() const { return rejected + lost + mismatched; }
};

// Replays the accepted order through the sequential reference and compares every
// delivered verdict bitwise.
GateResult Gate(const SetUp& setup, const std::vector<BatchClaim>& pool,
                const LoopControl& control, bool force_mismatch) {
  GateResult gate;
  gate.attempted = static_cast<int64_t>(control.submitted.load());
  const bool dense = AcceptedOrder(control, gate.order);
  gate.rejected = gate.attempted - static_cast<int64_t>(gate.order.size());
  std::vector<Outcome> reference =
      ReferenceReplay(setup.committed, setup.stack.id, pool, gate.order);
  if (force_mismatch && !reference.empty()) {
    reference[0].gas += 1;
  }
  for (size_t k = 0; k < gate.order.size(); ++k) {
    const Slot& slot = control.slots[gate.order[k]];
    if (slot.verdict_ns == 0) {
      ++gate.lost;
    } else if (!dense || !(slot.outcome == reference[k])) {
      if (gate.mismatched++ < 5) {
        std::fprintf(stderr,
                     "MISMATCH at accepted position %zu (stream position %zu): claim id %llu "
                     "vs %llu, gas %lld vs %lld\n",
                     k, gate.order[k], static_cast<unsigned long long>(slot.outcome.claim_id),
                     static_cast<unsigned long long>(reference[k].claim_id),
                     static_cast<long long>(slot.outcome.gas),
                     static_cast<long long>(reference[k].gas));
      }
    }
  }
  return gate;
}

}  // namespace

Report RunEndToEnd(const WorkloadSpec& spec, const RunOptions& options) {
  // Claim generation: outside set-up and outside the timed window.
  const std::vector<BatchClaim> pool = MakeClaimPool(spec, BuildBertMini(), options.seed);

  WorkDir work(options.work_dir / (std::string(spec.name) + "-" + std::to_string(::getpid())));
  SetUp setup = SetUpRepeatedly(spec, work);
  ServingGateway& gateway = *setup.stack.gateway;
  const ModelId model_id = setup.stack.id;

  LoopControl control(spec.warmup_claims + 10000 * static_cast<size_t>(options.seconds + 2));
  // serve_rss_mb: the peak resident set of the timed window over its level right
  // before the first submission (claims and models sit in that baseline).
  const double rss_baseline = ResidentMb();
  std::atomic<bool> load_done{false};
  std::thread load([&] {
    RunInProcessLoop(
        pool, [&](BatchClaim claim) { return gateway.Submit(model_id, std::move(claim)).ticket; },
        kInFlight, control, LoopSpans{});
    load_done.store(true);
  });

  const auto warmup_begin = std::chrono::steady_clock::now();
  while ((control.delivered.load() < static_cast<int64_t>(spec.warmup_claims) ||
          std::chrono::steady_clock::now() < warmup_begin + kWarmupMin) &&
         !load_done.load() && std::chrono::steady_clock::now() < warmup_begin + kWarmupDeadline) {
    std::this_thread::sleep_for(kRssSamplePeriod);
  }

  // The timed window.
  const int64_t window_begin_ns = NowNs();
  const int64_t delivered_begin = control.delivered.load();
  const double cpu_begin = CpuSeconds();
  const int64_t window_end = window_begin_ns + static_cast<int64_t>(options.seconds) * 1'000'000'000;
  double rss_peak = ResidentMb();
  size_t rss_samples = 1;
  for (int64_t now = NowNs(); now < window_end; now = NowNs()) {
    std::this_thread::sleep_for(std::min<std::chrono::nanoseconds>(
        kRssSamplePeriod, std::chrono::nanoseconds(window_end - now)));
    rss_peak = std::max(rss_peak, ResidentMb());
    ++rss_samples;
  }
  const int64_t window_end_ns = NowNs();
  const int64_t delivered_end = control.delivered.load();
  const double cpu_end = CpuSeconds();
  control.stop.store(true);
  load.join();
  gateway.DrainAll();

  const bool capacity_exhausted = control.submitted.load() >= control.slots.size();
  const int64_t gate_begin = NowNs();
  const GateResult gate = Gate(setup, pool, control, options.force_mismatch);
  const double gate_s = static_cast<double>(NowNs() - gate_begin) / 1e9;

  const size_t window_verdicts = static_cast<size_t>(delivered_end - delivered_begin);
  const double window_s = static_cast<double>(window_end_ns - window_begin_ns) / 1e9;
  std::vector<double> latencies_ms;
  for (const Slot& slot : control.slots) {
    if (slot.verdict_ns >= window_begin_ns && slot.verdict_ns < window_end_ns) {
      latencies_ms.push_back(static_cast<double>(slot.verdict_ns - slot.submit_ns) / 1e6);
    }
  }
  double gas_sum = 0;
  // One pass through the pool: every perturbation site counts equally.
  const size_t gas_claims = std::min(pool.size(), gate.order.size());
  for (size_t k = 0; k < gas_claims; ++k) {
    gas_sum += static_cast<double>(control.slots[gate.order[k]].outcome.gas);
  }

  std::printf("claimbench end-to-end: workload=%s seed=%llu window=%ds, in-process gateway, "
              "one generator thread\n",
              spec.name, static_cast<unsigned long long>(options.seed), options.seconds);
  std::printf("  closed loop: %zu claims in flight; %zu claims submitted, %zu in the window\n",
              kInFlight, control.submitted.load(), window_verdicts);
  std::printf("  set-up: %zu rounds, %.3f to %.3f s\n", setup.total_s.size(),
              *std::min_element(setup.total_s.begin(), setup.total_s.end()),
              *std::max_element(setup.total_s.begin(), setup.total_s.end()));
  if (spec.durable) {
    std::printf("  durable coordinator changelog on %s\n", work.FsType().c_str());
  }
  std::printf("  gate: %zu accepted verdicts replayed through the sequential reference: "
              "%lld rejected, %lld lost, %lld mismatched (%.1f s)\n",
              gate.order.size(), static_cast<long long>(gate.rejected),
              static_cast<long long>(gate.lost), static_cast<long long>(gate.mismatched), gate_s);
  if (capacity_exhausted) {
    throw std::runtime_error("submission slots exhausted before the window closed");
  }

  Report report;
  report.attempted = gate.attempted;
  report.failed = gate.failed();
  report.correct = gate.failed() == 0;
  const double failed_frac =
      static_cast<double>(report.failed) / static_cast<double>(std::max<int64_t>(1, gate.attempted));
  std::printf("  %-34s %16.6f %-8s n=%lld\n", "failed_frac", failed_frac, "1",
              static_cast<long long>(gate.attempted));
  if (!report.correct) {
    return report;  // no figures for a run whose verdicts are wrong
  }
  report.metrics = {
      {"claims_per_s", static_cast<double>(window_verdicts) / window_s, "1/s", window_verdicts},
      {"verdict_p50_ms", WindowQuantile(latencies_ms, kP50, "verdict_p50_ms"), "ms",
       latencies_ms.size()},
      {"verdict_p90_ms", WindowQuantile(latencies_ms, kP90, "verdict_p90_ms"), "ms",
       latencies_ms.size()},
      {"cpu_ms_per_claim",
       window_verdicts > 0 ? (cpu_end - cpu_begin) * 1e3 / static_cast<double>(window_verdicts)
                           : 0.0,
       "ms", window_verdicts},
      {"serve_rss_mb", rss_peak - rss_baseline, "MB", rss_samples},
      {"gas_per_claim", gas_claims > 0 ? gas_sum / static_cast<double>(gas_claims) : 0.0, "gas",
       gas_claims},
      {"setup_s", Median(setup.total_s), "s", setup.total_s.size()},
  };
  return report;
}

}  // namespace tao::claimbench
