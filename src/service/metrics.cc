#include "src/service/metrics.h"

#include <algorithm>
#include <bit>

#include "src/device/simd.h"
#include "src/util/check.h"

namespace tao {
namespace {

size_t BatchSizeBucket(int64_t size) {
  if (size <= 1) {
    return 0;
  }
  const auto width = static_cast<size_t>(std::bit_width(static_cast<uint64_t>(size - 1)));
  return std::min(width, kBatchSizeBuckets - 1);
}

size_t LatencyBucket(double latency_seconds) {
  const double us = latency_seconds * 1e6;
  if (us < 1.0) {
    return 0;
  }
  const auto width =
      static_cast<size_t>(std::bit_width(static_cast<uint64_t>(us)));
  return std::min(width - 1, kLatencyBuckets - 1);
}

// Percentile read over one histogram image (shared by the snapshot accessor and the
// registry's live read). p is in [0, 100], like util::Percentile.
double PercentileMillisOf(const std::array<int64_t, kLatencyBuckets>& hist, double p) {
  TAO_CHECK(p >= 0.0 && p <= 100.0) << "p=" << p;
  int64_t total = 0;
  for (const int64_t count : hist) {
    total += count;
  }
  if (total == 0) {
    return 0.0;
  }
  // Rank of the percentile sample, 1-based: ceil(p / 100 * total), at least 1.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(p / 100.0 * static_cast<double>(total) + 0.999999));
  int64_t cumulative = 0;
  for (size_t b = 0; b < kLatencyBuckets; ++b) {
    cumulative += hist[b];
    if (cumulative >= rank) {
      // Bucket b spans [2^b, 2^(b+1)) us; report the upper bound in ms.
      return static_cast<double>(int64_t{1} << (b + 1)) / 1e3;
    }
  }
  return static_cast<double>(int64_t{1} << kLatencyBuckets) / 1e3;
}

}  // namespace

double MetricsSnapshot::LatencyPercentileMillis(double p) const {
  return PercentileMillisOf(latency_hist_us, p);
}

MetricsRegistry::MetricsRegistry() : origin_(std::chrono::steady_clock::now()) {}

double MetricsRegistry::RecentLatencyPercentileMillis(double p) const {
  const uint64_t valid = std::min<uint64_t>(recent_count_.load(), kSloLatencyWindow);
  std::array<int64_t, kLatencyBuckets> hist{};
  for (uint64_t i = 0; i < valid; ++i) {
    const int32_t bucket = recent_latency_bucket_[i].load();
    hist[static_cast<size_t>(bucket)] += 1;
  }
  return PercentileMillisOf(hist, p);
}

void MetricsRegistry::RecordSloShed() { shed_slo_.fetch_add(1); }

void MetricsRegistry::RecordSubmission(bool accepted) {
  submitted_.fetch_add(1);
  if (accepted) {
    // Accepted is bumped BEFORE the claim can possibly complete (the caller holds
    // the submission until after this returns), and Snapshot reads completed before
    // accepted — together that keeps completed <= accepted in every snapshot.
    accepted_.fetch_add(1);
    const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - origin_)
                               .count();
    int64_t expected = 0;
    first_accept_ns_.compare_exchange_strong(expected, std::max<int64_t>(1, now_ns));
  } else {
    rejected_.fetch_add(1);
  }
}

void MetricsRegistry::RecordDispatch(int64_t batch_size) {
  batches_dispatched_.fetch_add(1);
  claims_dispatched_.fetch_add(batch_size);
  batch_size_hist_[BatchSizeBucket(batch_size)].fetch_add(1);
}

void MetricsRegistry::RecordVerdict(double latency_seconds, bool dispute_ran) {
  const size_t bucket = LatencyBucket(latency_seconds);
  latency_hist_us_[bucket].fetch_add(1);
  recent_latency_bucket_[recent_count_.fetch_add(1) % kSloLatencyWindow].store(
      static_cast<int32_t>(bucket));
  if (dispute_ran) {
    disputes_run_.fetch_add(1);
  }
  const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - origin_)
                             .count();
  last_verdict_ns_.store(now_ns);
  completed_.fetch_add(1);
}

std::vector<NamedCounter> NamedCounters(const MetricsSnapshot& snapshot,
                                        const std::string& scope) {
  const std::string prefix = scope.empty() ? std::string() : scope + "/";
  std::vector<NamedCounter> counters;
  counters.reserve(16);
  const auto add = [&](const char* name, double value) {
    counters.push_back({prefix + name, value});
  };
  add("claims/submitted", static_cast<double>(snapshot.submitted));
  add("claims/accepted", static_cast<double>(snapshot.accepted));
  add("claims/rejected", static_cast<double>(snapshot.rejected));
  add("claims/shed_slo", static_cast<double>(snapshot.shed_slo));
  add("claims/completed", static_cast<double>(snapshot.completed));
  add("claims/in_flight", static_cast<double>(snapshot.claims_in_flight));
  add("claims/per_second", snapshot.claims_per_second);
  add("disputes/run", static_cast<double>(snapshot.disputes_run));
  add("queue/depth", static_cast<double>(snapshot.queue_depth));
  add("queue/peak_depth", static_cast<double>(snapshot.peak_queue_depth));
  add("batches/dispatched", static_cast<double>(snapshot.batches_dispatched));
  add("latency/p50_ms", snapshot.LatencyPercentileMillis(50.0));
  add("latency/p99_ms", snapshot.LatencyPercentileMillis(99.0));
  add("durability/records_appended",
      static_cast<double>(snapshot.durability_records_appended));
  add("durability/bytes_appended",
      static_cast<double>(snapshot.durability_bytes_appended));
  add("durability/flushes", static_cast<double>(snapshot.durability_flushes));
  add("durability/fsyncs", static_cast<double>(snapshot.durability_fsyncs));
  add("durability/snapshots", static_cast<double>(snapshot.durability_snapshots));
  add("durability/recovery_replayed",
      static_cast<double>(snapshot.durability_recovery_replayed));
  add("durability/flush_seconds_total",
      static_cast<double>(snapshot.durability_flush_ns) / 1e9);
  add("durability/fsync_seconds_total",
      static_cast<double>(snapshot.durability_fsync_ns) / 1e9);
  add("durability/flush_ms_mean",
      snapshot.durability_flushes > 0
          ? static_cast<double>(snapshot.durability_flush_ns) / 1e6 /
                static_cast<double>(snapshot.durability_flushes)
          : 0.0);
  add("durability/fsync_ms_mean",
      snapshot.durability_fsyncs > 0
          ? static_cast<double>(snapshot.durability_fsync_ns) / 1e6 /
                static_cast<double>(snapshot.durability_fsyncs)
          : 0.0);
  // Cumulative latency histogram (Prometheus-style "le" buckets; bounds in
  // microseconds). Dashboards that want percentiles beyond p50/p99 re-derive them
  // from these instead of the unexported raw buckets. Trailing empty buckets are
  // folded into the final +count counter to keep the page compact.
  int64_t cumulative = 0;
  int64_t total = 0;
  size_t last_nonzero = 0;
  for (size_t b = 0; b < kLatencyBuckets; ++b) {
    total += snapshot.latency_hist_us[b];
    if (snapshot.latency_hist_us[b] > 0) {
      last_nonzero = b;
    }
  }
  for (size_t b = 0; b <= last_nonzero; ++b) {
    cumulative += snapshot.latency_hist_us[b];
    add(("latency/hist_us/le_" + std::to_string(int64_t{1} << (b + 1))).c_str(),
        static_cast<double>(cumulative));
  }
  add("latency/hist_us/count", static_cast<double>(total));
  add("elapsed_seconds", snapshot.elapsed_seconds);
  // Live dispatch gauge, not a snapshot field: the backend is a process-wide
  // property decided once at startup, and dashboards need it next to the claim
  // counters to attribute a host's throughput to the kernel path that produced it.
  add("backend/simd_avx2",
      ActiveSimdBackend() == SimdBackend::kAvx2 ? 1.0 : 0.0);
  return counters;
}

MetricsSnapshot AggregateSnapshots(const std::vector<MetricsSnapshot>& snapshots) {
  MetricsSnapshot total;
  for (const MetricsSnapshot& snapshot : snapshots) {
    total.submitted += snapshot.submitted;
    total.accepted += snapshot.accepted;
    total.rejected += snapshot.rejected;
    total.shed_slo += snapshot.shed_slo;
    total.queue_depth += snapshot.queue_depth;
    // Peaks are max-gauges, not additive counters: summing per-service peaks that
    // occurred at disjoint times would report a high-water mark that never existed.
    total.peak_queue_depth = std::max(total.peak_queue_depth, snapshot.peak_queue_depth);
    total.batches_dispatched += snapshot.batches_dispatched;
    total.claims_in_flight += snapshot.claims_in_flight;
    total.completed += snapshot.completed;
    total.disputes_run += snapshot.disputes_run;
    total.durability_records_appended += snapshot.durability_records_appended;
    total.durability_bytes_appended += snapshot.durability_bytes_appended;
    total.durability_flushes += snapshot.durability_flushes;
    total.durability_fsyncs += snapshot.durability_fsyncs;
    total.durability_snapshots += snapshot.durability_snapshots;
    total.durability_recovery_replayed += snapshot.durability_recovery_replayed;
    total.durability_flush_ns += snapshot.durability_flush_ns;
    total.durability_fsync_ns += snapshot.durability_fsync_ns;
    total.elapsed_seconds = std::max(total.elapsed_seconds, snapshot.elapsed_seconds);
    for (size_t b = 0; b < kBatchSizeBuckets; ++b) {
      total.batch_size_hist[b] += snapshot.batch_size_hist[b];
    }
    for (size_t b = 0; b < kLatencyBuckets; ++b) {
      total.latency_hist_us[b] += snapshot.latency_hist_us[b];
    }
  }
  if (total.elapsed_seconds > 0.0) {
    total.claims_per_second =
        static_cast<double>(total.completed) / total.elapsed_seconds;
  }
  return total;
}

MetricsSnapshot MetricsRegistry::Snapshot(int64_t queue_depth,
                                          int64_t peak_queue_depth) const {
  MetricsSnapshot snapshot;
  // Counter pairs are read in the reverse of their write order (completed before
  // accepted; accepted/rejected before submitted — see RecordSubmission), so every
  // snapshot satisfies completed <= accepted and accepted + rejected <= submitted.
  snapshot.completed = completed_.load();
  snapshot.disputes_run = disputes_run_.load();
  snapshot.accepted = accepted_.load();
  snapshot.shed_slo = shed_slo_.load();
  snapshot.rejected = rejected_.load();
  snapshot.submitted = submitted_.load();
  snapshot.batches_dispatched = batches_dispatched_.load();
  snapshot.claims_in_flight = claims_dispatched_.load() - snapshot.completed;
  snapshot.queue_depth = queue_depth;
  snapshot.peak_queue_depth = peak_queue_depth;
  for (size_t b = 0; b < kBatchSizeBuckets; ++b) {
    snapshot.batch_size_hist[b] = batch_size_hist_[b].load();
  }
  for (size_t b = 0; b < kLatencyBuckets; ++b) {
    snapshot.latency_hist_us[b] = latency_hist_us_[b].load();
  }

  const int64_t first_ns = first_accept_ns_.load();
  if (first_ns > 0) {
    int64_t end_ns = last_verdict_ns_.load();
    if (snapshot.completed == 0 || end_ns <= first_ns) {
      end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
                   .count();
    }
    snapshot.elapsed_seconds =
        static_cast<double>(std::max<int64_t>(1, end_ns - first_ns)) / 1e9;
    snapshot.claims_per_second =
        static_cast<double>(snapshot.completed) / snapshot.elapsed_seconds;
  }
  return snapshot;
}

}  // namespace tao
