// MetricsRegistry: lock-cheap live counters for the verification service.
//
// Everything on the hot path is a std::atomic increment — no mutex is ever taken by
// submitters, workers, or the resolve lanes — so metering does not serialize the
// pipeline it is measuring. Distributions (batch sizes, enqueue→verdict latency)
// are power-of-two-bucket histograms of atomics; percentiles are read off the
// cumulative histogram at snapshot time, accurate to one bucket (a factor of two in
// the tail), which is the resolution operators actually act on.
//
// Snapshot() is safe to call at any time from any thread while the service runs.
// Each field is individually coherent (atomic reads in a total order), and ordering
// between the accepted/completed pair is arranged so `completed <= accepted` holds
// in every snapshot; cross-field exactness beyond that is not promised while the
// pipeline is moving.

#ifndef TAO_SRC_SERVICE_METRICS_H_
#define TAO_SRC_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace tao {

// Batch-size buckets: bucket b counts cohorts of size in (2^(b-1), 2^b]; bucket 0 is
// size 1. 17 buckets cover sizes up to 65536.
inline constexpr size_t kBatchSizeBuckets = 17;
// Latency buckets: bucket b counts verdicts whose enqueue→verdict latency is in
// [2^b, 2^(b+1)) microseconds. 40 buckets cover ~6 days.
inline constexpr size_t kLatencyBuckets = 40;
// Sliding window (in verdicts) the SLO admission gate reads its percentile over.
// The cumulative histogram never decays, so a long-past burst would otherwise tax
// admission forever; the ring keeps the gate's view recent.
inline constexpr size_t kSloLatencyWindow = 256;

struct MetricsSnapshot {
  // Admission.
  int64_t submitted = 0;  // Submit() calls (accepted + rejected)
  int64_t accepted = 0;
  int64_t rejected = 0;
  int64_t shed_slo = 0;  // subset of rejected: shed by the p99-latency SLO gate
  int64_t queue_depth = 0;       // resident submissions right now
  int64_t peak_queue_depth = 0;  // high-water mark of queue_depth
  // Pipeline.
  int64_t batches_dispatched = 0;
  int64_t claims_in_flight = 0;  // popped from the queue, verdict not yet delivered
  int64_t completed = 0;         // verdicts delivered
  int64_t disputes_run = 0;      // completed claims whose threshold check flagged them
  // Rates.
  double elapsed_seconds = 0.0;   // first accepted submission -> last verdict (or now)
  double claims_per_second = 0.0; // completed / elapsed_seconds
  // Durability (the model's coordinator changelog; all zero when in-memory —
  // src/durability/options.h). Sampled from Coordinator::durability_stats at
  // snapshot time, like the queue gauges.
  int64_t durability_records_appended = 0;
  int64_t durability_bytes_appended = 0;
  int64_t durability_flushes = 0;
  int64_t durability_fsyncs = 0;
  int64_t durability_snapshots = 0;
  int64_t durability_recovery_replayed = 0;
  // Writer wall time inside write(2) / fsync(2) (nanoseconds): mean flush/fsync
  // latency = total / count, which is what the resource view exports.
  int64_t durability_flush_ns = 0;
  int64_t durability_fsync_ns = 0;

  std::array<int64_t, kBatchSizeBuckets> batch_size_hist{};
  std::array<int64_t, kLatencyBuckets> latency_hist_us{};

  // Latency percentile (p in [0, 100]) in milliseconds, read off the histogram's
  // cumulative counts; returns the selected bucket's upper bound. 0 when no verdict
  // has been delivered yet.
  double LatencyPercentileMillis(double p) const;
};

// One exported metric: a namespaced counter name and its value.
struct NamedCounter {
  std::string name;
  double value = 0.0;
};

// Flattens a snapshot into namespaced counters. Counter names used to be implicit
// and global ("claims/accepted" meant THE service); with the model registry many
// services export concurrently, so every name is now prefixed with its scope —
// "model/<id>/claims/accepted" for a per-model snapshot, "aggregate/claims/accepted"
// for the gateway fold — and per-model exports can never collide with each other or
// shadow the aggregate a dashboard reader already consumes.
std::vector<NamedCounter> NamedCounters(const MetricsSnapshot& snapshot,
                                        const std::string& scope);

// Cross-service fold for the gateway's aggregate view: counters and histograms add,
// max-gauges (peak queue depth) take the max, and the rate window spans the union
// (elapsed = max, claims/sec recomputed over it).
MetricsSnapshot AggregateSnapshots(const std::vector<MetricsSnapshot>& snapshots);

class MetricsRegistry {
 public:
  MetricsRegistry();

  // -- hot-path recording (all atomic, no locks) --------------------------------------
  void RecordSubmission(bool accepted);
  void RecordSloShed();  // a RecordSubmission(false) that the latency SLO caused
  void RecordDispatch(int64_t batch_size);  // one cohort left the queue
  void RecordVerdict(double latency_seconds, bool dispute_ran);

  // -- live reads for admission policy (atomic loads, no snapshot allocation) ----------
  int64_t completed_count() const { return completed_.load(); }
  int64_t accepted_count() const { return accepted_.load(); }
  // Latency percentile over the most recent kSloLatencyWindow verdicts (all
  // verdicts, until that many exist) — what the SLO admission gate polls per
  // submission. Same one-bucket resolution as the snapshot's percentile.
  double RecentLatencyPercentileMillis(double p) const;

  // Queue gauges are sampled by the service at snapshot time (the queue already
  // tracks them under its own lock); the registry owns everything else.
  MetricsSnapshot Snapshot(int64_t queue_depth, int64_t peak_queue_depth) const;

 private:
  const std::chrono::steady_clock::time_point origin_;

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> shed_slo_{0};
  std::atomic<int64_t> batches_dispatched_{0};
  std::atomic<int64_t> claims_dispatched_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> disputes_run_{0};
  // Nanoseconds-since-origin stamps for the rate window; 0 = unset.
  std::atomic<int64_t> first_accept_ns_{0};
  std::atomic<int64_t> last_verdict_ns_{0};
  std::array<std::atomic<int64_t>, kBatchSizeBuckets> batch_size_hist_{};
  std::array<std::atomic<int64_t>, kLatencyBuckets> latency_hist_us_{};
  // Ring of the last kSloLatencyWindow verdicts' latency buckets (valid entries:
  // min(recent_count_, window)). Entry reads racing a concurrent overwrite see
  // either the old or the new verdict's bucket — both are real samples, which is
  // all a one-bucket-resolution gate needs.
  std::array<std::atomic<int32_t>, kSloLatencyWindow> recent_latency_bucket_{};
  std::atomic<uint64_t> recent_count_{0};
};

}  // namespace tao

#endif  // TAO_SRC_SERVICE_METRICS_H_
