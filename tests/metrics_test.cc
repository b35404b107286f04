// MetricsRegistry / NamedCounters unit suite: scope namespacing and
// collision-freedom, the AggregateSnapshots fold semantics (sums vs max-gauges vs
// recomputed rates), the recent-latency ring's wraparound, the cumulative
// histogram export, and the durability flush/fsync latency counters.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/metrics.h"

namespace tao {
namespace {

double ValueOf(const std::vector<NamedCounter>& counters, const std::string& name) {
  for (const NamedCounter& counter : counters) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  ADD_FAILURE() << "missing counter: " << name;
  return -1.0;
}

bool Has(const std::vector<NamedCounter>& counters, const std::string& name) {
  return std::any_of(counters.begin(), counters.end(),
                     [&name](const NamedCounter& c) { return c.name == name; });
}

TEST(NamedCountersTest, ScopePrefixesEveryNameAndEmptyScopeAddsNone) {
  MetricsSnapshot snapshot;
  snapshot.accepted = 3;
  const std::vector<NamedCounter> scoped = NamedCounters(snapshot, "model/3");
  for (const NamedCounter& counter : scoped) {
    EXPECT_EQ(counter.name.rfind("model/3/", 0), 0u) << counter.name;
  }
  EXPECT_EQ(ValueOf(scoped, "model/3/claims/accepted"), 3.0);

  const std::vector<NamedCounter> bare = NamedCounters(snapshot, "");
  EXPECT_EQ(ValueOf(bare, "claims/accepted"), 3.0);
  for (const NamedCounter& counter : bare) {
    EXPECT_NE(counter.name.front(), '/') << counter.name;
  }
}

TEST(NamedCountersTest, NamesAreCollisionFreeWithinAndAcrossScopes) {
  MetricsSnapshot snapshot;
  snapshot.latency_hist_us[0] = 1;  // makes the histogram export non-trivial
  std::set<std::string> names;
  for (const char* scope : {"model/1", "model/2", "aggregate"}) {
    for (const NamedCounter& counter : NamedCounters(snapshot, scope)) {
      EXPECT_TRUE(names.insert(counter.name).second)
          << "duplicate counter name: " << counter.name;
    }
  }
}

TEST(NamedCountersTest, CumulativeHistogramExportFoldsTrailingZeros) {
  MetricsSnapshot snapshot;
  // Buckets 0, 2, 3 populated -> le_2, le_4, le_8, le_16 emitted (cumulative),
  // nothing beyond bucket 3, plus the total count.
  snapshot.latency_hist_us[0] = 4;
  snapshot.latency_hist_us[2] = 2;
  snapshot.latency_hist_us[3] = 1;
  const std::vector<NamedCounter> counters = NamedCounters(snapshot, "");
  EXPECT_EQ(ValueOf(counters, "latency/hist_us/le_2"), 4.0);
  EXPECT_EQ(ValueOf(counters, "latency/hist_us/le_4"), 4.0);
  EXPECT_EQ(ValueOf(counters, "latency/hist_us/le_8"), 6.0);
  EXPECT_EQ(ValueOf(counters, "latency/hist_us/le_16"), 7.0);
  EXPECT_FALSE(Has(counters, "latency/hist_us/le_32")) << "trailing zeros must fold";
  EXPECT_EQ(ValueOf(counters, "latency/hist_us/count"), 7.0);
  // An empty histogram still exports the count (zero) but no buckets beyond the
  // first.
  const std::vector<NamedCounter> empty = NamedCounters(MetricsSnapshot{}, "");
  EXPECT_EQ(ValueOf(empty, "latency/hist_us/count"), 0.0);
}

TEST(NamedCountersTest, DurabilityLatencyCountersDeriveTotalsAndMeans) {
  MetricsSnapshot snapshot;
  snapshot.durability_flushes = 4;
  snapshot.durability_fsyncs = 2;
  snapshot.durability_flush_ns = 8'000'000;   // 8 ms over 4 flushes
  snapshot.durability_fsync_ns = 10'000'000;  // 10 ms over 2 fsyncs
  const std::vector<NamedCounter> counters = NamedCounters(snapshot, "");
  EXPECT_DOUBLE_EQ(ValueOf(counters, "durability/flush_seconds_total"), 0.008);
  EXPECT_DOUBLE_EQ(ValueOf(counters, "durability/fsync_seconds_total"), 0.010);
  EXPECT_DOUBLE_EQ(ValueOf(counters, "durability/flush_ms_mean"), 2.0);
  EXPECT_DOUBLE_EQ(ValueOf(counters, "durability/fsync_ms_mean"), 5.0);
  // No flushes -> means report 0 rather than dividing by zero.
  const std::vector<NamedCounter> idle = NamedCounters(MetricsSnapshot{}, "");
  EXPECT_EQ(ValueOf(idle, "durability/flush_ms_mean"), 0.0);
  EXPECT_EQ(ValueOf(idle, "durability/fsync_ms_mean"), 0.0);
}

TEST(AggregateSnapshotsTest, SumsCountersMaxesGaugesAndRecomputesRates) {
  MetricsSnapshot a;
  a.submitted = 10;
  a.accepted = 8;
  a.rejected = 2;
  a.completed = 8;
  a.queue_depth = 3;
  a.peak_queue_depth = 7;
  a.batches_dispatched = 4;
  a.disputes_run = 1;
  a.elapsed_seconds = 2.0;
  a.durability_flush_ns = 100;
  a.latency_hist_us[5] = 8;
  a.batch_size_hist[1] = 4;

  MetricsSnapshot b;
  b.submitted = 4;
  b.accepted = 4;
  b.completed = 4;
  b.queue_depth = 1;
  b.peak_queue_depth = 2;
  b.batches_dispatched = 2;
  b.elapsed_seconds = 4.0;
  b.durability_fsync_ns = 50;
  b.latency_hist_us[5] = 4;

  const MetricsSnapshot total = AggregateSnapshots({a, b});
  EXPECT_EQ(total.submitted, 14);
  EXPECT_EQ(total.accepted, 12);
  EXPECT_EQ(total.rejected, 2);
  EXPECT_EQ(total.completed, 12);
  EXPECT_EQ(total.queue_depth, 4) << "live depths add across services";
  EXPECT_EQ(total.peak_queue_depth, 7)
      << "peaks are max-gauges: summing disjoint-time peaks would fabricate a "
         "high-water mark that never existed";
  EXPECT_EQ(total.batches_dispatched, 6);
  EXPECT_EQ(total.disputes_run, 1);
  EXPECT_EQ(total.durability_flush_ns, 100);
  EXPECT_EQ(total.durability_fsync_ns, 50);
  EXPECT_EQ(total.latency_hist_us[5], 12);
  EXPECT_EQ(total.batch_size_hist[1], 4);
  // The rate window spans the union: elapsed = max, claims/sec recomputed.
  EXPECT_DOUBLE_EQ(total.elapsed_seconds, 4.0);
  EXPECT_DOUBLE_EQ(total.claims_per_second, 3.0);
  // Folding nothing is a zero snapshot, not a crash.
  EXPECT_EQ(AggregateSnapshots({}).submitted, 0);
}

TEST(MetricsRegistryTest, SnapshotKeepsCompletedWithinAccepted) {
  MetricsRegistry registry;
  registry.RecordSubmission(true);
  registry.RecordSubmission(true);
  registry.RecordSubmission(false);
  registry.RecordSloShed();
  registry.RecordDispatch(2);
  registry.RecordVerdict(0.001, /*dispute_ran=*/true);
  const MetricsSnapshot snapshot = registry.Snapshot(/*queue_depth=*/1,
                                                     /*peak_queue_depth=*/2);
  EXPECT_EQ(snapshot.submitted, 3);
  EXPECT_EQ(snapshot.accepted, 2);
  EXPECT_EQ(snapshot.rejected, 1);
  EXPECT_EQ(snapshot.shed_slo, 1);
  EXPECT_EQ(snapshot.completed, 1);
  EXPECT_LE(snapshot.completed, snapshot.accepted);
  EXPECT_EQ(snapshot.claims_in_flight, 1);
  EXPECT_EQ(snapshot.disputes_run, 1);
  EXPECT_GT(snapshot.elapsed_seconds, 0.0);
}

TEST(MetricsRegistryTest, RecentLatencyWindowForgetsOldBursts) {
  MetricsRegistry registry;
  // An old burst of slow verdicts (~0.13 s -> a high bucket) ...
  for (size_t i = 0; i < kSloLatencyWindow; ++i) {
    registry.RecordVerdict(0.13, false);
  }
  EXPECT_GT(registry.RecentLatencyPercentileMillis(99.0), 100.0);
  // ... then a full window of fast verdicts (~20 us). The ring has wrapped: the
  // recent percentile must see ONLY the fast window, while the cumulative
  // histogram (which never decays) still remembers the burst.
  for (size_t i = 0; i < kSloLatencyWindow; ++i) {
    registry.RecordVerdict(20e-6, false);
  }
  EXPECT_LT(registry.RecentLatencyPercentileMillis(99.0), 1.0);
  const MetricsSnapshot snapshot = registry.Snapshot(0, 0);
  EXPECT_GT(snapshot.LatencyPercentileMillis(99.0), 100.0)
      << "the cumulative histogram must still hold the old burst";
  EXPECT_EQ(snapshot.completed, static_cast<int64_t>(2 * kSloLatencyWindow));
}

TEST(MetricsRegistryTest, PartiallyFilledWindowUsesOnlyValidEntries) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.RecentLatencyPercentileMillis(50.0), 0.0) << "no verdicts yet";
  registry.RecordVerdict(0.004, false);  // 4 ms
  const double p50 = registry.RecentLatencyPercentileMillis(50.0);
  EXPECT_GT(p50, 1.0);
  EXPECT_LT(p50, 20.0);
}

TEST(MetricsSnapshotTest, PercentileTakesPInZeroToHundred) {
  // One verdict in bucket 0 ([1, 2) us) and one in bucket 3 ([8, 16) us): the median
  // is the lower bucket, the maximum the upper one. p is in [0, 100], like
  // util::Percentile; a [0, 1] reading of 50.0 would clamp to p100.
  MetricsSnapshot snapshot;
  snapshot.latency_hist_us[0] = 1;
  snapshot.latency_hist_us[3] = 1;
  EXPECT_DOUBLE_EQ(snapshot.LatencyPercentileMillis(50.0), 0.002);
  EXPECT_DOUBLE_EQ(snapshot.LatencyPercentileMillis(100.0), 0.016);
}

TEST(NamedCountersTest, LatencyPercentilesAndQueueDepthAreFirstClassCounters) {
  MetricsSnapshot snapshot;
  snapshot.queue_depth = 5;
  // 10 verdicts in bucket 3 ([8, 16) us): p50 and p99 both report the bucket's
  // upper bound, 16 us = 0.016 ms.
  snapshot.latency_hist_us[3] = 10;
  const std::vector<NamedCounter> counters = NamedCounters(snapshot, "");
  EXPECT_EQ(ValueOf(counters, "queue/depth"), 5.0);
  EXPECT_DOUBLE_EQ(ValueOf(counters, "latency/p50_ms"), 0.016);
  EXPECT_DOUBLE_EQ(ValueOf(counters, "latency/p99_ms"), 0.016);
}

}  // namespace
}  // namespace tao
