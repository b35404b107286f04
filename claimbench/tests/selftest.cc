// Self-tests of the benchmark's own machinery: the percentile convention, the
// seeded claim stream, the verdict comparison the correctness gate relies on,
// accepted-order reconstruction and span self time.
//
//   python3 claimbench/run.py --self-test

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "claimbench/src/common.h"
#include "claimbench/src/loop.h"
#include "claimbench/src/quantile.h"
#include "claimbench/src/spans.h"

namespace tao::claimbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(Quantile, InterpolatesLinearlyOnKnownVectors) {
  EXPECT_DOUBLE_EQ(*QuantileOf(OneTo(100), kP50), 50.5);
  EXPECT_DOUBLE_EQ(*QuantileOf(OneTo(100), kP90), 90.1);
  EXPECT_NEAR(*QuantileOf(OneTo(1000), kP99), 990.01, 1e-9);
  // Order of the input does not matter.
  std::vector<double> reversed = OneTo(100);
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_DOUBLE_EQ(*QuantileOf(reversed, kP50), 50.5);
}

TEST(Quantile, RefusesWithFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(QuantileOf(OneTo(19), kP50).has_value());
  EXPECT_TRUE(QuantileOf(OneTo(20), kP50).has_value());
  EXPECT_FALSE(QuantileOf(OneTo(99), kP90).has_value());
  EXPECT_TRUE(QuantileOf(OneTo(100), kP90).has_value());
  EXPECT_FALSE(QuantileOf(OneTo(999), kP99).has_value());
  EXPECT_TRUE(QuantileOf(OneTo(1000), kP99).has_value());
  EXPECT_FALSE(QuantileOf({}, kP50).has_value());
}

TEST(Quantile, RejectsPercentScale) {
  EXPECT_THROW(Quantile(50.0), std::invalid_argument);
  EXPECT_THROW(Quantile(-0.1), std::invalid_argument);
  EXPECT_NO_THROW(Quantile(1.0));
}

TEST(ClaimStream, SameSeedGivesBitwiseIdenticalStream) {
  for (const WorkloadSpec& spec : Workloads()) {
    const Model model = BuildBertMini();
    const std::vector<BatchClaim> a = MakeClaimPool(spec, model, 7);
    const std::vector<BatchClaim> b = MakeClaimPool(spec, model, 7);
    const std::vector<BatchClaim> other = MakeClaimPool(spec, model, 8);
    ASSERT_EQ(a.size(), kPoolClaimsPerSite * static_cast<size_t>(model.graph->num_ops() - 1))
        << spec.name;
    ASSERT_EQ(b.size(), a.size());
    size_t differ = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(SameClaim(a[i], b[i])) << spec.name << " claim " << i;
      differ += SameClaim(a[i], other[i]) ? 0 : 1;
    }
    EXPECT_EQ(differ, a.size()) << spec.name << ": another seed must give other claims";
  }
}

TEST(ClaimStream, MixIsBalancedPerBlockAndOverThePool) {
  for (const WorkloadSpec& spec : Workloads()) {
    const std::vector<BatchClaim> pool = MakeClaimPool(spec, BuildBertMini(), 3);
    // Every proposer profile, verifier profile and perturbation site is dealt
    // equally often over the whole pool.
    std::map<const DeviceProfile*, size_t> proposers;
    std::map<const DeviceProfile*, size_t> verifiers;
    std::map<NodeId, size_t> sites;
    for (const BatchClaim& claim : pool) {
      ++proposers[claim.proposer_device];
      if (claim.supervised()) {
        ++verifiers[claim.verifier_device];
      }
      for (const Executor::Perturbation& perturbation : claim.perturbations) {
        ++sites[perturbation.node];
      }
    }
    for (const auto* counts : {&proposers, &verifiers}) {
      for (const auto& [profile, count] : *counts) {
        EXPECT_EQ(count, counts->begin()->second) << spec.name << " " << profile->name;
      }
    }
    for (const auto& [site, count] : sites) {
      EXPECT_EQ(count, sites.begin()->second) << spec.name << " site " << site;
    }
    if (spec.perturb_one_in != 0) {
      EXPECT_EQ(sites.size(), static_cast<size_t>(BuildBertMini().graph->num_ops() - 1));
    }
    for (size_t begin = 0; begin < pool.size(); begin += 4) {
      size_t supervised = 0;
      size_t perturbed = 0;
      for (size_t i = begin; i < begin + 4; ++i) {
        supervised += pool[i].supervised() ? 1 : 0;
        perturbed += pool[i].perturbations.empty() ? 0 : 1;
      }
      EXPECT_EQ(supervised, spec.supervise_one_in == 0 ? 0 : 4 / spec.supervise_one_in)
          << spec.name;
      EXPECT_EQ(perturbed, spec.perturb_one_in == 0 ? 0 : 4 / spec.perturb_one_in) << spec.name;
    }
  }
}

TEST(Gate, OutcomeComparisonSeesEveryField) {
  Outcome base;
  base.claim_id = 3;
  base.gas = 180000;
  base.final_state = 1;
  Outcome other = base;
  EXPECT_EQ(base, other);
  other.gas += 1;
  EXPECT_FALSE(base == other);
  other = base;
  other.c0[31] ^= 1;
  EXPECT_FALSE(base == other);
  other = base;
  other.claim_id = 4;
  EXPECT_FALSE(base == other);
  other = base;
  other.flagged = true;
  EXPECT_FALSE(base == other);
  other = base;
  other.guilty = true;
  EXPECT_FALSE(base == other);
  other = base;
  other.final_state = 2;
  EXPECT_FALSE(base == other);
}

TEST(Gate, AcceptedOrderFindsGaps) {
  LoopControl control(4);
  control.submitted.store(4);
  const uint64_t sequences[] = {2, 0, 1, 3};
  for (size_t i = 0; i < 4; ++i) {
    control.slots[i].accepted = true;
    control.slots[i].sequence = sequences[i];
  }
  std::vector<size_t> order;
  ASSERT_TRUE(AcceptedOrder(control, order));
  EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0, 3}));
  control.slots[3].sequence = 5;
  EXPECT_FALSE(AcceptedOrder(control, order));
  control.slots[3].accepted = false;  // a rejected claim has no sequence
  EXPECT_TRUE(AcceptedOrder(control, order));
  EXPECT_EQ(order.size(), 3u);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log;
  const uint32_t parent = log.Record({.name = "parent", .begin_ns = 0, .end_ns = 100'000'000});
  log.Record({.name = "child", .parent = parent, .begin_ns = 10'000'000, .end_ns = 30'000'000});
  log.Record({.name = "child", .parent = parent, .begin_ns = 20'000'000, .end_ns = 50'000'000});
  for (const SpanLog::SelfTime& entry : log.SelfTimes()) {
    if (entry.name == "parent") {
      EXPECT_DOUBLE_EQ(entry.total_ms, 100.0);
      EXPECT_DOUBLE_EQ(entry.self_ms, 60.0);
    } else {
      EXPECT_EQ(entry.count, 2u);
      EXPECT_DOUBLE_EQ(entry.self_ms, 50.0);
    }
  }
}

}  // namespace
}  // namespace tao::claimbench
