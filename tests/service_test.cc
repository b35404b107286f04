// Verification-service suite: admission control and backpressure (including the
// p99-latency SLO shedding gate), per-submitter fairness, adaptive batch-former
// policy, graceful drain, live-metrics consistency, and the service determinism
// invariant — for a fixed submission order on a single-shard coordinator, verdicts,
// per-claim gas, C0 digests, claim ids, and the coordinator ledger are bitwise
// identical to the sequential PR-1 path, for any worker count and any batch sizing.
// (The multi-shard sweep and per-shard replay equivalence live in
// coordinator_shard_test.cc.) The whole suite must run TSan-clean (CI runs it in
// the tsan job).

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/calib/calibrator.h"
#include "src/service/verification_service.h"
#include "tests/test_claims.h"

namespace tao {
namespace {

// ------------------------------- SubmissionQueue ------------------------------------

SubmissionRecord MakeRecord(uint64_t submitter = 0) {
  SubmissionRecord record;
  record.submitter = submitter;
  return record;
}

TEST(SubmissionQueueTest, RejectPolicyBoundsDepthAndPreservesFifoOrder) {
  SubmissionQueue queue(3, AdmissionPolicy::kReject);
  EXPECT_EQ(queue.Push(MakeRecord()), SubmitStatus::kAccepted);
  EXPECT_EQ(queue.Push(MakeRecord()), SubmitStatus::kAccepted);
  EXPECT_EQ(queue.Push(MakeRecord()), SubmitStatus::kAccepted);
  EXPECT_EQ(queue.Push(MakeRecord()), SubmitStatus::kRejectedFull);
  EXPECT_EQ(queue.depth(), 3u);
  EXPECT_EQ(queue.accepted(), 3u);

  std::vector<SubmissionRecord> popped = queue.PopUpTo(2);
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_EQ(popped[0].sequence, 0u);
  EXPECT_EQ(popped[1].sequence, 1u);
  EXPECT_EQ(queue.depth(), 1u);

  // A rejected push consumed no sequence number.
  EXPECT_EQ(queue.Push(MakeRecord()), SubmitStatus::kAccepted);
  popped = queue.PopUpTo(8);
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_EQ(popped[0].sequence, 2u);
  EXPECT_EQ(popped[1].sequence, 3u);
  EXPECT_EQ(queue.peak_depth(), 3u);
}

TEST(SubmissionQueueTest, PerSubmitterCapKeepsOneFloodFromStarvingOthers) {
  SubmissionQueue queue(8, AdmissionPolicy::kReject, /*per_submitter_cap=*/2);
  EXPECT_EQ(queue.Push(MakeRecord(1)), SubmitStatus::kAccepted);
  EXPECT_EQ(queue.Push(MakeRecord(1)), SubmitStatus::kAccepted);
  // Submitter 1 is at its fair share; the queue still has room for submitter 2.
  EXPECT_EQ(queue.Push(MakeRecord(1)), SubmitStatus::kRejectedFull);
  EXPECT_EQ(queue.Push(MakeRecord(2)), SubmitStatus::kAccepted);
  EXPECT_EQ(queue.Push(MakeRecord(2)), SubmitStatus::kAccepted);
  EXPECT_EQ(queue.Push(MakeRecord(2)), SubmitStatus::kRejectedFull);

  // Draining submitter 1's oldest entry frees its share again.
  const std::vector<SubmissionRecord> popped = queue.PopUpTo(1);
  ASSERT_EQ(popped.size(), 1u);
  EXPECT_EQ(popped[0].submitter, 1u);
  EXPECT_EQ(queue.Push(MakeRecord(1)), SubmitStatus::kAccepted);
}

TEST(SubmissionQueueTest, BlockingPushWaitsForRoomAndCloseWakesEveryone) {
  SubmissionQueue queue(1, AdmissionPolicy::kBlock);
  EXPECT_EQ(queue.Push(MakeRecord()), SubmitStatus::kAccepted);

  std::atomic<int> accepted{0};
  std::thread pusher([&] {
    if (queue.Push(MakeRecord()) == SubmitStatus::kAccepted) {
      accepted.fetch_add(1);
    }
  });
  // The pusher can only complete once this pop makes room (or it had room already —
  // either interleaving must end with the push accepted).
  while (queue.accepted() < 1) {
  }
  std::vector<SubmissionRecord> popped = queue.PopUpTo(1);
  ASSERT_EQ(popped.size(), 1u);
  pusher.join();
  EXPECT_EQ(accepted.load(), 1);
  EXPECT_EQ(queue.accepted(), 2u);

  // Close: a pusher blocked on a full queue must wake with kRejectedClosed.
  std::atomic<int> closed_status{-1};
  std::thread blocked([&] {
    closed_status.store(static_cast<int>(queue.Push(MakeRecord())));
  });
  queue.Close();
  blocked.join();
  EXPECT_EQ(closed_status.load(), static_cast<int>(SubmitStatus::kRejectedClosed));

  // The closed queue still drains, then reports emptiness forever.
  popped = queue.PopUpTo(4);
  ASSERT_EQ(popped.size(), 1u);
  EXPECT_TRUE(queue.PopUpTo(4).empty());
}

// --------------------------------- BatchFormer --------------------------------------

TEST(BatchFormerTest, HintCapsBeforeFirstObservation) {
  BatchFormerOptions options;
  options.initial_hint = 8;
  options.min_batch = 1;
  options.max_batch = 64;
  BatchFormer former(options);
  EXPECT_EQ(former.per_claim_bytes_estimate(), 0);
  EXPECT_EQ(former.NextBatchSize(/*queue_depth=*/0, /*in_flight=*/0), 1);
  EXPECT_EQ(former.NextBatchSize(3, 0), 3);   // shallow queue: don't wait to fill a bus
  EXPECT_EQ(former.NextBatchSize(100, 0), 8); // deep queue: capped by the hint only
}

TEST(BatchFormerTest, MemoryBudgetReplacesHintAfterObservations) {
  BatchFormerOptions options;
  options.initial_hint = 2;
  options.max_batch = 64;
  options.memory_budget_bytes = 4000;
  BatchFormer former(options);
  former.ObserveBatch(/*batch_size=*/4, /*peak_bytes=*/4000);  // 1000 bytes/claim
  EXPECT_EQ(former.per_claim_bytes_estimate(), 1000);
  // The hint no longer caps; the learned memory cap does: 4000/1000 = 4 claims.
  EXPECT_EQ(former.NextBatchSize(100, 0), 4);
  // Claims already in flight consume budget.
  EXPECT_EQ(former.NextBatchSize(100, /*in_flight=*/2), 2);
  // Exhausted budget still makes progress at min_batch.
  EXPECT_EQ(former.NextBatchSize(100, 1000), options.min_batch);
}

TEST(BatchFormerTest, ClampsToMaxBatchAndIgnoresEmptyObservations) {
  BatchFormerOptions options;
  options.initial_hint = 0;  // no pre-observation cap
  options.max_batch = 16;
  BatchFormer former(options);
  EXPECT_EQ(former.NextBatchSize(1000, 0), 16);
  former.ObserveBatch(4, 0);  // no arena ran: must not poison the estimate
  EXPECT_EQ(former.per_claim_bytes_estimate(), 0);
  former.ObserveBatch(4, 4);  // 1 byte/claim: budget effectively unbounded
  EXPECT_EQ(former.NextBatchSize(1000, 0), 16);
}

// ----------------------------- VerificationService ----------------------------------

class ServiceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new Model(BuildBertMini());
    CalibrateOptions options;
    options.num_samples = 4;
    thresholds_ = new ThresholdSet(
        Calibrate(*model_, DeviceRegistry::Fleet(), options).MakeThresholds(3.0));
    commitment_ = new ModelCommitment(*model_->graph, *thresholds_);
  }

  static void TearDownTestSuite() {
    delete commitment_;
    delete thresholds_;
    delete model_;
    commitment_ = nullptr;
    thresholds_ = nullptr;
    model_ = nullptr;
  }

  static Model* model_;
  static ThresholdSet* thresholds_;
  static ModelCommitment* commitment_;
};

Model* ServiceFixture::model_ = nullptr;
ThresholdSet* ServiceFixture::thresholds_ = nullptr;
ModelCommitment* ServiceFixture::commitment_ = nullptr;

// Deterministic marketplace-style cohort (shared generator, this suite's mix).
std::vector<BatchClaim> MakeClaims(const Model& model, size_t count, uint64_t seed) {
  return MakeTestClaims(model, count, seed, /*cheat_rate=*/0.4,
                        /*supervised_rate=*/0.6);
}

// Reference outcome of one claim under the sequential PR-1 path.
struct ReferenceOutcome {
  ClaimId claim_id = 0;
  Digest c0{};
  bool flagged = false;
  bool proposer_guilty = false;
  ClaimState final_state = ClaimState::kCommitted;
  int64_t gas_used = 0;
};

// Replays `claims` one at a time, in order, against `coordinator` — the historical
// sequential path every service configuration must reproduce bitwise.
std::vector<ReferenceOutcome> RunSequentialReference(const Model& model,
                                                     const ModelCommitment& commitment,
                                                     const ThresholdSet& thresholds,
                                                     const std::vector<BatchClaim>& claims,
                                                     Coordinator& coordinator,
                                                     const DisputeOptions& options) {
  const Graph& graph = *model.graph;
  std::vector<ReferenceOutcome> outcomes;
  outcomes.reserve(claims.size());
  for (const BatchClaim& claim : claims) {
    ReferenceOutcome ref;
    if (claim.supervised()) {
      DisputeGame game(model, commitment, thresholds, coordinator, options);
      const DisputeResult result = game.Run(claim.inputs, *claim.proposer_device,
                                            *claim.verifier_device, claim.perturbations);
      ref.claim_id = result.claim_id;
      ref.c0 = coordinator.claim(result.claim_id).c0;
      ref.flagged = result.challenge_raised;
      ref.proposer_guilty = result.proposer_guilty;
      ref.final_state = result.final_state;
      ref.gas_used = result.gas_used;
    } else {
      const Executor exec(graph, *claim.proposer_device);
      const ExecutionTrace trace = exec.RunPerturbed(claim.inputs, claim.perturbations);
      ResultMeta meta;
      meta.device = claim.proposer_device->name;
      meta.challenge_window = options.challenge_window;
      ref.c0 = ComputeResultCommitment(commitment, claim.inputs,
                                       trace.value(graph.output()), meta);
      const ClaimId id = coordinator.SubmitCommitment(ref.c0, options.challenge_window,
                                                      options.proposer_bond);
      coordinator.AdvanceTime(options.challenge_window);
      ref.claim_id = id;
      ref.final_state = coordinator.TryFinalize(id);
      ref.gas_used = coordinator.claim_gas(id);
    }
    outcomes.push_back(ref);
  }
  return outcomes;
}

void ExpectOutcomeMatchesReference(const BatchClaimOutcome& got, const ReferenceOutcome& ref,
                                   size_t i, const std::string& label) {
  EXPECT_EQ(got.claim_id, ref.claim_id) << label << ": claim " << i;
  EXPECT_EQ(got.c0, ref.c0) << label << ": claim " << i << " C0 digest diverged";
  EXPECT_EQ(got.flagged, ref.flagged) << label << ": claim " << i;
  EXPECT_EQ(got.proposer_guilty, ref.proposer_guilty) << label << ": claim " << i;
  EXPECT_EQ(got.final_state, ref.final_state) << label << ": claim " << i;
  EXPECT_EQ(got.gas_used, ref.gas_used) << label << ": claim " << i;
}

TEST_F(ServiceFixture, FixedSubmissionOrderMatchesSequentialForAnyWorkersAndBatching) {
  const std::vector<BatchClaim> claims = MakeClaims(*model_, 10, 0x5e2f1);

  Coordinator reference_coordinator;
  const std::vector<ReferenceOutcome> reference = RunSequentialReference(
      *model_, *commitment_, *thresholds_, claims, reference_coordinator, DisputeOptions{});
  const Balances reference_balances = reference_coordinator.balances();
  const int64_t reference_gas = reference_coordinator.gas().total();
  int64_t flagged = 0;
  for (const ReferenceOutcome& ref : reference) {
    flagged += ref.flagged ? 1 : 0;
  }
  ASSERT_GT(flagged, 0);  // the cohort must exercise the dispute lane

  struct Variant {
    int workers;
    int threads;
    int64_t hint;
    int64_t budget;  // 0 = default
  };
  for (const Variant v : {Variant{1, 1, 1, 0}, Variant{2, 2, 4, 0},
                          Variant{3, 8, 64, /*starve the memory budget:*/ 1}}) {
    const std::string label = "workers=" + std::to_string(v.workers) +
                              " threads=" + std::to_string(v.threads) +
                              " hint=" + std::to_string(v.hint) +
                              " budget=" + std::to_string(v.budget);
    Coordinator coordinator;
    ServiceOptions options;
    options.num_workers = v.workers;
    options.queue_capacity = 4;  // force admission backpressure mid-run
    options.batching.initial_hint = v.hint;
    if (v.budget > 0) {
      options.batching.memory_budget_bytes = v.budget;
    }
    options.verifier.dispute.num_threads = v.threads;
    options.verifier.reuse_buffers = true;
    std::vector<std::shared_ptr<ClaimTicket>> tickets;
    {
      VerificationService service(*model_, *commitment_, *thresholds_, coordinator,
                                  options);
      for (const BatchClaim& claim : claims) {
        tickets.push_back(service.Submit(claim));
        ASSERT_NE(tickets.back(), nullptr) << label;
      }
      service.Drain();
    }
    for (size_t i = 0; i < tickets.size(); ++i) {
      EXPECT_TRUE(tickets[i]->done()) << label << ": claim " << i;
      EXPECT_EQ(tickets[i]->sequence(), i) << label;
      ExpectOutcomeMatchesReference(tickets[i]->Wait(), reference[i], i, label);
    }
    // In-order resolution reproduces the sequential ledger bitwise.
    const Balances balances = coordinator.balances();
    EXPECT_EQ(balances.proposer, reference_balances.proposer) << label;
    EXPECT_EQ(balances.challenger, reference_balances.challenger) << label;
    EXPECT_EQ(balances.treasury, reference_balances.treasury) << label;
    EXPECT_EQ(coordinator.gas().total(), reference_gas) << label;
  }
}

TEST_F(ServiceFixture, ConcurrentSubmittersAreDeterministicGivenTheAcceptedOrder) {
  constexpr size_t kSubmitters = 4;
  constexpr size_t kClaimsEach = 4;
  std::vector<std::vector<BatchClaim>> per_submitter;
  for (size_t s = 0; s < kSubmitters; ++s) {
    per_submitter.push_back(MakeClaims(*model_, kClaimsEach, 0xc0de00 + s));
  }

  Coordinator coordinator;
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;
  options.per_submitter_cap = 3;  // fairness active while all four threads push
  options.batching.initial_hint = 4;
  options.verifier.dispute.num_threads = 2;
  options.verifier.reuse_buffers = true;

  // ticket[s][i] for submitter s's i-th claim; tensors share storage with
  // per_submitter so the replay below uses the exact same claims.
  std::vector<std::vector<std::shared_ptr<ClaimTicket>>> tickets(kSubmitters);
  {
    VerificationService service(*model_, *commitment_, *thresholds_, coordinator,
                                options);
    std::vector<std::thread> submitters;
    for (size_t s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        for (const BatchClaim& claim : per_submitter[s]) {
          std::shared_ptr<ClaimTicket> ticket = service.Submit(claim, s);
          ASSERT_NE(ticket, nullptr);  // kBlock never rejects while open
          tickets[s].push_back(std::move(ticket));
        }
      });
    }
    for (std::thread& t : submitters) {
      t.join();
    }
    service.Drain();
  }

  // Reconstruct the accepted order from the tickets' sequence numbers, replay it
  // through the sequential path on a fresh coordinator, and demand bitwise equality
  // — the invariant is conditional only on the submission order, never on worker
  // interleaving or cohort boundaries.
  constexpr size_t kTotal = kSubmitters * kClaimsEach;
  std::vector<const BatchClaim*> ordered_claims(kTotal, nullptr);
  std::vector<const BatchClaimOutcome*> ordered_outcomes(kTotal, nullptr);
  for (size_t s = 0; s < kSubmitters; ++s) {
    for (size_t i = 0; i < kClaimsEach; ++i) {
      const uint64_t seq = tickets[s][i]->sequence();
      ASSERT_LT(seq, kTotal);
      ASSERT_EQ(ordered_claims[seq], nullptr) << "duplicate sequence " << seq;
      ordered_claims[seq] = &per_submitter[s][i];
      ordered_outcomes[seq] = &tickets[s][i]->Wait();
    }
  }
  std::vector<BatchClaim> replay;
  replay.reserve(kTotal);
  for (const BatchClaim* claim : ordered_claims) {
    replay.push_back(*claim);
  }
  Coordinator reference_coordinator;
  const std::vector<ReferenceOutcome> reference =
      RunSequentialReference(*model_, *commitment_, *thresholds_, replay,
                             reference_coordinator, DisputeOptions{});
  for (size_t seq = 0; seq < kTotal; ++seq) {
    ExpectOutcomeMatchesReference(*ordered_outcomes[seq], reference[seq], seq,
                                  "accepted-order replay");
  }
  const Balances balances = coordinator.balances();
  const Balances reference_balances = reference_coordinator.balances();
  EXPECT_EQ(balances.proposer, reference_balances.proposer);
  EXPECT_EQ(balances.challenger, reference_balances.challenger);
  EXPECT_EQ(balances.treasury, reference_balances.treasury);
  EXPECT_EQ(coordinator.gas().total(), reference_coordinator.gas().total());
}

TEST_F(ServiceFixture, GracefulDrainDeliversEveryAcceptedClaimAVerdict) {
  const std::vector<BatchClaim> claims = MakeClaims(*model_, 12, 0xd4a1f);
  Coordinator coordinator;
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 3;  // tiny: drain must flush queue + reorder buffer
  options.max_unresolved = 4;
  options.batching.initial_hint = 2;
  options.verifier.reuse_buffers = true;
  VerificationService service(*model_, *commitment_, *thresholds_, coordinator, options);

  std::vector<std::shared_ptr<ClaimTicket>> tickets;
  std::thread submitter([&] {
    for (const BatchClaim& claim : claims) {
      tickets.push_back(service.Submit(claim));
    }
  });
  submitter.join();
  service.Drain();

  ASSERT_EQ(tickets.size(), claims.size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_NE(tickets[i], nullptr) << "claim " << i;
    EXPECT_TRUE(tickets[i]->done()) << "drain returned before claim " << i << " resolved";
  }
  const MetricsSnapshot snapshot = service.metrics();
  EXPECT_EQ(snapshot.accepted, static_cast<int64_t>(claims.size()));
  EXPECT_EQ(snapshot.completed, static_cast<int64_t>(claims.size()));
  EXPECT_EQ(snapshot.queue_depth, 0);
  EXPECT_EQ(snapshot.claims_in_flight, 0);
  EXPECT_LE(snapshot.peak_queue_depth, 3);

  // Draining is terminal: later submissions are turned away, delivered work stays.
  EXPECT_EQ(service.Submit(claims[0]), nullptr);
  EXPECT_EQ(service.metrics().rejected, 1);
}

TEST_F(ServiceFixture, RejectPolicyShedsLoadButCompletesEveryAcceptedClaim) {
  const std::vector<BatchClaim> claims = MakeClaims(*model_, 16, 0x5aed);
  Coordinator coordinator;
  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.admission = AdmissionPolicy::kReject;
  options.batching.initial_hint = 2;
  options.verifier.reuse_buffers = true;
  VerificationService service(*model_, *commitment_, *thresholds_, coordinator, options);

  std::vector<std::shared_ptr<ClaimTicket>> accepted;
  size_t rejected = 0;
  for (const BatchClaim& claim : claims) {
    std::shared_ptr<ClaimTicket> ticket = service.Submit(claim);
    if (ticket == nullptr) {
      ++rejected;
    } else {
      accepted.push_back(std::move(ticket));
    }
  }
  service.Drain();

  // Submitting 16 claims back-to-back into a 2-deep queue while each cohort takes
  // milliseconds to execute must shed load...
  EXPECT_GT(rejected, 0u);
  // ...and every accepted claim still gets exactly one verdict.
  for (size_t i = 0; i < accepted.size(); ++i) {
    EXPECT_TRUE(accepted[i]->done()) << "accepted claim " << i;
  }
  const MetricsSnapshot snapshot = service.metrics();
  EXPECT_EQ(snapshot.accepted, static_cast<int64_t>(accepted.size()));
  EXPECT_EQ(snapshot.rejected, static_cast<int64_t>(rejected));
  EXPECT_EQ(snapshot.submitted, static_cast<int64_t>(claims.size()));
  EXPECT_EQ(snapshot.completed, snapshot.accepted);
}

TEST_F(ServiceFixture, LatencySloShedsWhileBusyAndReleasesWhenIdle) {
  std::vector<BatchClaim> claims = MakeClaims(*model_, 6, 0x51c0);
  // Make the pipeline-occupying claim supervised so its execution (two lanes, and
  // a dispute if flagged) holds the service busy for many milliseconds — submits
  // racing it land microseconds later.
  claims[1].verifier_device = &DeviceRegistry::Fleet()[0];

  Coordinator coordinator;
  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 16;  // plenty of room: only the SLO gate can reject
  options.latency_slo_ms = 1e-6;    // unreachable target: any real verdict busts it
  options.slo_min_observations = 1; // gate arms after the first verdict
  options.verifier.reuse_buffers = true;
  VerificationService service(*model_, *commitment_, *thresholds_, coordinator, options);

  // The gate stays open until a verdict exists: the first submission is admitted.
  std::shared_ptr<ClaimTicket> first = service.Submit(claims[0]);
  ASSERT_NE(first, nullptr);
  first->Wait();  // delivery precedes Wait() returning, so p99 is now observable

  // Idle service: p99 is over the (absurd) SLO, but nothing is in flight, so the
  // gate must NOT latch shut — the next submission is admitted.
  std::shared_ptr<ClaimTicket> busy = service.Submit(claims[1]);
  ASSERT_NE(busy, nullptr);

  // Now the service IS busy and p99 is over target: these are shed, with the
  // queue nearly empty — purely the latency target talking, not capacity.
  size_t shed = 0;
  std::vector<std::shared_ptr<ClaimTicket>> admitted;
  for (size_t i = 2; i < claims.size(); ++i) {
    std::shared_ptr<ClaimTicket> ticket = service.Submit(claims[i]);
    if (ticket == nullptr) {
      ++shed;
    } else {
      admitted.push_back(std::move(ticket));
    }
  }
  EXPECT_GE(shed, 1u);  // claims[1] takes ms to verify; the submits took us

  // Recovery: once everything in flight delivers and the pipeline is idle again,
  // the gate releases even though the recent window still remembers slow verdicts.
  busy->Wait();
  for (const auto& ticket : admitted) {
    ticket->Wait();
  }
  std::shared_ptr<ClaimTicket> after = service.Submit(claims[2]);
  EXPECT_NE(after, nullptr);
  service.Drain();

  const MetricsSnapshot snapshot = service.metrics();
  EXPECT_EQ(snapshot.shed_slo, static_cast<int64_t>(shed));
  EXPECT_EQ(snapshot.rejected, snapshot.shed_slo);
  EXPECT_EQ(snapshot.accepted, snapshot.completed);
  EXPECT_EQ(snapshot.submitted, snapshot.accepted + snapshot.rejected);
}

TEST_F(ServiceFixture, UnorderedDeliveryMatchesReferenceOutcomes) {
  const std::vector<BatchClaim> claims = MakeClaims(*model_, 8, 0x5e2f1);
  Coordinator reference_coordinator;
  const std::vector<ReferenceOutcome> reference = RunSequentialReference(
      *model_, *commitment_, *thresholds_, claims, reference_coordinator, DisputeOptions{});

  // One shard/lane: even with delivery unordered, resolution is the global
  // submission order, so the full bitwise invariant (ledger included) must hold.
  Coordinator coordinator;
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 4;
  options.unordered_delivery = true;
  options.batching.initial_hint = 3;
  options.verifier.reuse_buffers = true;
  std::vector<std::shared_ptr<ClaimTicket>> tickets;
  {
    VerificationService service(*model_, *commitment_, *thresholds_, coordinator,
                                options);
    for (const BatchClaim& claim : claims) {
      tickets.push_back(service.Submit(claim));
      ASSERT_NE(tickets.back(), nullptr);
    }
    service.Drain();
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    ExpectOutcomeMatchesReference(tickets[i]->Wait(), reference[i], i, "unordered");
  }
  const Balances balances = coordinator.balances();
  const Balances reference_balances = reference_coordinator.balances();
  EXPECT_EQ(balances.proposer, reference_balances.proposer);
  EXPECT_EQ(balances.challenger, reference_balances.challenger);
  EXPECT_EQ(balances.treasury, reference_balances.treasury);
  EXPECT_EQ(coordinator.gas().total(), reference_coordinator.gas().total());
}

TEST_F(ServiceFixture, MetricsSnapshotsAreConsistentWhileTheServiceRuns) {
  const std::vector<BatchClaim> claims = MakeClaims(*model_, 12, 0x3e7a1);
  Coordinator coordinator;
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 4;
  options.batching.initial_hint = 3;
  options.verifier.reuse_buffers = true;
  VerificationService service(*model_, *commitment_, *thresholds_, coordinator, options);

  std::atomic<bool> done{false};
  std::thread submitter([&] {
    std::vector<std::shared_ptr<ClaimTicket>> tickets;
    for (const BatchClaim& claim : claims) {
      tickets.push_back(service.Submit(claim));
    }
    for (const auto& ticket : tickets) {
      ticket->Wait();
    }
    done.store(true);
  });

  // Poll snapshots concurrently with the pipeline and check the cross-counter
  // invariants every time.
  int64_t last_completed = 0;
  while (!done.load()) {
    const MetricsSnapshot snapshot = service.metrics();
    EXPECT_LE(snapshot.completed, snapshot.accepted);
    EXPECT_LE(snapshot.accepted + snapshot.rejected, snapshot.submitted);
    EXPECT_GE(snapshot.completed, last_completed) << "completed went backwards";
    EXPECT_GE(snapshot.claims_in_flight, 0);
    EXPECT_LE(snapshot.queue_depth, 4);
    last_completed = snapshot.completed;
  }
  submitter.join();
  service.Drain();

  const MetricsSnapshot final_snapshot = service.metrics();
  EXPECT_EQ(final_snapshot.completed, static_cast<int64_t>(claims.size()));
  int64_t batch_hist_total = 0;
  int64_t latency_hist_total = 0;
  for (const int64_t count : final_snapshot.batch_size_hist) {
    batch_hist_total += count;
  }
  for (const int64_t count : final_snapshot.latency_hist_us) {
    latency_hist_total += count;
  }
  EXPECT_EQ(batch_hist_total, final_snapshot.batches_dispatched);
  EXPECT_EQ(latency_hist_total, final_snapshot.completed);
  EXPECT_GT(final_snapshot.claims_per_second, 0.0);
  const double p50 = final_snapshot.LatencyPercentileMillis(50.0);
  const double p99 = final_snapshot.LatencyPercentileMillis(99.0);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
}

}  // namespace
}  // namespace tao
