// Coordinator: the authenticated coordination service of Sec. 2.1 — records
// commitments, enforces challenge windows and per-round timeouts over a logical clock,
// escrows bonds, meters gas per action, and executes slashing/rewards on adjudication.
// The paper's prototype deploys this as Ethereum contracts; the in-process state
// machine implements the same transitions and cost accounting (see gas.h).
//
// The state machine is SHARDED (see docs/coordinator.md): claims are partitioned by
// ClaimId across `num_shards` independent shards, each with its own mutex, claim list,
// logical clock, gas accumulator, and balance ledger. Claim lifecycles on different
// shards never contend on a lock and never perturb each other's clocks, which is what
// lets thousands of concurrent dispute flows stop serializing on one mutex. Global
// reads (`balances()`, `gas()`) fold the per-shard accumulators on demand. With
// `num_shards == 1` (the default) the coordinator is bitwise identical to the
// historical single-lock state machine: one shard, one clock, ids 1, 2, 3, ...

#ifndef TAO_SRC_PROTOCOL_COORDINATOR_H_
#define TAO_SRC_PROTOCOL_COORDINATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/durability/options.h"
#include "src/protocol/gas.h"
#include "src/util/check.h"

namespace tao {

// Durability machinery (src/durability/coordinator_log.h); forward-declared so the
// protocol header stays free of the changelog/writer includes.
struct CoordinatorAction;
class CoordinatorDurability;

using ClaimId = uint64_t;
// Identity of a committed model in the ModelRegistry (src/registry/). 0 is the
// legacy "unscoped" id used by standalone drivers that predate the registry.
using ModelId = uint64_t;

enum class ClaimState {
  kCommitted,          // C0 posted; challenge window open
  kFinalized,          // window elapsed unchallenged; payment released
  kDisputed,           // interactive localization in progress
  kProposerSlashed,    // fraud proven; proposer bond slashed, challenger rewarded
  kChallengerSlashed,  // dispute failed; challenger bond slashed
};

const char* ClaimStateName(ClaimState state);

struct ClaimRecord {
  ClaimId id = 0;
  // Model this claim was submitted against (the owning coordinator's model id).
  // Ledger entries and gas are per-model-scoped through it: a registry deployment
  // runs one coordinator per model, so every record it holds carries that model's
  // id and cross-model readers (dashboards folding several coordinators) can
  // attribute rows without a side table. 0 for pre-registry standalone drivers.
  ModelId model = 0;
  Digest c0{};
  uint64_t committed_at = 0;
  uint64_t challenge_window = 0;
  ClaimState state = ClaimState::kCommitted;
  double proposer_bond = 0.0;
  double challenger_bond = 0.0;
  // Dispute bookkeeping.
  int64_t dispute_round = 0;
  uint64_t round_deadline = 0;
  int64_t merkle_checks = 0;
  // Gas charged by this claim's lifecycle actions. Each shard's gas accumulator is
  // the sum of these over its claims; the per-claim ledger is what lets
  // concurrently-running flows attribute cost without bracketing a shared meter.
  int64_t gas = 0;
};

// Per-party balance ledger (bond escrow, rewards, slashes).
struct Balances {
  double proposer = 0.0;
  double challenger = 0.0;
  double treasury = 0.0;  // burned remainder of slashes
};

// One shard's state: exactly what a snapshot images bit for bit (the codec is in
// src/durability/coordinator_log.h). Shard s holds the claims with ids 1 + s + i*S in
// `claims[i]` (S = num_shards), so the list is dense and in submission order.
struct ShardSnapshotState {
  uint64_t now = 0;
  uint64_t submitted = 0;  // claims homed here; drives id assignment
  Balances balances;
  int64_t gas = 0;
  std::deque<ClaimRecord> claims;
};

// The Coordinator is safe to share across concurrently-running protocol flows (the
// runtime and service layers execute independent claims in parallel): every state
// transition locks the owning shard's mutex. Concurrent flows must still operate on
// DISTINCT claims — two parties racing transitions on one claim is a protocol
// violation, not a data race the lock should hide.
//
// Claim-id layout: shard s issues ids 1+s, 1+s+S, 1+s+2S, ... (S = num_shards), so
// shard_of(id) = (id - 1) % S and — crucially for the service's per-shard
// determinism — the i-th claim homed to a shard always gets the same id no matter
// how submissions to OTHER shards interleave. With S = 1 this degenerates to the
// historical dense sequence 1, 2, 3, ...

class Coordinator {
 public:
  // `model_id` scopes every claim this coordinator records (stamped into each
  // ClaimRecord at submission); registry deployments pass the owning model's id,
  // standalone drivers keep the default 0. It does not perturb ids, gas, clocks,
  // or the ledger, so a model_id-0 coordinator is bitwise the historical one.
  //
  // `durability` with a non-empty directory makes every state transition append to
  // a per-shard write-ahead changelog (with periodic snapshots) and RECOVERS any
  // state already on disk there — replaying it through these same transition
  // methods, so the recovered coordinator is bitwise the uninterrupted one (see
  // docs/durability.md). The empty-directory default is in-memory only: no files,
  // no writer thread, one null-pointer branch per action.
  //
  // Recovery failures are typed (RecoveryStatus): with `recovery_status` null they
  // abort loudly; otherwise the status is written there and on error the
  // coordinator is left durability-off with partial state — check ok() and discard
  // it on failure.
  explicit Coordinator(GasSchedule schedule = {}, uint64_t round_timeout = 10,
                       size_t num_shards = 1, ModelId model_id = 0,
                       DurabilityOptions durability = {},
                       RecoveryStatus* recovery_status = nullptr);
  ~Coordinator();  // out-of-line: CoordinatorDurability is incomplete here

  size_t num_shards() const { return shards_.size(); }
  ModelId model_id() const { return model_id_; }
  // Owning shard of a claim (ids start at 1).
  size_t shard_of(ClaimId id) const {
    TAO_CHECK_GE(id, 1u);
    return static_cast<size_t>((id - 1) % shards_.size());
  }

  // --- logical clock ----------------------------------------------------------------
  // Each shard keeps its own clock: windows and deadlines of a claim are enforced
  // against the clock of the shard that owns it.
  uint64_t now() const { return shard_now(0); }
  uint64_t shard_now(size_t shard) const;
  // Advances EVERY shard's clock (the global view sequential drivers and tests use).
  void AdvanceTime(uint64_t ticks);
  // Advances only the clock of the shard owning `id`. Per-claim flows use this so
  // that time on one shard never pushes claims on another shard past their
  // deadlines; with one shard it is exactly AdvanceTime.
  void AdvanceTimeFor(ClaimId id, uint64_t ticks);

  // --- phase 1: optimistic execution --------------------------------------------------
  // `shard` homes the new claim (taken mod num_shards; callers running per-shard
  // resolve lanes pass their lane index, everyone else can ignore it).
  ClaimId SubmitCommitment(const Digest& c0, uint64_t challenge_window,
                           double proposer_bond, uint64_t shard = 0);
  // Finalizes iff the window elapsed with no challenge. Returns the new state.
  ClaimState TryFinalize(ClaimId id);

  // --- phase 2: dispute ----------------------------------------------------------------
  void OpenChallenge(ClaimId id, double challenger_bond);
  // Proposer posts one round's partition (children interface commitments); challenger
  // then posts the selected offending child. Both refresh the round deadline.
  void RecordPartition(ClaimId id, int64_t children, const std::vector<Digest>& child_hashes);
  void RecordSelection(ClaimId id, int64_t selected_child);
  // Meters an off-chain-verified Merkle inclusion proof batch.
  void RecordMerkleCheck(ClaimId id, int64_t proofs);
  // A party missed its deadline and forfeits (true = proposer timed out).
  void RecordTimeout(ClaimId id, bool proposer_timed_out);

  // --- phase 3: adjudication ------------------------------------------------------------
  void RecordLeafAdjudication(ClaimId id, bool proposer_guilty, double challenger_share);

  // Charges `gas` against one claim AND its shard's meter — the metered per-claim
  // path for costs arising outside the built-in transitions (the old
  // `mutable_gas()` escape hatch bypassed claim attribution and is gone).
  void ChargeClaimGas(ClaimId id, int64_t gas);

  // --- snapshots ------------------------------------------------------------------------
  // Value snapshot of one claim, copied under its shard's lock. (Reference-returning
  // accessors are gone: a reference into a shard's map is a dangling bug the moment
  // another thread touches the shard.)
  ClaimRecord claim(ClaimId id) const;
  // Gas charged against one claim so far (snapshot under the shard lock).
  int64_t claim_gas(ClaimId id) const;
  // Global ledger: fold of the per-shard ledgers in shard order. Each shard's
  // contribution is read under its lock; the cross-shard fold is not a linearizable
  // cut while flows are running (it is exact at quiescence, and always exact for
  // num_shards == 1).
  Balances balances() const;
  // One shard's ledger (copied under its lock).
  Balances shard_balances(size_t shard) const;
  // Global gas: fold of the per-shard accumulators (same caveat as balances()).
  GasTotals gas() const;
  int64_t shard_gas(size_t shard) const;
  // Ids of the claims homed to one shard, in submission order.
  std::vector<ClaimId> shard_claims(size_t shard) const;
  const GasSchedule& schedule() const { return schedule_; }

  // --- durability -------------------------------------------------------------------
  bool durable() const { return durability_ != nullptr; }
  // Zero when in-memory; recovery_replayed counts tail records applied at startup.
  DurabilityStats durability_stats() const;
  // What recovery found at construction (recovered=false for a fresh directory).
  const RecoveryInfo& recovery_info() const { return recovery_info_; }
  // Barrier: every action logged so far is on disk (fsynced unless policy kNever).
  void FlushDurability();

 private:
  // One independent slice of the state machine: its state plus the mutex every
  // access holds. `gas` is a plain counter because it is only ever touched under `mu`
  // (the old global meter had to be atomic). A snapshot encodes the state in place.
  struct Shard : ShardSnapshotState {
    mutable std::mutex mu;
  };

  Shard& shard_for(ClaimId id) { return *shards_[shard_of(id)]; }
  const Shard& shard_for(ClaimId id) const { return *shards_[shard_of(id)]; }
  // Callers must hold shard.mu. O(1): claims[(id - 1) / S].
  ClaimRecord& MutableClaim(Shard& shard, ClaimId id) const;
  const ClaimRecord& FindClaim(const Shard& shard, ClaimId id) const;
  void RecordLeafAdjudicationLocked(Shard& shard, ClaimId id, bool proposer_guilty,
                                    double challenger_share);

  // --- durability plumbing (coordinator.cc; all defined via coordinator_log.h) ----
  // Appends one action to shard `index`'s changelog and snapshots the shard when
  // due. Caller holds shard.mu — the lock is what orders the log. No-op (one
  // branch) when in-memory or replaying.
  void LogMutation(size_t index, Shard& shard, const CoordinatorAction& action);
  // Installs a decoded snapshot; kCorruptSnapshot unless its claim ids are exactly
  // shard `index`'s dense sequence of `submitted` ids.
  RecoveryStatus RestoreShard(size_t index, ShardSnapshotState&& state);
  // Re-applies one recovered action through the public transition methods
  // (replaying_ suppresses re-logging). Typed error on any divergence.
  RecoveryStatus ApplyLoggedAction(size_t index, const CoordinatorAction& action);
  RecoveryStatus InitDurability(DurabilityOptions options);

  GasSchedule schedule_;
  uint64_t round_timeout_;
  ModelId model_id_;
  // unique_ptr: Shard holds a mutex and must stay pinned in memory.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<CoordinatorDurability> durability_;
  // True only inside the single-threaded recovery replay in the constructor.
  bool replaying_ = false;
  RecoveryInfo recovery_info_;
};

}  // namespace tao

#endif  // TAO_SRC_PROTOCOL_COORDINATOR_H_
