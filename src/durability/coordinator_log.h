// Coordinator-action and shard-snapshot codecs + the per-coordinator durability
// facade (docs/durability.md).
//
// The changelog records ACTIONS, not resulting state: per docs/coordinator.md a
// shard's state is a bitwise function of its own mutation subsequence alone, so
// replaying the logged actions through the same public Coordinator methods (with
// logging suppressed) reproduces the uninterrupted run bit for bit — there is no
// second copy of the transition logic to drift. Snapshots are the complement: a
// direct bitwise image of one shard's state (doubles as IEEE-754 bit patterns)
// covering the log's first `base_record` records, so recovery is snapshot + tail.
//
// Both codecs are canonical: every accepted payload re-encodes to identical bytes,
// and every malformed payload is rejected (the decode fuzz test's contract).

#ifndef TAO_SRC_DURABILITY_COORDINATOR_LOG_H_
#define TAO_SRC_DURABILITY_COORDINATOR_LOG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/durability/changelog.h"
#include "src/durability/options.h"
#include "src/protocol/coordinator.h"

namespace tao {

// One logged coordinator mutation. Exactly the public mutation API of Coordinator;
// fields not used by a kind stay default and are not encoded.
struct CoordinatorAction {
  enum class Kind : uint32_t {
    kSubmit = 1,        // id (expected), c0, challenge_window, proposer_bond
    kTryFinalize = 2,   // id — logged only when the call transitioned the claim
    kOpenChallenge = 3, // id, challenger_bond
    kPartition = 4,     // id, children (hashes are not coordinator state)
    kSelection = 5,     // id, selected_child
    kMerkleCheck = 6,   // id, proofs
    kTimeout = 7,       // id, proposer_timed_out
    kLeafAdjudication = 8,  // id, proposer_guilty, challenger_share
    kChargeGas = 9,     // id, gas
    kAdvanceClock = 10, // ticks — this shard's clock only
  };

  Kind kind = Kind::kSubmit;
  ClaimId id = 0;
  Digest c0{};
  uint64_t challenge_window = 0;
  double proposer_bond = 0.0;
  double challenger_bond = 0.0;
  int64_t children = 0;
  int64_t selected_child = 0;
  int64_t proofs = 0;
  bool proposer_timed_out = false;
  bool proposer_guilty = false;
  double challenger_share = 0.0;
  int64_t gas = 0;
  uint64_t ticks = 0;
};

std::vector<uint8_t> EncodeAction(const CoordinatorAction& action);
// Strict decode: unknown kind, short/overlong payload, or non-canonical field
// values return false. Never reads out of bounds.
bool DecodeAction(std::span<const uint8_t> payload, CoordinatorAction& action);

// Bitwise image of one Coordinator shard (ShardSnapshotState, coordinator.h) as the
// snapshot payload. Encoding reads the live shard in place (the caller holds its lock)
// into one exactly sized buffer. Decoding does not check that claim ids are dense;
// Coordinator recovery does, with a typed error.
std::vector<uint8_t> EncodeShardSnapshot(const ShardSnapshotState& state);
bool DecodeShardSnapshot(std::span<const uint8_t> payload, ShardSnapshotState& state);

// Everything recovery learned from one shard's files, handed to the Coordinator
// constructor to rebuild state and to the writer to resume appending.
struct ShardDiskState {
  bool changelog_exists = false;
  bool has_snapshot = false;
  ShardSnapshotState snapshot;
  uint64_t snapshot_covered = 0;          // records the snapshot covers
  std::vector<CoordinatorAction> tail;    // decoded actions after the snapshot
  uint64_t log_records = 0;               // intact records in the changelog
  uint64_t valid_bytes = 0;               // intact changelog prefix (0 = fresh)
  uint64_t truncated_bytes = 0;           // torn-tail bytes recovery drops
};

// Reads + validates one shard's snapshot and changelog: headers must match this
// exact (shard, num_shards, model_id) triple, every record must decode, and the
// changelog must cover at least what the snapshot claims. Deletes a stale snapshot
// tmp (an uncommitted snapshot is garbage, never state). Typed error otherwise.
RecoveryStatus LoadShardDiskState(const DurabilityOptions& options, size_t shard,
                                  size_t num_shards, uint64_t model_id,
                                  ShardDiskState& out);

// Owns the changelog writer and the per-shard record counters for one coordinator.
// LogAction/Snapshot are called under the owning shard's lock — that lock is what
// orders a shard's log; the counters are per-shard slots so shards never contend.
class CoordinatorDurability {
 public:
  CoordinatorDurability(DurabilityOptions options, size_t num_shards,
                        uint64_t model_id);

  // Truncates torn tails, seeds record counters, starts the writer thread.
  RecoveryStatus Start(const std::vector<ShardDiskState>& disk);

  // Appends one action to `shard`'s log. Returns true when the shard is due a
  // snapshot (caller — still holding the shard lock — then calls Snapshot()).
  bool LogAction(size_t shard, const CoordinatorAction& action);
  void Snapshot(size_t shard, const ShardSnapshotState& state);

  void Flush() { writer_.Flush(); }
  DurabilityStats stats() const;
  void set_recovery_replayed(int64_t replayed) { recovery_replayed_ = replayed; }

 private:
  DurabilityOptions options_;
  ChangelogWriter writer_;
  std::vector<uint64_t> records_;  // per shard; guarded by that shard's lock
  int64_t recovery_replayed_ = 0;
};

}  // namespace tao

#endif  // TAO_SRC_DURABILITY_COORDINATOR_LOG_H_
