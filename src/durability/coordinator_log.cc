#include "src/durability/coordinator_log.h"

#include <filesystem>
#include <string>
#include <utility>

namespace tao {
namespace {

void AppendBool(std::vector<uint8_t>& out, bool value) {
  AppendU32Le(out, value ? 1u : 0u);
}

// Canonical bool: only 0/1 decode (anything else would re-encode differently).
bool ReadBool(ByteReader& reader, bool& value) {
  uint32_t raw = 0;
  if (!reader.ReadU32(raw) || raw > 1) {
    return false;
  }
  value = raw == 1;
  return true;
}

void AppendDigest(std::vector<uint8_t>& out, const Digest& digest) {
  out.insert(out.end(), digest.begin(), digest.end());
}

bool ReadDigest(ByteReader& reader, Digest& digest) {
  return reader.ReadBytes(std::span<uint8_t>(digest.data(), digest.size()));
}

// Encoded size of a snapshot's shard scalars: now, submitted, three balances, gas and
// the claim count.
constexpr size_t kShardScalarBytes = 7 * 8;
// Encoded size of one ClaimRecord in a snapshot (sanity bound for claim counts).
constexpr size_t kClaimRecordBytes = 8 + 8 + 32 + 8 + 8 + 4 + 8 + 8 + 8 + 8 + 8 + 8;

void AppendClaimRecord(std::vector<uint8_t>& out, const ClaimRecord& claim) {
  AppendU64Le(out, claim.id);
  AppendU64Le(out, claim.model);
  AppendDigest(out, claim.c0);
  AppendU64Le(out, claim.committed_at);
  AppendU64Le(out, claim.challenge_window);
  AppendU32Le(out, static_cast<uint32_t>(claim.state));
  AppendF64Le(out, claim.proposer_bond);
  AppendF64Le(out, claim.challenger_bond);
  AppendI64Le(out, claim.dispute_round);
  AppendU64Le(out, claim.round_deadline);
  AppendI64Le(out, claim.merkle_checks);
  AppendI64Le(out, claim.gas);
}

bool ReadClaimRecord(ByteReader& reader, ClaimRecord& claim) {
  uint32_t state = 0;
  if (!reader.ReadU64(claim.id) || !reader.ReadU64(claim.model) ||
      !ReadDigest(reader, claim.c0) || !reader.ReadU64(claim.committed_at) ||
      !reader.ReadU64(claim.challenge_window) || !reader.ReadU32(state) ||
      !reader.ReadF64(claim.proposer_bond) || !reader.ReadF64(claim.challenger_bond) ||
      !reader.ReadI64(claim.dispute_round) || !reader.ReadU64(claim.round_deadline) ||
      !reader.ReadI64(claim.merkle_checks) || !reader.ReadI64(claim.gas)) {
    return false;
  }
  if (state > static_cast<uint32_t>(ClaimState::kChallengerSlashed)) {
    return false;
  }
  claim.state = static_cast<ClaimState>(state);
  return true;
}

}  // namespace

std::vector<uint8_t> EncodeAction(const CoordinatorAction& action) {
  std::vector<uint8_t> out;
  AppendU32Le(out, static_cast<uint32_t>(action.kind));
  switch (action.kind) {
    case CoordinatorAction::Kind::kSubmit:
      AppendU64Le(out, action.id);
      AppendDigest(out, action.c0);
      AppendU64Le(out, action.challenge_window);
      AppendF64Le(out, action.proposer_bond);
      break;
    case CoordinatorAction::Kind::kTryFinalize:
      AppendU64Le(out, action.id);
      break;
    case CoordinatorAction::Kind::kOpenChallenge:
      AppendU64Le(out, action.id);
      AppendF64Le(out, action.challenger_bond);
      break;
    case CoordinatorAction::Kind::kPartition:
      AppendU64Le(out, action.id);
      AppendI64Le(out, action.children);
      break;
    case CoordinatorAction::Kind::kSelection:
      AppendU64Le(out, action.id);
      AppendI64Le(out, action.selected_child);
      break;
    case CoordinatorAction::Kind::kMerkleCheck:
      AppendU64Le(out, action.id);
      AppendI64Le(out, action.proofs);
      break;
    case CoordinatorAction::Kind::kTimeout:
      AppendU64Le(out, action.id);
      AppendBool(out, action.proposer_timed_out);
      break;
    case CoordinatorAction::Kind::kLeafAdjudication:
      AppendU64Le(out, action.id);
      AppendBool(out, action.proposer_guilty);
      AppendF64Le(out, action.challenger_share);
      break;
    case CoordinatorAction::Kind::kChargeGas:
      AppendU64Le(out, action.id);
      AppendI64Le(out, action.gas);
      break;
    case CoordinatorAction::Kind::kAdvanceClock:
      AppendU64Le(out, action.ticks);
      break;
  }
  return out;
}

bool DecodeAction(std::span<const uint8_t> payload, CoordinatorAction& action) {
  ByteReader reader(payload);
  uint32_t kind = 0;
  if (!reader.ReadU32(kind) || kind < 1 ||
      kind > static_cast<uint32_t>(CoordinatorAction::Kind::kAdvanceClock)) {
    return false;
  }
  action = CoordinatorAction{};
  action.kind = static_cast<CoordinatorAction::Kind>(kind);
  bool ok = false;
  switch (action.kind) {
    case CoordinatorAction::Kind::kSubmit:
      ok = reader.ReadU64(action.id) && ReadDigest(reader, action.c0) &&
           reader.ReadU64(action.challenge_window) &&
           reader.ReadF64(action.proposer_bond);
      break;
    case CoordinatorAction::Kind::kTryFinalize:
      ok = reader.ReadU64(action.id);
      break;
    case CoordinatorAction::Kind::kOpenChallenge:
      ok = reader.ReadU64(action.id) && reader.ReadF64(action.challenger_bond);
      break;
    case CoordinatorAction::Kind::kPartition:
      ok = reader.ReadU64(action.id) && reader.ReadI64(action.children);
      break;
    case CoordinatorAction::Kind::kSelection:
      ok = reader.ReadU64(action.id) && reader.ReadI64(action.selected_child);
      break;
    case CoordinatorAction::Kind::kMerkleCheck:
      ok = reader.ReadU64(action.id) && reader.ReadI64(action.proofs);
      break;
    case CoordinatorAction::Kind::kTimeout:
      ok = reader.ReadU64(action.id) && ReadBool(reader, action.proposer_timed_out);
      break;
    case CoordinatorAction::Kind::kLeafAdjudication:
      ok = reader.ReadU64(action.id) && ReadBool(reader, action.proposer_guilty) &&
           reader.ReadF64(action.challenger_share);
      break;
    case CoordinatorAction::Kind::kChargeGas:
      ok = reader.ReadU64(action.id) && reader.ReadI64(action.gas);
      break;
    case CoordinatorAction::Kind::kAdvanceClock:
      ok = reader.ReadU64(action.ticks);
      break;
  }
  // Exact length: trailing bytes would be silently dropped state.
  return ok && reader.exhausted();
}

std::vector<uint8_t> EncodeShardSnapshot(const ShardSnapshotState& state) {
  std::vector<uint8_t> out;
  out.reserve(kShardScalarBytes + state.claims.size() * kClaimRecordBytes);
  AppendU64Le(out, state.now);
  AppendU64Le(out, state.submitted);
  AppendF64Le(out, state.balances.proposer);
  AppendF64Le(out, state.balances.challenger);
  AppendF64Le(out, state.balances.treasury);
  AppendI64Le(out, state.gas);
  AppendU64Le(out, static_cast<uint64_t>(state.claims.size()));
  for (const ClaimRecord& claim : state.claims) {
    AppendClaimRecord(out, claim);
  }
  return out;
}

bool DecodeShardSnapshot(std::span<const uint8_t> payload, ShardSnapshotState& state) {
  ByteReader reader(payload);
  state = ShardSnapshotState{};
  uint64_t claim_count = 0;
  if (!reader.ReadU64(state.now) || !reader.ReadU64(state.submitted) ||
      !reader.ReadF64(state.balances.proposer) ||
      !reader.ReadF64(state.balances.challenger) ||
      !reader.ReadF64(state.balances.treasury) || !reader.ReadI64(state.gas) ||
      !reader.ReadU64(claim_count)) {
    return false;
  }
  // Bound the count by the bytes actually present before allocating.
  if (claim_count > reader.remaining() / kClaimRecordBytes) {
    return false;
  }
  state.claims.resize(static_cast<size_t>(claim_count));
  for (ClaimRecord& claim : state.claims) {
    if (!ReadClaimRecord(reader, claim)) {
      return false;
    }
  }
  return reader.exhausted();
}

RecoveryStatus LoadShardDiskState(const DurabilityOptions& options, size_t shard,
                                  size_t num_shards, uint64_t model_id,
                                  ShardDiskState& out) {
  out = ShardDiskState{};
  // An uncommitted snapshot tmp is garbage from an interrupted snapshot write —
  // never state. Delete it so it can't shadow a future rename.
  std::error_code ec;
  std::filesystem::remove(SnapshotTmpPath(options.directory, shard), ec);

  const auto check_header = [&](const FileHeader& header,
                                const std::string& path) -> RecoveryStatus {
    if (header.shard != shard || header.num_shards != num_shards ||
        header.model_id != model_id) {
      return {RecoveryCode::kShardMismatch,
              path + " was written for shard " + std::to_string(header.shard) + "/" +
                  std::to_string(header.num_shards) + " model " +
                  std::to_string(header.model_id) + ", expected " +
                  std::to_string(shard) + "/" + std::to_string(num_shards) +
                  " model " + std::to_string(model_id)};
    }
    return {};
  };

  const std::string snap_path = SnapshotPath(options.directory, shard);
  FileHeader snap_header;
  std::vector<uint8_t> snap_payload;
  bool snap_exists = false;
  if (RecoveryStatus status = ReadSnapshotFile(snap_path, kSnapshotMagic, snap_header,
                                               snap_payload, snap_exists);
      !status.ok()) {
    return status;
  }
  if (snap_exists) {
    if (RecoveryStatus status = check_header(snap_header, snap_path); !status.ok()) {
      return status;
    }
    if (!DecodeShardSnapshot(std::span<const uint8_t>(snap_payload), out.snapshot)) {
      return {RecoveryCode::kCorruptSnapshot, "undecodable snapshot state: " + snap_path};
    }
    out.has_snapshot = true;
    out.snapshot_covered = snap_header.base_record;
  }

  const std::string log_path = ChangelogPath(options.directory, shard);
  ChangelogContents log;
  if (RecoveryStatus status =
          ReadChangelogFile(log_path, kChangelogMagic, log, out.changelog_exists);
      !status.ok()) {
    return status;
  }
  if (out.changelog_exists && log.valid_bytes >= kFileHeaderBytes) {
    if (RecoveryStatus status = check_header(log.header, log_path); !status.ok()) {
      return status;
    }
  }
  out.log_records = log.records.size();
  out.valid_bytes = log.valid_bytes;
  out.truncated_bytes = log.truncated_bytes;

  if (out.log_records < out.snapshot_covered) {
    return {RecoveryCode::kLogGap,
            log_path + " holds " + std::to_string(out.log_records) +
                " records but the snapshot covers " +
                std::to_string(out.snapshot_covered)};
  }
  out.tail.reserve(out.log_records - out.snapshot_covered);
  for (size_t i = static_cast<size_t>(out.snapshot_covered); i < log.records.size();
       ++i) {
    CoordinatorAction action;
    if (!DecodeAction(std::span<const uint8_t>(log.records[i]), action)) {
      return {RecoveryCode::kCorruptRecord,
              "undecodable action record " + std::to_string(i) + " in " + log_path};
    }
    out.tail.push_back(action);
  }
  // Validate the covered prefix too: corruption anywhere must be loud.
  for (size_t i = 0; i < static_cast<size_t>(out.snapshot_covered); ++i) {
    CoordinatorAction action;
    if (!DecodeAction(std::span<const uint8_t>(log.records[i]), action)) {
      return {RecoveryCode::kCorruptRecord,
              "undecodable action record " + std::to_string(i) + " in " + log_path};
    }
  }
  return {};
}

CoordinatorDurability::CoordinatorDurability(DurabilityOptions options,
                                             size_t num_shards, uint64_t model_id)
    : options_(options),
      writer_(std::move(options), num_shards, model_id),
      records_(num_shards, 0) {}

RecoveryStatus CoordinatorDurability::Start(const std::vector<ShardDiskState>& disk) {
  std::vector<uint64_t> valid_bytes(disk.size(), 0);
  for (size_t s = 0; s < disk.size(); ++s) {
    valid_bytes[s] = disk[s].valid_bytes;
    records_[s] = disk[s].log_records;
  }
  return writer_.Start(valid_bytes);
}

bool CoordinatorDurability::LogAction(size_t shard, const CoordinatorAction& action) {
  writer_.Append(shard, EncodeAction(action));
  ++records_[shard];
  return options_.snapshot_interval_records > 0 &&
         records_[shard] % options_.snapshot_interval_records == 0;
}

void CoordinatorDurability::Snapshot(size_t shard, const ShardSnapshotState& state) {
  writer_.WriteSnapshot(shard, EncodeShardSnapshot(state), records_[shard]);
}

DurabilityStats CoordinatorDurability::stats() const {
  DurabilityStats stats = writer_.stats();
  stats.recovery_replayed = recovery_replayed_;
  return stats;
}

}  // namespace tao
