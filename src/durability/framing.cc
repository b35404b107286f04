#include "src/durability/framing.h"

#include <array>
#include <cstring>

namespace tao {
namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

uint32_t ReadU32At(std::span<const uint8_t> data, size_t offset) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(data[offset + static_cast<size_t>(i)]) << (8 * i);
  }
  return value;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (const uint8_t byte : data) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendU32Le(std::vector<uint8_t>& out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void AppendU64Le(std::vector<uint8_t>& out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void AppendI64Le(std::vector<uint8_t>& out, int64_t value) {
  AppendU64Le(out, static_cast<uint64_t>(value));
}

void AppendF64Le(std::vector<uint8_t>& out, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  AppendU64Le(out, bits);
}

bool ByteReader::ReadU32(uint32_t& value) {
  if (remaining() < 4) {
    return false;
  }
  value = ReadU32At(data_, offset_);
  offset_ += 4;
  return true;
}

bool ByteReader::ReadU64(uint64_t& value) {
  if (remaining() < 8) {
    return false;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[offset_ + static_cast<size_t>(i)]) << (8 * i);
  }
  value = v;
  offset_ += 8;
  return true;
}

bool ByteReader::ReadI64(int64_t& value) {
  uint64_t bits;
  if (!ReadU64(bits)) {
    return false;
  }
  value = static_cast<int64_t>(bits);
  return true;
}

bool ByteReader::ReadF64(double& value) {
  uint64_t bits;
  if (!ReadU64(bits)) {
    return false;
  }
  std::memcpy(&value, &bits, sizeof(value));
  return true;
}

bool ByteReader::ReadBytes(std::span<uint8_t> out) {
  if (remaining() < out.size()) {
    return false;
  }
  std::memcpy(out.data(), data_.data() + offset_, out.size());
  offset_ += out.size();
  return true;
}

void AppendFrameHeader(std::vector<uint8_t>& out, std::span<const uint8_t> payload) {
  const auto length = static_cast<uint32_t>(payload.size());
  AppendU32Le(out, length);
  AppendU32Le(out, length ^ kLengthCheckXor);
  AppendU32Le(out, Crc32(payload));
}

void AppendFrame(std::vector<uint8_t>& out, std::span<const uint8_t> payload) {
  AppendFrameHeader(out, payload);
  out.insert(out.end(), payload.begin(), payload.end());
}

FrameStatus DecodeFrame(std::span<const uint8_t> data, size_t& offset,
                        std::span<const uint8_t>& payload) {
  if (offset == data.size()) {
    return FrameStatus::kEnd;
  }
  if (data.size() - offset < kFrameHeaderBytes) {
    return FrameStatus::kTorn;  // partial header: byte-prefix of an append
  }
  const uint32_t length = ReadU32At(data, offset);
  const uint32_t length_check = ReadU32At(data, offset + 4);
  if ((length ^ kLengthCheckXor) != length_check || length > kMaxRecordPayloadBytes) {
    // A torn append preserves the byte-prefix of the frame, so a complete header
    // with an inconsistent length can only come from in-place corruption.
    return FrameStatus::kCorrupt;
  }
  if (data.size() - offset - kFrameHeaderBytes < length) {
    return FrameStatus::kTorn;  // payload cut short at EOF
  }
  const uint32_t crc = ReadU32At(data, offset + 8);
  const std::span<const uint8_t> body = data.subspan(offset + kFrameHeaderBytes, length);
  if (Crc32(body) != crc) {
    return FrameStatus::kCorrupt;
  }
  payload = body;
  offset += kFrameHeaderBytes + length;
  return FrameStatus::kOk;
}

void AppendFileHeader(std::vector<uint8_t>& out, const char magic[8],
                      const FileHeader& header) {
  const size_t start = out.size();
  out.insert(out.end(), magic, magic + 8);
  AppendU32Le(out, 1);  // version
  AppendU64Le(out, header.shard);
  AppendU64Le(out, header.num_shards);
  AppendU64Le(out, header.model_id);
  AppendU64Le(out, header.base_record);
  const std::span<const uint8_t> covered(out.data() + start + 8,
                                         kFileHeaderBytes - 8 - 4);
  AppendU32Le(out, Crc32(covered));
}

RecoveryCode DecodeFileHeader(std::span<const uint8_t> data, const char magic[8],
                              FileHeader& header, bool& torn) {
  torn = false;
  if (data.size() < kFileHeaderBytes) {
    torn = true;
    return RecoveryCode::kOk;
  }
  if (std::memcmp(data.data(), magic, 8) != 0) {
    return RecoveryCode::kBadHeader;
  }
  const std::span<const uint8_t> covered(data.data() + 8, kFileHeaderBytes - 8 - 4);
  if (Crc32(covered) != ReadU32At(data, kFileHeaderBytes - 4)) {
    return RecoveryCode::kBadHeader;
  }
  ByteReader reader(data.subspan(8));
  uint32_t version = 0;
  reader.ReadU32(version);
  if (version != 1) {
    return RecoveryCode::kBadHeader;
  }
  reader.ReadU64(header.shard);
  reader.ReadU64(header.num_shards);
  reader.ReadU64(header.model_id);
  reader.ReadU64(header.base_record);
  return RecoveryCode::kOk;
}

}  // namespace tao
