#include "src/durability/changelog.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

namespace tao {
namespace {

bool WriteFully(int fd, const uint8_t* data, size_t size) {
  while (size > 0) {
    const ssize_t wrote = ::write(fd, data, size);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += wrote;
    size -= static_cast<size_t>(wrote);
  }
  return true;
}

RecoveryStatus IoError(const std::string& what, const std::string& path) {
  return {RecoveryCode::kIoError, what + " " + path + ": " + std::strerror(errno)};
}

// Reads a whole file. Returns kOk with exists=false on ENOENT.
RecoveryStatus ReadWholeFile(const std::string& path, std::vector<uint8_t>& data,
                             bool& exists) {
  exists = false;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return {};
    }
    return IoError("open", path);
  }
  exists = true;
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const RecoveryStatus status = IoError("stat", path);
    ::close(fd);
    return status;
  }
  data.resize(static_cast<size_t>(st.st_size));
  size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t got = ::read(fd, data.data() + offset, data.size() - offset);
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      const RecoveryStatus status = IoError("read", path);
      ::close(fd);
      return status;
    }
    if (got == 0) {
      data.resize(offset);  // raced a concurrent truncate; keep what we got
      break;
    }
    offset += static_cast<size_t>(got);
  }
  ::close(fd);
  return {};
}

void FsyncDirectoryOf(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kGroupCommit:
      return "group_commit";
    case FsyncPolicy::kEveryFlush:
      return "every_flush";
  }
  return "unknown";
}

const char* CrashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kPreFlush:
      return "pre_flush";
    case CrashPoint::kMidRecord:
      return "mid_record";
    case CrashPoint::kPostSnapshotTmp:
      return "post_snapshot_tmp";
    case CrashPoint::kPreRename:
      return "pre_rename";
  }
  return "unknown";
}

const char* RecoveryCodeName(RecoveryCode code) {
  switch (code) {
    case RecoveryCode::kOk:
      return "ok";
    case RecoveryCode::kBadHeader:
      return "bad_header";
    case RecoveryCode::kShardMismatch:
      return "shard_mismatch";
    case RecoveryCode::kCorruptRecord:
      return "corrupt_record";
    case RecoveryCode::kCorruptSnapshot:
      return "corrupt_snapshot";
    case RecoveryCode::kLogGap:
      return "log_gap";
    case RecoveryCode::kIoError:
      return "io_error";
  }
  return "unknown";
}

std::string ChangelogPath(const std::string& directory, size_t shard) {
  return directory + "/shard-" + std::to_string(shard) + ".log";
}

std::string SnapshotPath(const std::string& directory, size_t shard) {
  return directory + "/shard-" + std::to_string(shard) + ".snap";
}

std::string SnapshotTmpPath(const std::string& directory, size_t shard) {
  return SnapshotPath(directory, shard) + ".tmp";
}

RecoveryStatus ReadChangelogFile(const std::string& path, const char magic[8],
                                 ChangelogContents& out, bool& exists) {
  out = ChangelogContents{};
  std::vector<uint8_t> data;
  if (RecoveryStatus status = ReadWholeFile(path, data, exists); !status.ok()) {
    return status;
  }
  if (!exists) {
    return {};
  }
  bool torn = false;
  const RecoveryCode header_code =
      DecodeFileHeader(std::span<const uint8_t>(data), magic, out.header, torn);
  if (torn) {
    // The creating write itself was cut short: an empty log whose whole content is
    // a torn tail.
    out.torn_tail = true;
    out.truncated_bytes = data.size();
    return {};
  }
  if (header_code != RecoveryCode::kOk) {
    return {header_code, "bad changelog header: " + path};
  }
  size_t offset = kFileHeaderBytes;
  for (;;) {
    std::span<const uint8_t> payload;
    const FrameStatus status = DecodeFrame(std::span<const uint8_t>(data), offset, payload);
    if (status == FrameStatus::kOk) {
      out.records.emplace_back(payload.begin(), payload.end());
      continue;
    }
    if (status == FrameStatus::kEnd) {
      break;
    }
    if (status == FrameStatus::kTorn) {
      out.torn_tail = true;
      out.truncated_bytes = data.size() - offset;
      break;
    }
    return {RecoveryCode::kCorruptRecord,
            "corrupt changelog record " + std::to_string(out.records.size()) + " in " +
                path};
  }
  out.valid_bytes = offset;
  return {};
}

RecoveryStatus ReadSnapshotFile(const std::string& path, const char magic[8],
                                FileHeader& header, std::vector<uint8_t>& payload,
                                bool& exists) {
  std::vector<uint8_t> data;
  if (RecoveryStatus status = ReadWholeFile(path, data, exists); !status.ok()) {
    return status;
  }
  if (!exists) {
    return {};
  }
  bool torn = false;
  const RecoveryCode header_code =
      DecodeFileHeader(std::span<const uint8_t>(data), magic, header, torn);
  if (torn || header_code != RecoveryCode::kOk) {
    return {RecoveryCode::kCorruptSnapshot, "bad snapshot header: " + path};
  }
  size_t offset = kFileHeaderBytes;
  std::span<const uint8_t> body;
  if (DecodeFrame(std::span<const uint8_t>(data), offset, body) != FrameStatus::kOk ||
      offset != data.size()) {
    return {RecoveryCode::kCorruptSnapshot, "corrupt snapshot body: " + path};
  }
  payload.assign(body.begin(), body.end());
  return {};
}

ChangelogWriter::ChangelogWriter(DurabilityOptions options, size_t num_shards,
                                 uint64_t model_id)
    : options_(std::move(options)),
      num_shards_(num_shards),
      model_id_(model_id),
      fds_(num_shards, -1),
      last_fsync_(num_shards),
      dirty_(num_shards, false) {}

ChangelogWriter::~ChangelogWriter() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  for (const int fd : fds_) {
    if (fd >= 0) {
      if (!dead() && options_.fsync != FsyncPolicy::kNever) {
        ::fsync(fd);
      }
      ::close(fd);
    }
  }
}

RecoveryStatus ChangelogWriter::Start(const std::vector<uint64_t>& valid_bytes) {
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    return {RecoveryCode::kIoError,
            "create_directories " + options_.directory + ": " + ec.message()};
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    const std::string path = ChangelogPath(options_.directory, s);
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) {
      return IoError("open", path);
    }
    const uint64_t keep = valid_bytes[s];
    if (keep < kFileHeaderBytes) {
      // Fresh shard (or a log whose very creation was torn): start over.
      if (::ftruncate(fd, 0) != 0) {
        ::close(fd);
        return IoError("truncate", path);
      }
      std::vector<uint8_t> header_bytes;
      FileHeader header;
      header.shard = s;
      header.num_shards = num_shards_;
      header.model_id = model_id_;
      header.base_record = 0;
      AppendFileHeader(header_bytes, kChangelogMagic, header);
      if (!WriteFully(fd, header_bytes.data(), header_bytes.size())) {
        ::close(fd);
        return IoError("write header", path);
      }
      ::fsync(fd);
    } else {
      // Drop the torn tail (if any) and resume appending after the intact prefix.
      if (::ftruncate(fd, static_cast<off_t>(keep)) != 0 ||
          ::lseek(fd, 0, SEEK_END) < 0) {
        ::close(fd);
        return IoError("truncate", path);
      }
    }
    fds_[s] = fd;
    last_fsync_[s] = std::chrono::steady_clock::now();
  }
  thread_ = std::thread(&ChangelogWriter::Run, this);
  return {};
}

void ChangelogWriter::Append(size_t shard, std::span<const uint8_t> payload) {
  if (dead()) {
    return;
  }
  Item item;
  item.kind = Item::Kind::kRecord;
  item.shard = shard;
  AppendFrame(item.bytes, payload);
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  bytes_appended_.fetch_add(static_cast<int64_t>(item.bytes.size()),
                            std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(item));
  }
  cv_.notify_one();
}

void ChangelogWriter::WriteSnapshot(size_t shard, std::vector<uint8_t> payload,
                                    uint64_t covered) {
  if (dead()) {
    return;
  }
  Item item;
  item.kind = Item::Kind::kSnapshot;
  item.shard = shard;
  item.bytes = std::move(payload);
  item.covered = covered;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(item));
  }
  cv_.notify_one();
}

void ChangelogWriter::Flush() {
  if (!thread_.joinable() || dead()) {
    return;
  }
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Item item;
    item.kind = Item::Kind::kBarrier;
    item.barrier_id = id = next_barrier_++;
    queue_.push_back(std::move(item));
  }
  cv_.notify_one();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return completed_barrier_ >= id; });
}

DurabilityStats ChangelogWriter::stats() const {
  DurabilityStats stats;
  stats.records_appended = records_appended_.load(std::memory_order_relaxed);
  stats.bytes_appended = bytes_appended_.load(std::memory_order_relaxed);
  stats.flushes = flushes_.load(std::memory_order_relaxed);
  stats.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  stats.snapshots_written = snapshots_written_.load(std::memory_order_relaxed);
  stats.flush_ns_total = flush_ns_.load(std::memory_order_relaxed);
  stats.fsync_ns_total = fsync_ns_.load(std::memory_order_relaxed);
  return stats;
}

bool ChangelogWriter::Crash(CrashPoint point, size_t shard) {
  if (options_.crash_hook && options_.crash_hook(point, shard)) {
    dead_.store(true, std::memory_order_release);
    return true;
  }
  return false;
}

void ChangelogWriter::MaybeFsync(size_t shard) {
  if (!dirty_[shard]) {
    return;
  }
  switch (options_.fsync) {
    case FsyncPolicy::kNever:
      return;
    case FsyncPolicy::kEveryFlush:
      break;
    case FsyncPolicy::kGroupCommit: {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_fsync_[shard] <
          std::chrono::milliseconds(options_.group_commit_interval_ms)) {
        return;
      }
      break;
    }
  }
  const auto fsync_begin = std::chrono::steady_clock::now();
  ::fsync(fds_[shard]);
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  last_fsync_[shard] = std::chrono::steady_clock::now();
  fsync_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          last_fsync_[shard] - fsync_begin)
                          .count(),
                      std::memory_order_relaxed);
  dirty_[shard] = false;
}

bool ChangelogWriter::WriteBatch(size_t shard, std::vector<Item>& items) {
  if (Crash(CrashPoint::kPreFlush, shard)) {
    return false;
  }
  std::vector<uint8_t> buffer;
  for (const Item& item : items) {
    if (Crash(CrashPoint::kMidRecord, shard)) {
      // Model a crash mid-append: the preceding complete frames plus a strict
      // byte-prefix of this one reach the file; nothing after does.
      const size_t partial = item.bytes.size() / 2;
      buffer.insert(buffer.end(), item.bytes.begin(),
                    item.bytes.begin() + static_cast<ptrdiff_t>(partial));
      WriteFully(fds_[shard], buffer.data(), buffer.size());
      return false;
    }
    buffer.insert(buffer.end(), item.bytes.begin(), item.bytes.end());
  }
  if (!buffer.empty()) {
    const auto flush_begin = std::chrono::steady_clock::now();
    WriteFully(fds_[shard], buffer.data(), buffer.size());
    flush_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - flush_begin)
                            .count(),
                        std::memory_order_relaxed);
    flushes_.fetch_add(1, std::memory_order_relaxed);
    dirty_[shard] = true;
    MaybeFsync(shard);
  }
  return true;
}

bool ChangelogWriter::WriteSnapshotFile(const Item& item) {
  const std::string tmp = SnapshotTmpPath(options_.directory, item.shard);
  const std::string final_path = SnapshotPath(options_.directory, item.shard);
  // File header and frame header, then the payload straight from the queued item:
  // the same bytes as one framed buffer, without a second copy of the payload.
  std::vector<uint8_t> headers;
  FileHeader header;
  header.shard = item.shard;
  header.num_shards = num_shards_;
  header.model_id = model_id_;
  header.base_record = item.covered;
  AppendFileHeader(headers, kSnapshotMagic, header);
  AppendFrameHeader(headers, item.bytes);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return true;  // snapshot failure never takes down serving; log stays authoritative
  }
  const bool wrote = WriteFully(fd, headers.data(), headers.size()) &&
                     WriteFully(fd, item.bytes.data(), item.bytes.size());
  if (Crash(CrashPoint::kPostSnapshotTmp, item.shard)) {
    ::close(fd);  // tmp written but never fsynced or renamed: the stale-tmp shape
    return false;
  }
  ::fsync(fd);
  ::close(fd);
  if (!wrote) {
    return true;
  }
  if (Crash(CrashPoint::kPreRename, item.shard)) {
    return false;  // tmp durable but the commit point (rename) never happened
  }
  if (::rename(tmp.c_str(), final_path.c_str()) == 0) {
    FsyncDirectoryOf(final_path);
    snapshots_written_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void ChangelogWriter::Run() {
  std::deque<Item> local;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty() && stopping_) {
        return;
      }
      std::swap(local, queue_);
    }
    // Process in queue order, batching consecutive records per shard so one
    // write(2) covers a burst. Order within a shard is preserved — that is the
    // durability contract; cross-shard order is immaterial (separate files).
    std::vector<std::vector<Item>> batches(num_shards_);
    std::vector<size_t> batch_order;  // shards with a pending batch, first-seen order
    const auto flush_batches = [&]() {
      for (const size_t shard : batch_order) {
        if (!dead()) {
          WriteBatch(shard, batches[shard]);
        }
        batches[shard].clear();
      }
      batch_order.clear();
    };
    while (!local.empty()) {
      Item item = std::move(local.front());
      local.pop_front();
      switch (item.kind) {
        case Item::Kind::kRecord:
          if (!dead()) {
            if (batches[item.shard].empty()) {
              batch_order.push_back(item.shard);
            }
            batches[item.shard].push_back(std::move(item));
          }
          break;
        case Item::Kind::kSnapshot:
          flush_batches();
          if (!dead()) {
            WriteSnapshotFile(item);
          }
          break;
        case Item::Kind::kBarrier: {
          flush_batches();
          if (!dead() && options_.fsync != FsyncPolicy::kNever) {
            for (size_t s = 0; s < num_shards_; ++s) {
              if (dirty_[s]) {
                const auto fsync_begin = std::chrono::steady_clock::now();
                ::fsync(fds_[s]);
                fsyncs_.fetch_add(1, std::memory_order_relaxed);
                fsync_ns_.fetch_add(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - fsync_begin)
                        .count(),
                    std::memory_order_relaxed);
                dirty_[s] = false;
              }
            }
          }
          std::lock_guard<std::mutex> lock(mu_);
          completed_barrier_ = item.barrier_id;
          done_cv_.notify_all();
          break;
        }
      }
    }
    flush_batches();
  }
}

}  // namespace tao
