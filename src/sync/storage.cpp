#include "sync/storage.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <string_view>
#include <vector>

#include "util/crc32.h"
#include "util/serialize.h"

namespace blockdag::sync {

namespace {

constexpr char kCheckpointMagic[4] = {'B', 'D', 'C', 'K'};

std::string ckpt_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/checkpoint-" + std::to_string(epoch) + ".ckpt";
}

std::string log_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/blocks-" + std::to_string(epoch) + ".log";
}

// Epochs of the files in `dir` named `<prefix><epoch><suffix>`, ascending.
std::vector<std::uint64_t> list_epochs(const std::string& dir,
                                       std::string_view prefix,
                                       std::string_view suffix) {
  std::vector<std::uint64_t> epochs;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return epochs;
  while (const ::dirent* entry = ::readdir(d)) {
    const std::string_view name = entry->d_name;
    if (name.size() <= prefix.size() + suffix.size() ||
        !name.starts_with(prefix) || !name.ends_with(suffix)) {
      continue;
    }
    const std::string_view digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    std::uint64_t epoch = 0;
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), epoch);
    if (ec == std::errc() && end == digits.data() + digits.size()) {
      epochs.push_back(epoch);
    }
  }
  ::closedir(d);
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

bool read_file(const std::string& path, Bytes& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return !in.bad();
}

// write-tmp → fsync(file) → rename → fsync(dir): the rename is atomic, so
// a kill at any point leaves either no file or a complete one.
bool write_file_durably(const std::string& dir, const std::string& path,
                        const Bytes& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace

Bytes encode_checkpoint_file(const Bytes& signed_checkpoint) {
  Writer w;
  w.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kCheckpointMagic), 4));
  w.u8(kStorageVersion);
  w.u32(crc32(signed_checkpoint));
  w.bytes(signed_checkpoint);
  return std::move(w).take();
}

std::optional<Bytes> decode_checkpoint_file(const Bytes& file) {
  Reader r(file);
  const auto magic = r.raw(4);
  if (!magic || std::memcmp(magic->data(), kCheckpointMagic, 4) != 0) {
    return std::nullopt;
  }
  const auto version = r.u8();
  if (!version || *version != kStorageVersion) return std::nullopt;
  const auto crc = r.u32();
  auto payload = r.bytes();
  if (!crc || !payload || !r.done()) return std::nullopt;
  if (crc32(*payload) != *crc) return std::nullopt;
  return payload;
}

Bytes encode_log_record(LogKind kind, const Bytes& payload) {
  // u32 length | u8 version | u8 kind | u32 crc | payload. The length
  // covers everything after itself, so one read tells a replayer whether
  // the record is complete (torn-tail detection before the CRC check).
  Writer w;
  w.u32(static_cast<std::uint32_t>(1 + 1 + 4 + payload.size()));
  w.u8(kStorageVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(crc32(payload));
  w.raw(payload);
  return std::move(w).take();
}

std::vector<LogRecord> decode_log(const Bytes& file) {
  std::size_t valid_prefix = 0;
  return decode_log(file, valid_prefix);
}

std::vector<LogRecord> decode_log(const Bytes& file,
                                  std::size_t& valid_prefix) {
  std::vector<LogRecord> out;
  valid_prefix = 0;
  Reader r(file);
  while (r.remaining() > 0) {
    const auto len = r.u32();
    if (!len || *len < 6 || *len > r.remaining()) break;  // torn tail
    const auto version = r.u8();
    const auto kind = r.u8();
    const auto crc = r.u32();
    auto payload = r.raw(*len - 6);
    if (!version || !kind || !crc || !payload) break;
    if (*version != kStorageVersion) break;
    if (*kind != static_cast<std::uint8_t>(LogKind::kOwnBlock) &&
        *kind != static_cast<std::uint8_t>(LogKind::kRecvBlock)) {
      break;
    }
    if (crc32(*payload) != *crc) break;  // torn or corrupt: stop replaying
    out.push_back(LogRecord{static_cast<LogKind>(*kind), std::move(*payload)});
    valid_prefix = file.size() - r.remaining();
  }
  return out;
}

DataDir::DataDir(std::string dir, DataDirConfig config)
    : dir_(std::move(dir)), config_(config) {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) return;
  ok_ = true;
}

DataDir::~DataDir() {
  if (log_fd_ >= 0) ::close(log_fd_);
}

bool DataDir::open_log(std::uint64_t epoch, bool truncate) {
  if (log_fd_ >= 0) {
    ::close(log_fd_);
    log_fd_ = -1;
  }
  const int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : O_APPEND);
  log_fd_ = ::open(log_path(dir_, epoch).c_str(), flags, 0644);
  if (log_fd_ < 0) return false;
  epoch_ = epoch;
  return true;
}

bool DataDir::store_checkpoint(std::uint64_t epoch, const Bytes& bytes) {
  if (!ok_) return false;
  if (!write_file_durably(dir_, ckpt_path(dir_, epoch),
                          encode_checkpoint_file(bytes))) {
    return false;
  }
  // Rotation: start epoch's log fresh, then drop everything older — the
  // new checkpoint subsumes it. Unlink failures are ignored (stale files
  // waste space but load_latest picks the newest checkpoint anyway).
  if (!open_log(epoch, /*truncate=*/true)) return false;
  for (std::uint64_t e : list_epochs(dir_, "checkpoint-", ".ckpt")) {
    if (e < epoch) ::unlink(ckpt_path(dir_, e).c_str());
  }
  for (std::uint64_t e : list_epochs(dir_, "blocks-", ".log")) {
    if (e < epoch) ::unlink(log_path(dir_, e).c_str());
  }
  return true;
}

bool DataDir::append_block(LogKind kind, const Bytes& payload) {
  if (!ok_) return false;
  if (log_fd_ < 0 && !open_log(epoch_, /*truncate=*/false)) return false;
  const Bytes rec = encode_log_record(kind, payload);
  std::size_t off = 0;
  while (off < rec.size()) {
    const ::ssize_t n = ::write(log_fd_, rec.data() + off, rec.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  if (config_.fsync_appends && ::fsync(log_fd_) != 0) return false;
  return true;
}

bool DataDir::load_latest(std::uint64_t& epoch, Bytes& checkpoint,
                          std::vector<LogRecord>& log) {
  if (!ok_) return false;
  epoch = 0;
  checkpoint.clear();
  log.clear();
  // Epochs start at 1 (0 = "no checkpoint yet") and rotation deletes every
  // epoch below the newest, so the newest is read off the directory listing
  // — probing upward from 1 would find nothing once epoch 1 is gone.
  const std::vector<std::uint64_t> epochs =
      list_epochs(dir_, "checkpoint-", ".ckpt");
  const std::uint64_t newest = epochs.empty() ? 0 : epochs.back();
  if (newest != 0) {
    Bytes newest_file;
    if (!read_file(ckpt_path(dir_, newest), newest_file)) return false;
    // A newest checkpoint that does not decode is corrupt storage, and
    // falling back to an older surviving epoch would be amnesia: rotation
    // already unlinked that epoch's log, so every block appended since —
    // own blocks included — would silently vanish and next_k would regress
    // into sequence reuse. Refuse the whole load instead (the runtime
    // leaves the server halted; simctl exits 3).
    auto payload = decode_checkpoint_file(newest_file);
    if (!payload) return false;
    epoch = newest;
    checkpoint = std::move(*payload);
  }
  Bytes log_file;
  if (read_file(log_path(dir_, epoch), log_file)) {
    std::size_t valid_prefix = 0;
    log = decode_log(log_file, valid_prefix);
    // Drop a torn tail on disk, not just in memory: the log is reopened
    // with O_APPEND, and a record written after leftover torn bytes would
    // be invisible to every future replay (which stops at the tear) —
    // silent loss of own blocks, i.e. sequence reuse after the next crash.
    if (valid_prefix < log_file.size() &&
        ::truncate(log_path(dir_, epoch).c_str(),
                   static_cast<::off_t>(valid_prefix)) != 0) {
      log.clear();
      return false;
    }
  }
  epoch_ = epoch;
  return true;
}

}  // namespace blockdag::sync
