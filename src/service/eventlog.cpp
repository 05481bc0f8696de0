#include "service/eventlog.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "service/wire.hpp"

namespace acorn::service {

namespace {

// Legacy per-WLAN logs: u32 magic + u16 version, then records of
// u32 len + u64 seq + payload + u64 fnv.
constexpr std::size_t kHeaderBytes = 6;
constexpr std::size_t kRecordHeadBytes = 12;
// Segment files: u32 magic + u16 version + u64 index, then records of
// u32 len + u32 wlan_id + u64 seq + payload + u64 fnv.
constexpr std::size_t kSegHeaderBytes = 14;
constexpr std::size_t kSegRecordHeadBytes = 16;

/// Whether `bytes` begins with `header`, the fields its writer puts
/// first.
template <typename... Fields>
bool starts_with(std::span<const std::uint8_t> bytes,
                 const Fields&... header) {
  std::vector<std::uint8_t> expect;
  ByteWriter(expect).put(header...);
  return bytes.size() >= expect.size() &&
         std::equal(expect.begin(), expect.end(), bytes.begin());
}

/// Walk the checksummed records that follow a log file's header, each
/// [u32 payload_len][head fields][payload][u64 fnv1a] with `head_bytes`
/// counting the length and the fields. `take(head, payload)` gets a
/// reader positioned after the length and returns false to stop. Returns
/// false when the walk stopped before the end: a torn tail, a garbage
/// length, a checksum mismatch, or a refusal by `take`.
template <typename Take>
bool walk_records(std::span<const std::uint8_t> bytes, std::size_t pos,
                  std::size_t head_bytes, Take&& take) {
  while (pos < bytes.size()) {
    const std::size_t left = bytes.size() - pos;
    if (left < head_bytes + 8) return false;  // partial header/trailer
    ByteReader head(bytes.subspan(pos, head_bytes));
    const auto len = head.get<std::uint32_t>();
    if (len > kMaxFramePayload || left < head_bytes + len + 8) {
      return false;  // garbage length or torn payload
    }
    const auto record = bytes.subspan(pos, head_bytes + len);
    if (ByteReader(bytes.subspan(pos + record.size(), 8))
            .get<std::uint64_t>() != fnv1a(record)) {
      return false;  // bit rot or torn rewrite
    }
    if (!take(head, record.subspan(head_bytes))) return false;
    pos += record.size() + 8;
  }
  return true;
}

}  // namespace

bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
  return bytes;
}

bool write_all(int fd, std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t r = ::write(fd, bytes.data(), bytes.size());
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes = bytes.subspan(static_cast<std::size_t>(r));
  }
  return true;
}

std::string wal_path(const std::string& dir, std::uint32_t wlan_id) {
  return dir + "/wlan_" + std::to_string(wlan_id) + ".wal";
}

void remove_wal(const std::string& dir, std::uint32_t wlan_id) {
  ::unlink(wal_path(dir, wlan_id).c_str());
}

std::vector<std::uint8_t> encode_wal_record(
    std::uint64_t seq, std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kRecordHeadBytes + payload.size() + 8);
  ByteWriter w(out);
  w.put(static_cast<std::uint32_t>(payload.size()), seq);
  w.bytes(payload);
  w.put(fnv1a(out));
  return out;
}

WalLoadResult load_wal(const std::string& dir, std::uint32_t wlan_id) {
  WalLoadResult out;
  const auto bytes = read_file(wal_path(dir, wlan_id));
  // No log, or one truncated after a snapshot: clean.
  if (!bytes || bytes->empty()) return out;
  out.clean =
      starts_with(*bytes, kWalMagic, kWalVersion) &&
      walk_records(*bytes, kHeaderBytes, kRecordHeadBytes,
                   [&out](ByteReader& head, auto payload) {
                     const auto seq = head.get<std::uint64_t>();
                     // An ordinal gap refuses the rest of the log.
                     if (!out.records.empty() &&
                         seq != out.records.back().seq + 1) {
                       return false;
                     }
                     out.records.push_back(
                         WalRecord{seq, {payload.begin(), payload.end()}});
                     return true;
                   });
  return out;
}

// ---- Shared segments ----------------------------------------------------

std::string wal_segment_path(const std::string& dir, std::uint64_t index) {
  return dir + "/seg_" + std::to_string(index) + ".walseg";
}

void encode_segment_record_into(std::vector<std::uint8_t>& out,
                                std::uint32_t wlan_id, std::uint64_t seq,
                                std::span<const std::uint8_t> payload) {
  const std::size_t start = out.size();
  ByteWriter w(out);
  w.put(static_cast<std::uint32_t>(payload.size()), wlan_id, seq);
  w.bytes(payload);
  w.put(fnv1a(std::span<const std::uint8_t>(out).subspan(start)));
}

std::vector<std::uint8_t> encode_segment_record(
    std::uint32_t wlan_id, std::uint64_t seq,
    std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kSegRecordHeadBytes + payload.size() + 8);
  encode_segment_record_into(out, wlan_id, seq, payload);
  return out;
}

namespace {

/// Parse the valid record prefix of one segment file into `out`,
/// returning false on the first torn/corrupt record (the prefix is
/// kept). Unlike legacy per-WLAN logs, seq gaps are not policed here:
/// records from many WLANs interleave, so contiguity is a per-WLAN
/// property the shard replay loop enforces.
bool scan_segment(const std::string& path, std::uint64_t index,
                  SegmentLoadResult& out) {
  const auto bytes = read_file(path);
  if (!bytes) return false;
  SegmentCoverage& cover = out.segments.emplace_back();
  cover.index = index;
  if (bytes->empty()) return true;  // created but never synced: clean
  return starts_with(*bytes, kWalSegMagic, kWalSegVersion, index) &&
         walk_records(
             *bytes, kSegHeaderBytes, kSegRecordHeadBytes,
             [&](ByteReader& head, auto payload) {
               const auto wlan_id = head.get<std::uint32_t>();
               const auto seq = head.get<std::uint64_t>();
               if (seq == 0) {
                 // Removal tombstone (RemoveWlan, or a re-registration
                 // fencing off the previous incarnation): every record
                 // for this WLAN seen so far — in this segment and all
                 // earlier ones — belongs to a dead incarnation and must
                 // not replay.
                 out.records.erase(wlan_id);
                 for (SegmentCoverage& seg : out.segments) {
                   seg.max_seq.erase(wlan_id);
                 }
                 return true;
               }
               out.records[wlan_id].push_back(
                   WalRecord{seq, {payload.begin(), payload.end()}});
               std::uint64_t& top = cover.max_seq[wlan_id];
               top = std::max(top, seq);
               return true;
             });
}

}  // namespace

SegmentLoadResult load_wal_segments(const std::string& dir) {
  SegmentLoadResult out;
  std::vector<std::uint64_t> indices;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* ent = ::readdir(d)) {
      const std::string name = ent->d_name;
      if (name.size() <= 11 || name.rfind("seg_", 0) != 0 ||
          name.substr(name.size() - 7) != ".walseg") {
        continue;
      }
      const std::string digits = name.substr(4, name.size() - 11);
      if (digits.empty() ||
          digits.find_first_not_of("0123456789") != std::string::npos) {
        continue;
      }
      indices.push_back(std::strtoull(digits.c_str(), nullptr, 10));
    }
    ::closedir(d);
  }
  std::sort(indices.begin(), indices.end());
  for (std::uint64_t index : indices) {
    if (!scan_segment(wal_segment_path(dir, index), index, out)) {
      out.clean = false;  // keep scanning: later segments may be intact
    }
    out.next_index = index + 1;
  }
  return out;
}

bool WalSegmentWriter::open(const std::string& dir, std::uint64_t index) {
  close();
  const std::string path = wal_segment_path(dir, index);
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC,
                        0644);
  if (fd < 0) return false;
  if (!fsync_dir(dir)) {
    ::close(fd);
    ::unlink(path.c_str());
    return false;
  }
  fd_ = fd;
  index_ = index;
  file_size_ = 0;
  buf_.clear();
  return true;
}

void WalSegmentWriter::append(std::uint32_t wlan_id, std::uint64_t seq,
                              std::span<const std::uint8_t> payload) {
  if (fd_ < 0) return;
  if (file_size_ == 0 && buf_.empty()) {
    ByteWriter(buf_).put(kWalSegMagic, kWalSegVersion, index_);
  }
  encode_segment_record_into(buf_, wlan_id, seq, payload);
}

bool WalSegmentWriter::sync() {
  if (fd_ < 0) return false;
  if (!buf_.empty()) {
    if (!write_all(fd_, buf_)) {
      // The failed write may have appended a *prefix* of the buffer — a
      // torn record that a later successful retry (which re-appends the
      // whole buffer) would leave sitting in front of live records,
      // making the scan stop at the tear and lose everything after it.
      // Cut the file back to the last known-good boundary so a retry
      // starts clean; if even that fails the tail cannot be trusted, so
      // stop logging through this writer entirely.
      if (::ftruncate(fd_, static_cast<off_t>(file_size_)) != 0) close();
      return false;
    }
    file_size_ += buf_.size();
    buf_.clear();
  }
  return ::fdatasync(fd_) == 0;
}

void WalSegmentWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  index_ = 0;
  file_size_ = 0;
  buf_.clear();
}

}  // namespace acorn::service
