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
constexpr std::size_t kRecordOverhead = 20;
// Segment files: u32 magic + u16 version + u64 index.
constexpr std::size_t kSegHeaderBytes = 14;
// u32 len + u32 wlan_id + u64 seq + u64 fnv.
constexpr std::size_t kSegRecordOverhead = 24;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::write(fd, data + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(r);
  }
  return true;
}

/// Read a whole file into memory; returns false if it cannot be opened.
bool slurp(const std::string& path, std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::uint8_t chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
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

std::string wal_path(const std::string& dir, std::uint32_t wlan_id) {
  return dir + "/wlan_" + std::to_string(wlan_id) + ".wal";
}

void remove_wal(const std::string& dir, std::uint32_t wlan_id) {
  ::unlink(wal_path(dir, wlan_id).c_str());
}

std::vector<std::uint8_t> encode_wal_record(
    std::uint64_t seq, std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(seq);
  w.bytes(payload);
  const std::uint64_t checksum = fnv1a(w.data());
  w.u64(checksum);
  return w.take();
}

WalLoadResult load_wal(const std::string& dir, std::uint32_t wlan_id) {
  WalLoadResult out;
  std::vector<std::uint8_t> bytes;
  if (!slurp(wal_path(dir, wlan_id), bytes)) return out;  // no log: clean
  if (bytes.empty()) return out;  // truncated after a snapshot: clean
  if (bytes.size() < kHeaderBytes) {
    out.clean = false;  // torn mid-header
    return out;
  }
  {
    ByteReader r(std::span<const std::uint8_t>(bytes.data(), kHeaderBytes));
    if (r.u32() != kWalMagic || r.u16() != kWalVersion) {
      out.clean = false;
      return out;
    }
  }
  std::size_t pos = kHeaderBytes;
  std::uint64_t prev_seq = 0;
  while (pos < bytes.size()) {
    const std::size_t left = bytes.size() - pos;
    if (left < kRecordOverhead) {
      out.clean = false;  // torn tail: partial record header/trailer
      break;
    }
    ByteReader hdr(std::span<const std::uint8_t>(bytes.data() + pos, 12));
    const std::uint32_t len = hdr.u32();
    const std::uint64_t seq = hdr.u64();
    if (len > kMaxFramePayload || left < kRecordOverhead + len) {
      out.clean = false;  // garbage length or torn payload
      break;
    }
    const std::span<const std::uint8_t> body(bytes.data() + pos, 12 + len);
    ByteReader trailer(
        std::span<const std::uint8_t>(bytes.data() + pos + 12 + len, 8));
    if (trailer.u64() != fnv1a(body)) {
      out.clean = false;  // bit rot or torn rewrite
      break;
    }
    if (!out.records.empty() && seq != prev_seq + 1) {
      out.clean = false;  // ordinal gap: refuse the rest of the log
      break;
    }
    WalRecord rec;
    rec.seq = seq;
    rec.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(pos + 12),
                       bytes.begin() +
                           static_cast<std::ptrdiff_t>(pos + 12 + len));
    prev_seq = seq;
    out.records.push_back(std::move(rec));
    pos += kRecordOverhead + len;
  }
  return out;
}

// ---- Shared segments ----------------------------------------------------

std::string wal_segment_path(const std::string& dir, std::uint64_t index) {
  return dir + "/seg_" + std::to_string(index) + ".walseg";
}

std::vector<std::uint8_t> encode_segment_record(
    std::uint32_t wlan_id, std::uint64_t seq,
    std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(wlan_id);
  w.u64(seq);
  w.bytes(payload);
  const std::uint64_t checksum = fnv1a(w.data());
  w.u64(checksum);
  return w.take();
}

namespace {

/// Parse the valid record prefix of one segment file into `out`,
/// returning false on the first torn/corrupt record (the prefix is
/// kept). Unlike legacy per-WLAN logs, seq gaps are not policed here:
/// records from many WLANs interleave, so contiguity is a per-WLAN
/// property the shard replay loop enforces.
bool scan_segment(const std::string& path, std::uint64_t index,
                  SegmentLoadResult& out) {
  std::vector<std::uint8_t> bytes;
  if (!slurp(path, bytes)) return false;
  SegmentCoverage cover;
  cover.index = index;
  if (bytes.size() < kSegHeaderBytes) {
    out.segments.push_back(std::move(cover));
    return bytes.empty();  // zero bytes: created but never synced — clean
  }
  {
    ByteReader r(
        std::span<const std::uint8_t>(bytes.data(), kSegHeaderBytes));
    if (r.u32() != kWalSegMagic || r.u16() != kWalSegVersion ||
        r.u64() != index) {
      out.segments.push_back(std::move(cover));
      return false;
    }
  }
  bool clean = true;
  std::size_t pos = kSegHeaderBytes;
  while (pos < bytes.size()) {
    const std::size_t left = bytes.size() - pos;
    if (left < kSegRecordOverhead) {
      clean = false;  // torn tail
      break;
    }
    ByteReader hdr(std::span<const std::uint8_t>(bytes.data() + pos, 16));
    const std::uint32_t len = hdr.u32();
    const std::uint32_t wlan_id = hdr.u32();
    const std::uint64_t seq = hdr.u64();
    if (len > kMaxFramePayload || left < kSegRecordOverhead + len) {
      clean = false;  // garbage length or torn payload
      break;
    }
    const std::span<const std::uint8_t> body(bytes.data() + pos, 16 + len);
    ByteReader trailer(
        std::span<const std::uint8_t>(bytes.data() + pos + 16 + len, 8));
    if (trailer.u64() != fnv1a(body)) {
      clean = false;  // bit rot or torn rewrite
      break;
    }
    if (seq == 0) {
      // Removal tombstone (RemoveWlan, or a re-registration fencing off
      // the previous incarnation): every record for this WLAN seen so
      // far — in this segment and all earlier ones — belongs to a dead
      // incarnation and must not replay.
      out.records.erase(wlan_id);
      cover.max_seq.erase(wlan_id);
      for (SegmentCoverage& prev : out.segments) {
        prev.max_seq.erase(wlan_id);
      }
      pos += kSegRecordOverhead + len;
      continue;
    }
    WalRecord rec;
    rec.seq = seq;
    rec.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(pos + 16),
                       bytes.begin() +
                           static_cast<std::ptrdiff_t>(pos + 16 + len));
    out.records[wlan_id].push_back(std::move(rec));
    std::uint64_t& top = cover.max_seq[wlan_id];
    top = std::max(top, seq);
    pos += kSegRecordOverhead + len;
  }
  out.segments.push_back(std::move(cover));
  return clean;
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
    ByteWriter w;
    w.u32(kWalSegMagic);
    w.u16(kWalSegVersion);
    w.u64(index_);
    buf_.insert(buf_.end(), w.data().begin(), w.data().end());
  }
  const std::vector<std::uint8_t> rec =
      encode_segment_record(wlan_id, seq, payload);
  buf_.insert(buf_.end(), rec.begin(), rec.end());
}

bool WalSegmentWriter::sync() {
  if (fd_ < 0) return false;
  if (!buf_.empty()) {
    if (!write_all(fd_, buf_.data(), buf_.size())) {
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
