#include "service/snapshot.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <tuple>

#include "service/eventlog.hpp"
#include "service/wire.hpp"

namespace acorn::service {

namespace {

/// The version-1 fields in file order; version 2 appends the dirty set.
template <typename Snapshot>
auto v1_fields(Snapshot& snap) {
  auto& s = snap.state;
  return std::tie(snap.wlan_id, s.epoch, snap.events_applied, snap.deployment,
                  s.association, s.allocated, s.operating, s.loss_overrides,
                  s.loads);
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const WlanSnapshot& snap) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.put(kSnapshotMagic, kSnapshotVersion);
  std::apply([&w](const auto&... field) { w.put(field...); }, v1_fields(snap));
  w.put(snap.state.dirty);
  w.put(fnv1a(out));
  return out;
}

WlanSnapshot decode_snapshot(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 8) throw WireError("snapshot too short");
  const std::span<const std::uint8_t> body = bytes.first(bytes.size() - 8);
  if (ByteReader(bytes.last(8)).get<std::uint64_t>() != fnv1a(body)) {
    throw WireError("snapshot checksum mismatch");
  }
  ByteReader r(body);
  if (r.get<std::uint32_t>() != kSnapshotMagic) {
    throw WireError("bad snapshot magic");
  }
  const auto version = r.get<std::uint16_t>();
  if (version < 1 || version > kSnapshotVersion) {
    throw WireError("unsupported snapshot version " + std::to_string(version));
  }
  WlanSnapshot snap;
  std::apply([&r](auto&... field) { r.get(field...); }, v1_fields(snap));
  core::WlanState& s = snap.state;
  if (version >= 2) {
    r.get(s.dirty);
  } else {
    // Version 1 predates the dirty-client set. Rejecting it would
    // silently drop every persisted pre-upgrade WLAN on first restart;
    // instead accept it and — having lost the record of *which* links
    // changed — conservatively mark every client dirty so the first
    // post-upgrade epoch re-probes them all.
    for (std::uint32_t c = 0; c < s.association.size(); ++c) {
      s.dirty.insert(s.dirty.end(), c);
    }
  }
  r.expect_end();
  return snap;
}

std::string snapshot_path(const std::string& dir, std::uint32_t wlan_id) {
  return dir + "/wlan_" + std::to_string(wlan_id) + ".snap";
}

bool write_snapshot(const std::string& dir, const WlanSnapshot& snap) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  const std::string path = snapshot_path(dir, snap.wlan_id);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return false;
  if (!write_all(fd, bytes)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  // Durability before visibility: the data must be on disk before the
  // rename publishes it, or a power cut could expose an empty file.
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  // The rename only updated the directory, and fsync on the file does
  // not persist its directory entry: without this a power cut can roll
  // the directory back to the *old* snapshot after the caller has
  // already truncated the WAL records that bridged the two.
  return fsync_dir(dir);
}

void remove_snapshot(const std::string& dir, std::uint32_t wlan_id) {
  const std::string path = snapshot_path(dir, wlan_id);
  ::unlink(path.c_str());
  ::unlink((path + ".tmp").c_str());
}

std::vector<WlanSnapshot> load_snapshots(const std::string& dir) {
  std::vector<WlanSnapshot> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() < 6 || name.compare(0, 5, "wlan_") != 0 ||
        name.compare(name.size() - 5, 5, ".snap") != 0) {
      continue;
    }
    const std::string path = dir + "/" + name;
    const std::optional<std::vector<std::uint8_t>> bytes = read_file(path);
    if (!bytes) continue;
    try {
      out.push_back(decode_snapshot(*bytes));
    } catch (const WireError& e) {
      std::fprintf(stderr, "acornd: skipping corrupt snapshot %s: %s\n",
                   path.c_str(), e.what());
    }
  }
  ::closedir(d);
  return out;
}

}  // namespace acorn::service
