#include "service/snapshot.hpp"

#include <cstdio>
#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "service/eventlog.hpp"
#include "service/wire.hpp"

namespace acorn::service {

namespace {

void encode_channels(ByteWriter& w, const std::vector<net::Channel>& cs) {
  w.u32(static_cast<std::uint32_t>(cs.size()));
  for (const net::Channel& c : cs) w.channel(c);
}

std::vector<net::Channel> decode_channels(ByteReader& r) {
  const std::uint32_t n = r.u32();
  if (5 * static_cast<std::size_t>(n) > r.remaining()) {
    throw WireError("snapshot channel count exceeds payload");
  }
  std::vector<net::Channel> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.channel());
  return out;
}

}  // namespace

WlanSnapshot make_snapshot(std::uint32_t wlan_id, std::uint64_t events_applied,
                           const std::string& deployment,
                           const core::WlanState& state) {
  WlanSnapshot snap;
  snap.wlan_id = wlan_id;
  snap.epoch = state.epoch;
  snap.events_applied = events_applied;
  snap.deployment = deployment;
  snap.association = state.association;
  snap.allocated = state.allocated;
  snap.operating = state.operating;
  for (const auto& [link, loss] : state.loss_overrides) {
    snap.loss_overrides.push_back(LossOverride{link.first, link.second, loss});
  }
  for (const auto& [client, load] : state.loads) {
    snap.loads.push_back(LoadHint{client, load});
  }
  snap.dirty_clients.assign(state.dirty.begin(), state.dirty.end());
  return snap;
}

core::WlanState to_state(const WlanSnapshot& snap) {
  core::WlanState state;
  state.epoch = snap.epoch;
  state.association = snap.association;
  state.allocated = snap.allocated;
  state.operating = snap.operating;
  for (const LossOverride& o : snap.loss_overrides) {
    state.loss_overrides[{o.ap, o.client}] = o.loss_db;
  }
  for (const LoadHint& l : snap.loads) state.loads[l.client] = l.load;
  state.dirty.insert(snap.dirty_clients.begin(), snap.dirty_clients.end());
  return state;
}

std::vector<std::uint8_t> encode_snapshot(const WlanSnapshot& snap) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(kSnapshotMagic);
  w.u16(kSnapshotVersion);
  w.u32(snap.wlan_id);
  w.u64(snap.epoch);
  w.u64(snap.events_applied);
  w.str(snap.deployment);
  w.u32(static_cast<std::uint32_t>(snap.association.size()));
  for (int ap : snap.association) w.i32(ap);
  encode_channels(w, snap.allocated);
  encode_channels(w, snap.operating);
  w.u32(static_cast<std::uint32_t>(snap.loss_overrides.size()));
  for (const LossOverride& o : snap.loss_overrides) {
    w.u32(o.ap);
    w.u32(o.client);
    w.f64(o.loss_db);
  }
  w.u32(static_cast<std::uint32_t>(snap.loads.size()));
  for (const LoadHint& l : snap.loads) {
    w.u32(l.client);
    w.f64(l.load);
  }
  w.u32(static_cast<std::uint32_t>(snap.dirty_clients.size()));
  for (std::uint32_t c : snap.dirty_clients) w.u32(c);
  w.u64(fnv1a(out));
  return out;
}

WlanSnapshot decode_snapshot(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 8) throw WireError("snapshot too short");
  const std::span<const std::uint8_t> body = bytes.first(bytes.size() - 8);
  ByteReader trailer(bytes.subspan(bytes.size() - 8));
  if (trailer.u64() != fnv1a(body)) {
    throw WireError("snapshot checksum mismatch");
  }
  ByteReader r(body);
  if (r.u32() != kSnapshotMagic) throw WireError("bad snapshot magic");
  const std::uint16_t version = r.u16();
  if (version < 1 || version > kSnapshotVersion) {
    throw WireError("unsupported snapshot version " + std::to_string(version));
  }
  WlanSnapshot snap;
  snap.wlan_id = r.u32();
  snap.epoch = r.u64();
  snap.events_applied = r.u64();
  snap.deployment = r.str();
  const std::uint32_t n_assoc = r.u32();
  if (4 * static_cast<std::size_t>(n_assoc) > r.remaining()) {
    throw WireError("snapshot association count exceeds payload");
  }
  snap.association.reserve(n_assoc);
  for (std::uint32_t i = 0; i < n_assoc; ++i) {
    snap.association.push_back(r.i32());
  }
  snap.allocated = decode_channels(r);
  snap.operating = decode_channels(r);
  const std::uint32_t n_over = r.u32();
  if (16 * static_cast<std::size_t>(n_over) > r.remaining()) {
    throw WireError("snapshot override count exceeds payload");
  }
  snap.loss_overrides.reserve(n_over);
  for (std::uint32_t i = 0; i < n_over; ++i) {
    LossOverride o;
    o.ap = r.u32();
    o.client = r.u32();
    o.loss_db = r.f64();
    snap.loss_overrides.push_back(o);
  }
  const std::uint32_t n_loads = r.u32();
  if (12 * static_cast<std::size_t>(n_loads) > r.remaining()) {
    throw WireError("snapshot load count exceeds payload");
  }
  snap.loads.reserve(n_loads);
  for (std::uint32_t i = 0; i < n_loads; ++i) {
    LoadHint l;
    l.client = r.u32();
    l.load = r.f64();
    snap.loads.push_back(l);
  }
  if (version >= 2) {
    const std::uint32_t n_dirty = r.u32();
    if (4 * static_cast<std::size_t>(n_dirty) > r.remaining()) {
      throw WireError("snapshot dirty count exceeds payload");
    }
    snap.dirty_clients.reserve(n_dirty);
    for (std::uint32_t i = 0; i < n_dirty; ++i) {
      snap.dirty_clients.push_back(r.u32());
    }
  } else {
    // Version 1 predates the dirty-client set. Rejecting it would
    // silently drop every persisted pre-upgrade WLAN on first restart;
    // instead accept it and — having lost the record of *which* links
    // changed — conservatively mark every client dirty so the first
    // post-upgrade epoch re-probes them all.
    snap.dirty_clients.reserve(snap.association.size());
    for (std::uint32_t c = 0;
         c < static_cast<std::uint32_t>(snap.association.size()); ++c) {
      snap.dirty_clients.push_back(c);
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
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    off += static_cast<std::size_t>(n);
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
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) continue;
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    std::fclose(f);
    try {
      out.push_back(decode_snapshot(bytes));
    } catch (const WireError& e) {
      std::fprintf(stderr, "acornd: skipping corrupt snapshot %s: %s\n",
                   path.c_str(), e.what());
    }
  }
  ::closedir(d);
  return out;
}

}  // namespace acorn::service
