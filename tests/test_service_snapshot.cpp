#include "service/snapshot.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "service/wire.hpp"

namespace acorn::service {
namespace {

// Scratch directory removed (with contents) on scope exit.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/acorn_snap_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

WlanSnapshot sample_snapshot(std::uint32_t wlan_id = 7) {
  WlanSnapshot s;
  s.wlan_id = wlan_id;
  s.epoch = 42;
  s.events_applied = 1234;
  s.deployment = "ap 0 0\nap 10 0\nclient 1 1\nclient 9 1\nseed 3\n";
  s.association = {0, 1};
  s.allocated = {net::Channel::bonded(0), net::Channel::basic(5)};
  s.operating = {net::Channel::basic(0), net::Channel::basic(5)};
  s.loss_overrides = {LossOverride{0, 0, 81.5}, LossOverride{1, 1, 95.25}};
  s.loads = {LoadHint{0, 0.75}};
  s.dirty_clients = {0, 1};
  return s;
}

void expect_equal(const WlanSnapshot& a, const WlanSnapshot& b) {
  EXPECT_EQ(encode_snapshot(a), encode_snapshot(b));
}

TEST(ServiceSnapshot, CodecRoundTrip) {
  const WlanSnapshot snap = sample_snapshot();
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  const WlanSnapshot back = decode_snapshot(bytes);
  EXPECT_EQ(back.wlan_id, snap.wlan_id);
  EXPECT_EQ(back.epoch, snap.epoch);
  EXPECT_EQ(back.events_applied, snap.events_applied);
  EXPECT_EQ(back.deployment, snap.deployment);
  EXPECT_EQ(back.association, snap.association);
  EXPECT_EQ(back.dirty_clients, snap.dirty_clients);
  expect_equal(back, snap);
}

TEST(ServiceSnapshot, EmptyFieldsRoundTrip) {
  WlanSnapshot snap;
  snap.wlan_id = 1;
  snap.deployment = "ap 0 0\nclient 1 1\n";
  expect_equal(decode_snapshot(encode_snapshot(snap)), snap);
}

// Encode `snap` in the version-1 layout (no dirty-client section).
std::vector<std::uint8_t> encode_snapshot_v1(const WlanSnapshot& snap) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(kSnapshotMagic);
  w.u16(1);
  w.u32(snap.wlan_id);
  w.u64(snap.epoch);
  w.u64(snap.events_applied);
  w.str(snap.deployment);
  w.u32(static_cast<std::uint32_t>(snap.association.size()));
  for (int ap : snap.association) w.i32(ap);
  w.u32(static_cast<std::uint32_t>(snap.allocated.size()));
  for (const net::Channel& c : snap.allocated) w.channel(c);
  w.u32(static_cast<std::uint32_t>(snap.operating.size()));
  for (const net::Channel& c : snap.operating) w.channel(c);
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
  w.u64(fnv1a(out));
  return out;
}

// Upgrading a deployment must not drop its persisted v1 state: the old
// layout (no dirty-client section) still decodes, and the lost dirty
// set degrades to "re-probe everyone at the next epoch".
TEST(ServiceSnapshot, Version1StillDecodesWithAllClientsDirty) {
  WlanSnapshot snap = sample_snapshot();
  snap.dirty_clients.clear();  // not representable in v1
  const WlanSnapshot back = decode_snapshot(encode_snapshot_v1(snap));
  EXPECT_EQ(back.wlan_id, snap.wlan_id);
  EXPECT_EQ(back.epoch, snap.epoch);
  EXPECT_EQ(back.events_applied, snap.events_applied);
  EXPECT_EQ(back.deployment, snap.deployment);
  EXPECT_EQ(back.association, snap.association);
  EXPECT_EQ(back.loads.size(), snap.loads.size());
  // Every client is conservatively dirty.
  EXPECT_EQ(back.dirty_clients,
            (std::vector<std::uint32_t>{0, 1}));
}

TEST(ServiceSnapshot, FutureVersionRejected) {
  std::vector<std::uint8_t> bytes = encode_snapshot(sample_snapshot());
  // Patch the version field (offset 4, little-endian u16) to 3 and
  // re-stamp the checksum so only the version is at fault.
  bytes[4] = 3;
  const std::span<const std::uint8_t> body(bytes.data(), bytes.size() - 8);
  const std::uint64_t sum = fnv1a(body);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(sum >> (8 * i));
  }
  EXPECT_THROW(decode_snapshot(bytes), WireError);
}

TEST(ServiceSnapshot, ChecksumCatchesEveryBitFlip) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(sample_snapshot());
  // Flip one bit in every byte (body and trailer alike): the checksum
  // or the strict decoder must refuse each mutant.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> bad = bytes;
    bad[i] ^= 0x10;
    EXPECT_THROW(decode_snapshot(bad), WireError) << "byte " << i;
  }
}

TEST(ServiceSnapshot, TruncationRejected) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(sample_snapshot());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW(
        decode_snapshot(std::span<const std::uint8_t>(bytes.data(), n)),
        WireError)
        << "length " << n;
  }
}

TEST(ServiceSnapshot, WriteLoadRoundTrip) {
  const TempDir dir;
  const WlanSnapshot a = sample_snapshot(1);
  const WlanSnapshot b = sample_snapshot(2);
  ASSERT_TRUE(write_snapshot(dir.path(), a));
  ASSERT_TRUE(write_snapshot(dir.path(), b));

  std::vector<WlanSnapshot> loaded = load_snapshots(dir.path());
  ASSERT_EQ(loaded.size(), 2u);
  if (loaded[0].wlan_id > loaded[1].wlan_id) {
    std::swap(loaded[0], loaded[1]);
  }
  expect_equal(loaded[0], a);
  expect_equal(loaded[1], b);
}

TEST(ServiceSnapshot, RewriteReplacesAtomically) {
  const TempDir dir;
  WlanSnapshot snap = sample_snapshot(3);
  ASSERT_TRUE(write_snapshot(dir.path(), snap));
  snap.epoch = 43;
  snap.loss_overrides.push_back(LossOverride{0, 1, 101.0});
  ASSERT_TRUE(write_snapshot(dir.path(), snap));
  const std::vector<WlanSnapshot> loaded = load_snapshots(dir.path());
  ASSERT_EQ(loaded.size(), 1u);
  expect_equal(loaded[0], snap);
  // No .tmp residue after a successful rename.
  EXPECT_NE(::access(snapshot_path(dir.path(), 3).c_str(), F_OK), -1);
  EXPECT_EQ(::access((snapshot_path(dir.path(), 3) + ".tmp").c_str(), F_OK),
            -1);
}

TEST(ServiceSnapshot, CorruptFileSkippedHealthyOnesRecovered) {
  const TempDir dir;
  ASSERT_TRUE(write_snapshot(dir.path(), sample_snapshot(1)));
  ASSERT_TRUE(write_snapshot(dir.path(), sample_snapshot(2)));
  // Corrupt wlan_1: truncate it mid-body.
  {
    std::FILE* f =
        std::fopen(snapshot_path(dir.path(), 1).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(::ftruncate(::fileno(f), 10), 0);
    std::fclose(f);
  }
  const std::vector<WlanSnapshot> loaded = load_snapshots(dir.path());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].wlan_id, 2u);
}

TEST(ServiceSnapshot, RemoveDeletesSnapAndTmp) {
  const TempDir dir;
  ASSERT_TRUE(write_snapshot(dir.path(), sample_snapshot(9)));
  remove_snapshot(dir.path(), 9);
  EXPECT_TRUE(load_snapshots(dir.path()).empty());
  EXPECT_EQ(::access(snapshot_path(dir.path(), 9).c_str(), F_OK), -1);
}

}  // namespace
}  // namespace acorn::service
