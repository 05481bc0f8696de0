#include "service/snapshot.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "service/wire.hpp"
#include "testutil.hpp"

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
  WlanSnapshot snap;
  snap.wlan_id = wlan_id;
  snap.events_applied = 1234;
  snap.deployment = "ap 0 0\nap 10 0\nclient 1 1\nclient 9 1\nseed 3\n";
  core::WlanState& s = snap.state;
  s.epoch = 42;
  s.association = {0, 1};
  s.allocated = {net::Channel::bonded(0), net::Channel::basic(5)};
  s.operating = {net::Channel::basic(0), net::Channel::basic(5)};
  s.loss_overrides = {{{0, 0}, 81.5}, {{1, 1}, 95.25}};
  s.loads = {{0, 0.75}};
  s.dirty = {0, 1};
  return snap;
}

/// A snapshot with every list empty.
WlanSnapshot empty_snapshot() {
  WlanSnapshot s;
  s.wlan_id = 1;
  s.deployment = "ap 0 0\nclient 1 1\n";
  return s;
}

void expect_equal(const WlanSnapshot& a, const WlanSnapshot& b) {
  EXPECT_EQ(encode_snapshot(a), encode_snapshot(b));
}

// The bytes of sample_snapshot() and empty_snapshot(), and a hand-built
// version-1 file of the sample. Round trips cannot catch a layout change
// made on both the encode and the decode side; these pin the layout.
constexpr const char* kSampleHex =
    "4143524e0200070000002a00000000000000d2040000000000002c0000006170"
    "203020300a617020313020300a636c69656e74203120310a636c69656e742039"
    "20310a7365656420330a02000000000000000100000002000000010000000000"
    "0500000002000000000000000000050000000200000000000000000000000000"
    "00000060544001000000010000000000000000d0574001000000000000000000"
    "00000000e83f020000000000000001000000f99189b3aee7019c";
constexpr const char* kEmptyHex =
    "4143524e02000100000000000000000000000000000000000000120000006170"
    "203020300a636c69656e74203120310a00000000000000000000000000000000"
    "0000000000000000c2b60a914001c4c9";
constexpr const char* kSampleV1Hex =
    "4143524e0100070000002a00000000000000d2040000000000002c0000006170"
    "203020300a617020313020300a636c69656e74203120310a636c69656e742039"
    "20310a7365656420330a02000000000000000100000002000000010000000000"
    "0500000002000000000000000000050000000200000000000000000000000000"
    "00000060544001000000010000000000000000d0574001000000000000000000"
    "00000000e83fc123db44f5caf6e7";

TEST(ServiceSnapshot, GoldenBytesPinTheLayout) {
  EXPECT_EQ(testutil::to_hex(encode_snapshot(sample_snapshot())), kSampleHex);
  EXPECT_EQ(testutil::to_hex(encode_snapshot(empty_snapshot())), kEmptyHex);
  for (const char* hex : {kSampleHex, kEmptyHex}) {
    EXPECT_EQ(testutil::to_hex(
                  encode_snapshot(decode_snapshot(testutil::from_hex(hex)))),
              hex);
  }
}

// The version-1 file lacks the dirty section, so both of the sample's
// clients decode as dirty, which is exactly the sample.
TEST(ServiceSnapshot, GoldenVersion1FileDecodesToTheSample) {
  EXPECT_EQ(testutil::to_hex(encode_snapshot(
                decode_snapshot(testutil::from_hex(kSampleV1Hex)))),
            kSampleHex);
}

TEST(ServiceSnapshot, CodecRoundTrip) {
  const WlanSnapshot snap = sample_snapshot();
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  const WlanSnapshot back = decode_snapshot(bytes);
  EXPECT_EQ(back.wlan_id, snap.wlan_id);
  EXPECT_EQ(back.events_applied, snap.events_applied);
  EXPECT_EQ(back.deployment, snap.deployment);
  EXPECT_EQ(back.state.epoch, snap.state.epoch);
  EXPECT_EQ(back.state.association, snap.state.association);
  EXPECT_EQ(back.state.loss_overrides, snap.state.loss_overrides);
  EXPECT_EQ(back.state.loads, snap.state.loads);
  EXPECT_EQ(back.state.dirty, snap.state.dirty);
  expect_equal(back, snap);
}

TEST(ServiceSnapshot, EmptyFieldsRoundTrip) {
  const WlanSnapshot snap = empty_snapshot();
  expect_equal(decode_snapshot(encode_snapshot(snap)), snap);
}

// Encode `snap` in the version-1 layout (no dirty-client section).
std::vector<std::uint8_t> encode_snapshot_v1(const WlanSnapshot& snap) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  const core::WlanState& s = snap.state;
  w.put(kSnapshotMagic, std::uint16_t{1}, snap.wlan_id, s.epoch,
        snap.events_applied, snap.deployment, s.association, s.allocated,
        s.operating, s.loss_overrides, s.loads);
  w.put(fnv1a(out));
  return out;
}

// Upgrading a deployment must not drop its persisted v1 state: the old
// layout (no dirty-client section) still decodes, and the lost dirty
// set degrades to "re-probe everyone at the next epoch".
TEST(ServiceSnapshot, Version1StillDecodesWithAllClientsDirty) {
  WlanSnapshot snap = sample_snapshot();
  snap.state.dirty.clear();  // not representable in v1
  const WlanSnapshot back = decode_snapshot(encode_snapshot_v1(snap));
  EXPECT_EQ(back.wlan_id, snap.wlan_id);
  EXPECT_EQ(back.events_applied, snap.events_applied);
  EXPECT_EQ(back.deployment, snap.deployment);
  EXPECT_EQ(back.state.epoch, snap.state.epoch);
  EXPECT_EQ(back.state.association, snap.state.association);
  EXPECT_EQ(back.state.loads, snap.state.loads);
  // Every client is conservatively dirty.
  EXPECT_EQ(back.state.dirty, (std::set<std::uint32_t>{0, 1}));
}

// A state map is a count and its entries, so a file may list a key more
// than once: the last entry wins, and re-encoding writes it once.
TEST(ServiceSnapshot, RepeatedOverrideOrLoadKeepsItsLastEntry) {
  const WlanSnapshot snap = sample_snapshot();
  const core::WlanState& s = snap.state;
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w.put(kSnapshotMagic, kSnapshotVersion, snap.wlan_id, s.epoch,
        snap.events_applied, snap.deployment, s.association, s.allocated,
        s.operating);
  w.put(std::uint32_t{3}, std::pair{std::pair{0u, 0u}, 70.0},
        std::pair{std::pair{1u, 1u}, 95.25},
        std::pair{std::pair{0u, 0u}, 81.5});
  w.put(std::uint32_t{2}, std::pair{0u, 0.5}, std::pair{0u, 0.75});
  w.put(s.dirty);
  w.put(fnv1a(bytes));
  const WlanSnapshot back = decode_snapshot(bytes);
  EXPECT_EQ(back.state.loss_overrides, s.loss_overrides);
  EXPECT_EQ(back.state.loads, s.loads);
  EXPECT_EQ(encode_snapshot(back), encode_snapshot(snap));
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
  snap.state.epoch = 43;
  snap.state.loss_overrides[{0, 1}] = 101.0;
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
