// Determinism and allocation contracts of the parallel packet engine:
//
//  - run_bermac / run_phy_chain are bit-identical at any thread count
//    (each packet derives its own RNG stream; reduction is in packet
//    order), including the constellation capture path.
//  - The steady-state packet loop is allocation-free: the allocation
//    count of a sweep does not grow with the packet count (workspaces
//    are sized once per worker, never per packet).
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "baseband/bermac.hpp"
#include "baseband/phy_chain.hpp"
#include "util/rng.hpp"

// Global allocation counter for the zero-allocation tests. Overriding
// operator new here affects this test binary only.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace acorn;

baseband::BermacConfig bermac_config(bool stbc, phy::ChannelWidth width,
                                     int capture) {
  baseband::BermacConfig cfg;
  cfg.width = width;
  cfg.packet_bytes = 120;
  cfg.packets = 9;
  cfg.use_stbc = stbc;
  cfg.rayleigh = true;
  cfg.num_taps = 3;
  cfg.path_loss_db = 88.0;
  cfg.tx_dbm = 4.0;
  cfg.capture_symbols = capture;
  return cfg;
}

baseband::BermacResult run_with_threads(baseband::BermacConfig cfg,
                                        int threads, std::uint64_t seed) {
  cfg.num_threads = threads;
  util::Rng rng(seed);
  return run_bermac(cfg, rng);
}

void expect_identical(const baseband::BermacResult& a,
                      const baseband::BermacResult& b) {
  EXPECT_EQ(a.bits_sent, b.bits_sent);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packet_errors, b.packet_errors);
  // Bit-identical means the doubles match exactly, not approximately:
  // the same packets were produced from the same streams and reduced in
  // the same order.
  EXPECT_EQ(a.mean_snr_db, b.mean_snr_db);
  EXPECT_EQ(a.evm_rms, b.evm_rms);
  ASSERT_EQ(a.constellation.size(), b.constellation.size());
  for (std::size_t i = 0; i < a.constellation.size(); ++i) {
    EXPECT_EQ(a.constellation[i], b.constellation[i]) << "symbol " << i;
  }
}

TEST(EngineDeterminism, BermacSisoMatchesSerialAtAnyThreadCount) {
  for (const auto width :
       {phy::ChannelWidth::k20MHz, phy::ChannelWidth::k40MHz}) {
    const auto cfg = bermac_config(/*stbc=*/false, width, /*capture=*/0);
    const auto serial = run_with_threads(cfg, 1, 0x11u);
    expect_identical(serial, run_with_threads(cfg, 2, 0x11u));
    expect_identical(serial, run_with_threads(cfg, 5, 0x11u));
  }
}

TEST(EngineDeterminism, BermacStbcMatchesSerialAtAnyThreadCount) {
  const auto cfg = bermac_config(/*stbc=*/true, phy::ChannelWidth::k20MHz,
                                 /*capture=*/0);
  const auto serial = run_with_threads(cfg, 1, 0x22u);
  expect_identical(serial, run_with_threads(cfg, 2, 0x22u));
  expect_identical(serial, run_with_threads(cfg, 5, 0x22u));
}

TEST(EngineDeterminism, ConstellationCaptureMatchesSerial) {
  // Capture spans several packets, so this checks the per-packet slice
  // arithmetic as well as the RNG streams.
  for (const bool stbc : {false, true}) {
    auto cfg = bermac_config(stbc, phy::ChannelWidth::k20MHz,
                             /*capture=*/1200);
    const auto serial = run_with_threads(cfg, 1, 0x33u);
    EXPECT_EQ(serial.constellation.size(), 1200u);
    expect_identical(serial, run_with_threads(cfg, 3, 0x33u));
  }
}

TEST(EngineDeterminism, CaptureLargerThanRunIsClamped) {
  auto cfg = bermac_config(/*stbc=*/false, phy::ChannelWidth::k20MHz,
                           /*capture=*/1 << 28);
  const auto serial = run_with_threads(cfg, 1, 0x44u);
  const std::size_t syms_per_packet =
      (static_cast<std::size_t>(cfg.packet_bytes) * 8 + 1) / 2;
  EXPECT_EQ(serial.constellation.size(),
            syms_per_packet * static_cast<std::size_t>(cfg.packets));
  expect_identical(serial, run_with_threads(cfg, 4, 0x44u));
}

baseband::PhyChainResult run_chain_with_threads(baseband::PhyChainConfig cfg,
                                                int threads, int packets,
                                                std::uint64_t seed) {
  cfg.num_threads = threads;
  util::Rng rng(seed);
  return run_phy_chain(cfg, packets, rng);
}

void expect_identical(const baseband::PhyChainResult& a,
                      const baseband::PhyChainResult& b) {
  EXPECT_EQ(a.bits_sent, b.bits_sent);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packet_errors, b.packet_errors);
  EXPECT_EQ(a.mean_snr_db, b.mean_snr_db);
}

TEST(EngineDeterminism, PhyChainMatchesSerialAtAnyThreadCount) {
  for (const int mcs : {0, 7}) {
    for (const bool soft : {false, true}) {
      baseband::PhyChainConfig cfg;
      cfg.mcs_index = mcs;
      cfg.packet_bytes = 60;
      cfg.path_loss_db = 92.0;
      cfg.soft_decision = soft;
      const auto serial = run_chain_with_threads(cfg, 1, 7, 0x55u);
      expect_identical(serial, run_chain_with_threads(cfg, 2, 7, 0x55u));
      expect_identical(serial, run_chain_with_threads(cfg, 5, 7, 0x55u));
    }
  }
}

TEST(EngineDeterminism, ResultDependsOnCallerRngState) {
  // The engine consumes exactly one draw from the caller's generator, so
  // different caller states must give different sweeps.
  const auto cfg = bermac_config(/*stbc=*/false, phy::ChannelWidth::k20MHz,
                                 /*capture=*/64);
  const auto a = run_with_threads(cfg, 1, 0x66u);
  const auto b = run_with_threads(cfg, 1, 0x67u);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.constellation.size(); ++i) {
    if (a.constellation[i] != b.constellation[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

std::size_t bermac_alloc_count(int packets) {
  auto cfg = bermac_config(/*stbc=*/false, phy::ChannelWidth::k20MHz,
                           /*capture=*/0);
  cfg.packets = packets;
  cfg.num_threads = 1;
  util::Rng rng(0x77u);
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const auto result = run_bermac(cfg, rng);
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(result.bits_sent, 0);
  return after - before;
}

TEST(EngineAllocation, BermacSteadyStateIsAllocationFree) {
  // Warm up the FFT plan cache and any lazy statics, then require that a
  // 6x longer sweep performs exactly as many allocations as a short one:
  // setup allocates (workspaces, the stats vector), per-packet work must
  // not.
  (void)bermac_alloc_count(2);
  const std::size_t short_run = bermac_alloc_count(2);
  const std::size_t long_run = bermac_alloc_count(12);
  EXPECT_EQ(short_run, long_run);
}

std::size_t chain_alloc_count(int packets, bool soft) {
  baseband::PhyChainConfig cfg;
  cfg.mcs_index = 3;
  cfg.packet_bytes = 60;
  cfg.path_loss_db = 90.0;
  cfg.soft_decision = soft;
  cfg.num_threads = 1;
  util::Rng rng(0x88u);
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const auto result = run_phy_chain(cfg, packets, rng);
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(result.bits_sent, 0);
  return after - before;
}

TEST(EngineAllocation, PhyChainSteadyStateIsAllocationFree) {
  for (const bool soft : {false, true}) {
    (void)chain_alloc_count(2, soft);
    const std::size_t short_run = chain_alloc_count(2, soft);
    const std::size_t long_run = chain_alloc_count(12, soft);
    EXPECT_EQ(short_run, long_run) << (soft ? "soft" : "hard");
  }
}

}  // namespace
