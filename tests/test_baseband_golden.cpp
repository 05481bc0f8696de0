// The coded chain's exact output over the benchmark grid: MCS 0-7 x
// {hard, soft} x {20, 40 MHz}, 1500-byte packets through a 3-tap
// Rayleigh channel at the per-MCS SNRs of perfbench's `baseband_coded`,
// two packets per point from fixed seeds. Every stage rewrite must keep
// each point's error counts and the bit pattern of its mean SNR; the
// literals were recorded before the symbol and bit stages were sped up.
// CTest label: baseband_golden.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "baseband/phy_chain.hpp"
#include "util/rng.hpp"

namespace acorn::baseband {
namespace {

struct GoldenPoint {
  std::int64_t bit_errors;
  std::int64_t packet_errors;
  std::uint64_t mean_snr_bits;  // bit pattern of mean_snr_db
};

// Indexed like the grid: point = (mcs * 2 + soft) * 2 + (width == 40).
constexpr GoldenPoint kGolden[32] = {
  {420, 2, 0x401b93905378a0efull},  // MCS 0 hard 20 MHz
  {1258, 1, 0x401b283aff026aadull},  // MCS 0 hard 40 MHz
  {0, 0, 0x4025958f6208532cull},  // MCS 0 soft 20 MHz
  {0, 0, 0x402845821c04140full},  // MCS 0 soft 40 MHz
  {0, 0, 0x4029ab71cfc1af87ull},  // MCS 1 hard 20 MHz
  {37, 1, 0x4020f1253b3e3234ull},  // MCS 1 hard 40 MHz
  {0, 0, 0x402e8ec4f62b4af0ull},  // MCS 1 soft 20 MHz
  {0, 0, 0x4029773f3bcb5634ull},  // MCS 1 soft 40 MHz
  {16, 1, 0x402ea25f4516e276ull},  // MCS 2 hard 20 MHz
  {2956, 1, 0x402e368ba72dc1c0ull},  // MCS 2 hard 40 MHz
  {0, 0, 0x4027f165d7a7d99bull},  // MCS 2 soft 20 MHz
  {318, 1, 0x4028638911574477ull},  // MCS 2 soft 40 MHz
  {0, 0, 0x40326c09daac65aaull},  // MCS 3 hard 20 MHz
  {0, 0, 0x4031fadbc7b799b4ull},  // MCS 3 hard 40 MHz
  {0, 0, 0x402faa81684c0c70ull},  // MCS 3 soft 20 MHz
  {0, 0, 0x40345f3034846e44ull},  // MCS 3 soft 40 MHz
  {16, 1, 0x40330683a62dc1f9ull},  // MCS 4 hard 20 MHz
  {85, 1, 0x40336a80f9c41829ull},  // MCS 4 hard 40 MHz
  {0, 0, 0x403304f4a3fe2483ull},  // MCS 4 soft 20 MHz
  {0, 0, 0x4036e2175a5b722aull},  // MCS 4 soft 40 MHz
  {8, 1, 0x4038f5b8c353bf60ull},  // MCS 5 hard 20 MHz
  {116, 1, 0x4037c59eb95fe260ull},  // MCS 5 hard 40 MHz
  {0, 0, 0x403a1b69abd5e3e6ull},  // MCS 5 soft 20 MHz
  {0, 0, 0x4039e86260038021ull},  // MCS 5 soft 40 MHz
  {394, 2, 0x403b128c33b5f578ull},  // MCS 6 hard 20 MHz
  {64, 1, 0x403c4cc0be8f7297ull},  // MCS 6 hard 40 MHz
  {0, 0, 0x403bf50bb0a9f22aull},  // MCS 6 soft 20 MHz
  {0, 0, 0x403da70019dac064ull},  // MCS 6 soft 40 MHz
  {275, 2, 0x403dd49bfab01c2cull},  // MCS 7 hard 20 MHz
  {224, 1, 0x403de6dd5dd58075ull},  // MCS 7 hard 40 MHz
  {276, 1, 0x403c148cc1d21a06ull},  // MCS 7 soft 20 MHz
  {0, 0, 0x403e1e8d2f91ae3bull},  // MCS 7 soft 40 MHz
};

TEST(PhyChain, GoldenGridCounts) {
  static const double kSnrDb[8] = {8, 11, 14, 17, 21, 25, 27, 29};
  int point = 0;
  for (int mcs = 0; mcs < 8; ++mcs) {
    for (const bool soft : {false, true}) {
      for (const auto width :
           {phy::ChannelWidth::k20MHz, phy::ChannelWidth::k40MHz}) {
        PhyChainConfig cfg;
        cfg.mcs_index = mcs;
        cfg.width = width;
        cfg.packet_bytes = 1500;
        cfg.tx_dbm = 10.0;
        cfg.rayleigh = true;
        cfg.num_taps = 3;
        cfg.soft_decision = soft;
        const double noise_dbm =
            cfg.noise_psd_dbm_per_hz + 10.0 * std::log10(phy::width_hz(width));
        cfg.path_loss_db = cfg.tx_dbm - noise_dbm - kSnrDb[mcs];
        util::Rng rng(0x601D0000u + static_cast<std::uint64_t>(point));
        const PhyChainResult r = run_phy_chain(cfg, 2, rng);
        const GoldenPoint& want = kGolden[point];
        EXPECT_EQ(r.bit_errors, want.bit_errors) << "point " << point;
        EXPECT_EQ(r.packet_errors, want.packet_errors) << "point " << point;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.mean_snr_db),
                  want.mean_snr_bits)
            << "point " << point;
        ++point;
      }
    }
  }
}

}  // namespace
}  // namespace acorn::baseband
