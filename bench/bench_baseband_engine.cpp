// Monte-Carlo baseband engine throughput: fixed-configuration packet
// sweeps through the uncoded (BERMAC) and coded (phy_chain) chains, the
// workloads that dominate every paper figure, and the chain's vector
// kernels on their own (the OFDM FFT sizes and the 3-tap channel).
// Appends packets/sec and Msamples/sec records to BENCH_baseband.json so
// the perf trajectory is tracked across PRs (ACORN_BENCH_LABEL tags
// before/after runs). A kernel row's `packets` counts transforms or
// channel transmissions.
#include <cstdio>
#include <span>
#include <vector>

#include "baseband/bermac.hpp"
#include "baseband/channel.hpp"
#include "baseband/convolutional.hpp"
#include "baseband/fft.hpp"
#include "baseband/ofdm.hpp"
#include "baseband/phy_chain.hpp"
#include "common.hpp"

using namespace acorn;

namespace {

std::int64_t bermac_samples_per_packet(const baseband::BermacConfig& cfg) {
  const baseband::Ofdm ofdm(cfg.width);
  const std::int64_t antennas = cfg.use_stbc ? 2 : 1;
  return antennas * static_cast<std::int64_t>(
                        ofdm.num_ofdm_symbols(
                            static_cast<std::size_t>(cfg.packet_bytes) * 8 /
                            2) *
                        static_cast<std::size_t>(ofdm.symbol_length()));
}

void run_bermac_case(const char* name, bool stbc,
                     const bench::BenchOptions& opts) {
  baseband::BermacConfig cfg;
  cfg.packets = opts.smoke ? 10 : 200;
  cfg.packet_bytes = 1500;
  cfg.use_stbc = stbc;
  cfg.rayleigh = false;
  cfg.num_taps = 1;
  cfg.path_loss_db = stbc ? 94.0 : 96.0;
  cfg.tx_dbm = 6.0;
  cfg.num_threads = opts.threads;
  util::Rng rng(bench::kDefaultSeed);
  const bench::Stopwatch timer;
  const baseband::BermacResult r = run_bermac(cfg, rng);
  const double s = timer.seconds();
  std::printf("%-22s %8.1f pkt/s  (ber %.3g, per %.3f)\n", name,
              cfg.packets / s, r.ber(), r.per());
  bench::emit_throughput("bench_baseband_engine", name, s, cfg.packets,
                         cfg.packets * bermac_samples_per_packet(cfg),
                         opts.threads);
}

// One coded-chain case over a static 1-tap channel. `mcs` 2 is QPSK 3/4;
// `mcs` 7 is 64-QAM 5/6, the largest constellation the demappers serve.
void run_chain_case(const char* name, int mcs, int packet_bytes,
                    double path_loss_db, bool soft,
                    const bench::BenchOptions& opts) {
  baseband::PhyChainConfig cfg;
  cfg.mcs_index = mcs;
  cfg.packet_bytes = packet_bytes;
  cfg.rayleigh = false;
  cfg.num_taps = 1;
  cfg.path_loss_db = path_loss_db;
  cfg.tx_dbm = 0.0;
  cfg.soft_decision = soft;
  cfg.num_threads = opts.threads;
  const int packets = opts.smoke ? 10 : 100;
  util::Rng rng(bench::kDefaultSeed);
  const bench::Stopwatch timer;
  const baseband::PhyChainResult r = run_phy_chain(cfg, packets, rng);
  const double s = timer.seconds();
  const baseband::Ofdm ofdm(cfg.width);
  // Coded-packet sample count: data bits -> rate-1/2 + tail -> punctured
  // to the MCS rate -> whole OFDM symbols of N_CBPS coded bits.
  const phy::McsEntry& entry = phy::mcs(mcs);
  const auto punctured = static_cast<std::int64_t>(baseband::punctured_length(
      baseband::ConvolutionalCode::encoded_length(
          static_cast<std::size_t>(packet_bytes) * 8),
      entry.code_rate));
  const std::int64_t n_cbps = ofdm.num_data_subcarriers() *
                              phy::bits_per_symbol(entry.modulation);
  const std::int64_t n_sym = (punctured + n_cbps - 1) / n_cbps;
  std::printf("%-22s %8.1f pkt/s  (per %.3f)\n", name, packets / s, r.per());
  bench::emit_throughput("bench_baseband_engine", name, s, packets,
                         packets * n_sym * ofdm.symbol_length(),
                         opts.threads);
}

// One shared plan's transforms over a batch of 16 random vectors, the
// batch refilled between timed passes so that repeated transforms never
// overflow or decay into denormals; the batch stays in L1 like the OFDM
// chain's one-symbol buffer.
void run_fft_case(const char* name, std::size_t n, bool inverse,
                  const bench::BenchOptions& opts) {
  constexpr std::size_t kBatch = 16;
  const int passes = opts.smoke ? 100 : 12500;
  util::Rng rng(bench::kDefaultSeed);
  std::vector<baseband::Cx> pristine(kBatch * n);
  for (auto& x : pristine) x = baseband::Cx(rng.normal(), rng.normal());
  std::vector<baseband::Cx> work(pristine.size());
  const baseband::FftPlan& plan = baseband::fft_plan(n);
  double seconds = 0.0;
  for (int p = 0; p < passes; ++p) {
    work = pristine;
    const bench::Stopwatch timer;
    for (std::size_t b = 0; b < kBatch; ++b) {
      const std::span<baseband::Cx> v(work.data() + b * n, n);
      if (inverse) {
        plan.inverse(v);
      } else {
        plan.forward(v);
      }
    }
    seconds += timer.seconds();
  }
  const std::int64_t transforms = static_cast<std::int64_t>(passes) * kBatch;
  std::printf("%-22s %8.1f ns/transform\n", name,
              seconds / static_cast<double>(transforms) * 1e9);
  bench::emit_throughput("bench_baseband_engine", name, seconds, transforms,
                         transforms * static_cast<std::int64_t>(n), 1);
}

// FadingChannel::transmit_into (3-tap convolution plus AWGN) on one
// packet's worth of samples: 12,000, about a 1500-byte coded packet.
void run_channel_case(const char* name, const bench::BenchOptions& opts) {
  constexpr std::size_t kSamples = 12000;
  const int packets = opts.smoke ? 20 : 2000;
  util::Rng rng(bench::kDefaultSeed);
  baseband::ChannelConfig cfg;
  cfg.num_taps = 3;
  baseband::FadingChannel channel(cfg, rng);
  std::vector<baseband::Cx> tx(kSamples);
  for (auto& x : tx) x = baseband::Cx(rng.normal(), rng.normal());
  std::vector<baseband::Cx> rx(kSamples + 2);
  const bench::Stopwatch timer;
  for (int p = 0; p < packets; ++p) channel.transmit_into(tx, rx, rng);
  const double s = timer.seconds();
  std::printf("%-22s %8.1f pkt/s  (%.1f ns/sample)\n", name, packets / s,
              s / (static_cast<double>(packets) * kSamples) * 1e9);
  bench::emit_throughput("bench_baseband_engine", name, s, packets,
                         packets * static_cast<std::int64_t>(kSamples), 1);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_options(argc, argv);
  bench::banner("Baseband engine throughput",
                "packet sweeps behind Figs. 1-6 and the coded calibration");
  std::printf("threads: %d%s\n\n", opts.threads,
              opts.smoke ? " (smoke)" : "");
  run_bermac_case("bermac_qpsk_siso", false, opts);
  run_bermac_case("bermac_qpsk_stbc", true, opts);
  run_chain_case("phy_chain_mcs2_hard", 2, 300, 95.0, false, opts);
  run_chain_case("phy_chain_mcs2_soft", 2, 300, 95.0, true, opts);
  run_chain_case("phy_chain_mcs7_soft", 7, 1500, 80.0, true, opts);
  run_fft_case("fft64_forward", 64, false, opts);
  run_fft_case("fft128_inverse", 128, true, opts);
  run_channel_case("channel_transmit_3tap", opts);
  return 0;
}
