// Monte-Carlo baseband engine throughput: fixed-configuration packet
// sweeps through the uncoded (BERMAC) and coded (phy_chain) chains, the
// workloads that dominate every paper figure. Appends packets/sec and
// Msamples/sec records to BENCH_baseband.json so the perf trajectory is
// tracked across PRs (ACORN_BENCH_LABEL tags before/after runs).
#include <cstdio>

#include "baseband/bermac.hpp"
#include "baseband/convolutional.hpp"
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
  return 0;
}
