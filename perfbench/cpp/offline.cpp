// The offline workloads: library calls from a seed to a result, with no
// daemon involved.
//
//   offline_gap     dcb::run_gap_report, one dense random-drop scenario per
//                   call (Algorithm 2 against Kai et al.'s exact optimum
//                   plus the three DCB width policies)
//   baseband_coded  baseband::run_phy_chain over MCS 0-7 x {hard, soft} x
//                   {20, 40 MHz}, a few 1500-byte packets per call
//
// The traced mode re-runs the round's timed items through the benchmark's
// own composition of the modules' public calls, with a span around each
// call, and requires the composed result to be bit-identical to the
// library call it replays.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "baseband/channel.hpp"
#include "baseband/convolutional.hpp"
#include "baseband/engine.hpp"
#include "baseband/interleaver.hpp"
#include "baseband/ofdm.hpp"
#include "baseband/phy_chain.hpp"
#include "baseband/qam.hpp"
#include "baseband/scrambler.hpp"
#include "baselines/kai.hpp"
#include "baselines/simple.hpp"
#include "common.hpp"
#include "core/allocation.hpp"
#include "core/oracle_cache.hpp"
#include "dcb/gap_report.hpp"
#include "dcb/policy.hpp"
#include "dcb/random_drop.hpp"
#include "phy/mcs.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace {

using namespace acorn;

std::uint64_t item_seed(std::uint64_t seed, std::size_t i) {
  return util::Rng::derive_stream(seed, i).next_u64();
}

// Times a sequence of library calls, one item each, on both clocks.
class ItemClock {
 public:
  void start() { start_ = Stamp::now(); }
  void stop() {
    const Stamp now = Stamp::now();
    const Stamp last = done_.empty() ? Stamp{} : done_.back();
    done_.push_back(Stamp{last.wall_ns + now.wall_ns - start_.wall_ns,
                          last.cpu_ns + now.cpu_ns - start_.cpu_ns});
    item_us_.push_back(static_cast<double>(now.cpu_ns - start_.cpu_ns) / 1e3);
  }
  void fill(Timing& timing, std::int64_t units_each) {
    timing.set_parts(done_, units_each);
    timing.item_us = std::move(item_us_);
    timing.independent_items = true;
  }

 private:
  Stamp start_;
  std::vector<Stamp> done_;
  std::vector<double> item_us_;
};

// ---- offline_gap -----------------------------------------------------------

constexpr std::size_t kGapWarmup = 2;
constexpr double kGapRate = 60.0;  // scenarios per second of --seconds

dcb::GapReportConfig gap_config(std::uint64_t seed, int scenarios) {
  dcb::GapReportConfig cfg;
  cfg.seed = seed;
  cfg.num_scenarios = scenarios;
  cfg.num_threads = 1;
  return cfg;
}

struct GapTotals {
  long long kai_evaluations = 0;
  long long alloc_evaluations = 0;
  long long switches = 0;
  core::OracleCacheStats oracle;
};

// The spans of one traced scenario, in call order, and the per-scenario
// layer metric each one becomes.
constexpr std::pair<const char*, const char*> kGapSpans[] = {
    {"dcb.drop", "dcb.drop.us"},
    {"sim.build", "sim.build.us"},
    {"baselines.assoc", "baselines.assoc.us"},
    {"core.oracle.build", "core.oracle.build_us"},
    {"core.alloc", "core.alloc.us"},
    {"baselines.kai", "baselines.kai.us"},
    {"dcb.policy", "dcb.policy.us"},
};

// run_gap_report's per-scenario body, one public call at a time, with a
// span around each call.
dcb::GapScenario traced_gap_scenario(const dcb::GapReportConfig& config,
                                     Tracer& t, std::uint32_t item,
                                     GapTotals& totals) {
  int id[7];
  for (int i = 0; i < 7; ++i) id[i] = t.name_id(kGapSpans[i].first);

  util::Rng rng = util::Rng::derive_stream(config.seed, 0);
  const std::vector<dcb::WidthPolicy> policies =
      dcb::standard_policies(config.wide_probability);
  core::AllocationConfig alloc_config;
  alloc_config.num_threads = 1;
  baselines::KaiConfig kai_config;
  kai_config.max_exact_evaluations = config.max_exact_evaluations;

  std::int64_t s = now_ns();
  const sim::DeploymentSpec spec = dcb::random_drop(config.drop, rng);
  std::int64_t e = now_ns();
  t.record(id[0], item, s, e);
  s = e;
  const sim::Wlan wlan = spec.build(config.wlan);
  e = now_ns();
  t.record(id[1], item, s, e);
  const net::ChannelPlan plan(spec.num_channels);
  s = now_ns();
  const net::Association assoc = baselines::rss_associate_all(wlan);
  e = now_ns();
  t.record(id[2], item, s, e);
  s = e;
  const core::CachedOracle oracle(wlan, assoc, config.traffic);
  e = now_ns();
  t.record(id[3], item, s, e);
  const core::ChannelAllocator allocator(plan, alloc_config);
  s = now_ns();
  const core::AllocationResult acorn = allocator.allocate(
      wlan, assoc,
      allocator.random_assignment(wlan.topology().num_aps(), rng), oracle);
  e = now_ns();
  t.record(id[4], item, s, e);
  s = e;
  const baselines::KaiResult optimal =
      baselines::kai_optimal_allocation(oracle, plan, rng, kai_config);
  e = now_ns();
  t.record(id[5], item, s, e);

  dcb::GapScenario out;
  out.acorn_bps = acorn.final_bps;
  out.optimal_bps = optimal.total_bps;
  out.exact = optimal.exact;
  out.acorn_evaluations = acorn.evaluations;
  out.optimal_evaluations = optimal.evaluations;
  out.gap = optimal.total_bps > 0.0
                ? std::max(0.0, (optimal.total_bps - acorn.final_bps) /
                                    optimal.total_bps)
                : 0.0;
  s = now_ns();
  for (const dcb::WidthPolicy& policy : policies) {
    out.policy_bps.push_back(
        dcb::evaluate_policy(oracle.snapshot(), acorn.assignment, policy,
                             config.traffic)
            .total_goodput_bps);
  }
  e = now_ns();
  t.record(id[6], item, s, e);

  totals.kai_evaluations += optimal.evaluations;
  totals.alloc_evaluations += acorn.evaluations;
  totals.switches += acorn.switches;
  const core::OracleCacheStats st = oracle.stats();
  totals.oracle.cell_evals += st.cell_evals;
  totals.oracle.cell_hits += st.cell_hits;
  totals.oracle.share_evals += st.share_evals;
  totals.oracle.share_hits += st.share_hits;
  totals.oracle.batch_candidates += st.batch_candidates;
  totals.oracle.batch_full_evals += st.batch_full_evals;
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_scenario(const dcb::GapScenario& a, const dcb::GapScenario& b) {
  if (!same_bits(a.acorn_bps, b.acorn_bps) ||
      !same_bits(a.optimal_bps, b.optimal_bps) || !same_bits(a.gap, b.gap) ||
      a.exact != b.exact || a.acorn_evaluations != b.acorn_evaluations ||
      a.optimal_evaluations != b.optimal_evaluations ||
      a.policy_bps.size() != b.policy_bps.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.policy_bps.size(); ++i) {
    if (!same_bits(a.policy_bps[i], b.policy_bps[i])) return false;
  }
  return true;
}

// Algorithm 2 can never beat the exact optimum, and every figure of a
// scenario is a finite throughput.
bool plausible(const dcb::GapScenario& s) {
  if (!s.exact || !(s.optimal_bps > 0.0) || !std::isfinite(s.acorn_bps) ||
      s.acorn_bps > s.optimal_bps * (1.0 + 1e-12) || s.gap < 0.0 ||
      s.gap > 1.0 || s.policy_bps.size() != 3) {
    return false;
  }
  for (const double bps : s.policy_bps) {
    if (!std::isfinite(bps) || bps < 0.0) return false;
  }
  return true;
}

std::uint64_t scenario_hash(const dcb::GapScenario& s, std::uint64_t h) {
  h = fnv1a_value(s.acorn_bps, h);
  h = fnv1a_value(s.optimal_bps, h);
  h = fnv1a_value(s.acorn_evaluations, h);
  h = fnv1a_value(s.optimal_evaluations, h);
  for (const double bps : s.policy_bps) h = fnv1a_value(bps, h);
  return h;
}

// ---- baseband_coded --------------------------------------------------------

constexpr int kPacketsPerCall = 4;
constexpr double kBasebandRate = 560.0;  // packets per second of --seconds

// MCS 0-7 x {hard, soft} x {20, 40 MHz}. Path loss puts each MCS a few dB
// into its waterfall under 3-tap Rayleigh fading, so every point decodes
// most packets and loses some.
std::vector<baseband::PhyChainConfig> phy_grid() {
  static const double kSnrDb[8] = {8, 11, 14, 17, 21, 25, 27, 29};
  std::vector<baseband::PhyChainConfig> grid;
  for (int mcs = 0; mcs < 8; ++mcs) {
    for (const bool soft : {false, true}) {
      for (const auto width :
           {phy::ChannelWidth::k20MHz, phy::ChannelWidth::k40MHz}) {
        baseband::PhyChainConfig cfg;
        cfg.mcs_index = mcs;
        cfg.width = width;
        cfg.packet_bytes = 1500;
        cfg.tx_dbm = 10.0;
        cfg.rayleigh = true;
        cfg.num_taps = 3;
        cfg.soft_decision = soft;
        cfg.num_threads = 1;
        const double noise_dbm =
            cfg.noise_psd_dbm_per_hz + 10.0 * std::log10(phy::width_hz(width));
        cfg.path_loss_db = cfg.tx_dbm - noise_dbm - kSnrDb[mcs];
        grid.push_back(cfg);
      }
    }
  }
  return grid;
}

struct PhyCall {
  std::size_t point = 0;
  std::uint64_t seed = 0;
};

struct StageTotals {
  std::int64_t payload_bits = 0;
  std::int64_t coded_bits = 0;
  std::int64_t qam_symbols = 0;
  std::int64_t ofdm_symbols = 0;
  std::int64_t samples = 0;
};

// run_phy_chain for one call, one public _into call at a time, with a span
// around each stage.
baseband::PhyChainResult traced_phy_chain(const baseband::PhyChainConfig& cfg,
                                          int packets, util::Rng& rng,
                                          Tracer& t, std::uint32_t item,
                                          StageTotals& totals) {
  using baseband::Cx;
  const int id_encode = t.name_id("baseband.encode");
  const int id_inter = t.name_id("baseband.interleave");
  const int id_qam = t.name_id("baseband.qam");
  const int id_ofdm = t.name_id("baseband.ofdm");
  const int id_channel = t.name_id("baseband.channel");
  const int id_viterbi = t.name_id("baseband.viterbi");

  const phy::McsEntry& entry = phy::mcs(cfg.mcs_index);
  const baseband::Ofdm ofdm(cfg.width);
  const baseband::BlockInterleaver interleaver =
      baseband::BlockInterleaver::for_ht(cfg.width, entry.modulation);
  const baseband::ConvolutionalCode code;
  baseband::ChannelConfig ch;
  ch.sample_rate_hz = phy::width_hz(cfg.width);
  ch.noise_psd_dbm_per_hz = cfg.noise_psd_dbm_per_hz;
  ch.noise_figure_db = cfg.noise_figure_db;
  ch.path_loss_db = cfg.path_loss_db;
  ch.num_taps = cfg.num_taps;
  ch.rayleigh = cfg.rayleigh;
  util::Rng scratch_rng(0);
  baseband::FadingChannel channel(ch, scratch_rng);

  const std::size_t n_bits = static_cast<std::size_t>(cfg.packet_bytes) * 8;
  const std::size_t coded_len =
      baseband::ConvolutionalCode::encoded_length(n_bits);
  const std::size_t punct_len =
      baseband::punctured_length(coded_len, entry.code_rate);
  const auto n_cbps = static_cast<std::size_t>(interleaver.block_size());
  const std::size_t padded = (punct_len + n_cbps - 1) / n_cbps * n_cbps;
  const auto k =
      static_cast<std::size_t>(phy::bits_per_symbol(entry.modulation));
  const std::size_t n_qam = padded / k;
  const std::size_t n_ofdm = ofdm.num_ofdm_symbols(n_qam);
  const auto slen = static_cast<std::size_t>(ofdm.symbol_length());
  const auto fft = static_cast<std::size_t>(ofdm.fft_size());

  std::vector<std::uint8_t> bits(n_bits), decoded(n_bits), scrambled(n_bits);
  std::vector<std::uint8_t> coded(coded_len), tx_bits(padded, 0),
      inter(padded), rx_bits(padded), deinter(padded), depunct(coded_len);
  std::vector<Cx> symbols(n_qam), tx(n_ofdm * slen),
      rx(n_ofdm * slen + static_cast<std::size_t>(cfg.num_taps) - 1), h(fft),
      eq(n_qam), scratch(fft);
  std::vector<double> noise_vars(n_qam), llrs(padded), deinter_llrs(padded),
      depunct_soft(coded_len);
  baseband::ViterbiWorkspace viterbi;
  viterbi.reserve(coded_len / 2);

  const double tx_mw = util::dbm_to_mw(cfg.tx_dbm);
  const std::uint64_t stream_seed = rng.next_u64();
  baseband::PhyChainResult result;
  for (int p = 0; p < packets; ++p) {
    util::Rng prng =
        util::Rng::derive_stream(stream_seed, static_cast<std::uint64_t>(p));
    prng.fill_bits(bits);
    channel.redraw(prng);

    std::int64_t s = now_ns();
    baseband::Scrambler scrambler;
    scrambler.process_into(bits, scrambled);
    code.encode_into(scrambled, coded);
    baseband::puncture_into(coded, entry.code_rate,
                            std::span(tx_bits).first(punct_len));
    std::int64_t e = now_ns();
    t.record(id_encode, item, s, e);
    s = e;
    interleaver.interleave_stream_into(tx_bits, inter);
    e = now_ns();
    t.record(id_inter, item, s, e);
    s = e;
    baseband::qam_modulate_into(inter, entry.modulation, symbols);
    e = now_ns();
    t.record(id_qam, item, s, e);
    s = e;
    ofdm.modulate_into(symbols, tx_mw, tx);
    e = now_ns();
    t.record(id_ofdm, item, s, e);
    s = e;
    channel.transmit_into(tx, rx, prng);
    channel.frequency_response_into(h);
    e = now_ns();
    t.record(id_channel, item, s, e);
    s = e;
    ofdm.demodulate_into(rx, h, eq, tx_mw, scratch);
    e = now_ns();
    t.record(id_ofdm, item, s, e);

    if (cfg.soft_decision) {
      const double amp = ofdm.subcarrier_amplitude(tx_mw);
      const double post_fft_noise =
          channel.noise_variance_mw() * ofdm.fft_size();
      const auto data_bins = ofdm.data_bins();
      const auto nd = static_cast<std::size_t>(ofdm.num_data_subcarriers());
      std::size_t d = 0;
      for (std::size_t i = 0; i < eq.size(); ++i) {
        const auto bin = static_cast<std::size_t>(data_bins[d]);
        if (++d == nd) d = 0;
        const double h2 = std::max(std::norm(h[bin]), 1e-12);
        noise_vars[i] = post_fft_noise / (amp * amp * h2);
      }
      s = now_ns();
      baseband::qam_soft_demodulate_into(eq, entry.modulation, noise_vars,
                                         llrs);
      e = now_ns();
      t.record(id_qam, item, s, e);
      s = e;
      interleaver.deinterleave_stream_into(std::span<const double>(llrs),
                                           deinter_llrs);
      e = now_ns();
      t.record(id_inter, item, s, e);
      s = e;
      baseband::depuncture_soft_into(
          std::span<const double>(deinter_llrs).first(punct_len),
          entry.code_rate, depunct_soft);
      code.decode_soft_into(depunct_soft, decoded, viterbi);
      e = now_ns();
      t.record(id_viterbi, item, s, e);
    } else {
      s = now_ns();
      baseband::qam_demodulate_into(eq, entry.modulation, rx_bits);
      e = now_ns();
      t.record(id_qam, item, s, e);
      s = e;
      interleaver.deinterleave_stream_into(rx_bits, deinter);
      e = now_ns();
      t.record(id_inter, item, s, e);
      s = e;
      baseband::depuncture_into(
          std::span<const std::uint8_t>(deinter).first(punct_len),
          entry.code_rate, depunct);
      code.decode_into(depunct, decoded, viterbi);
      e = now_ns();
      t.record(id_viterbi, item, s, e);
    }
    s = now_ns();
    scrambler.reset(0x5D);
    scrambler.process_into(decoded, decoded);
    e = now_ns();
    t.record(id_encode, item, s, e);

    const std::int64_t errors = baseband::count_bit_errors(bits, decoded);
    result.bits_sent += static_cast<std::int64_t>(n_bits);
    result.bit_errors += errors;
    result.packets_sent += 1;
    if (errors > 0) result.packet_errors += 1;
    totals.payload_bits += static_cast<std::int64_t>(n_bits);
    totals.coded_bits += static_cast<std::int64_t>(padded);
    totals.qam_symbols += static_cast<std::int64_t>(n_qam);
    totals.ofdm_symbols += static_cast<std::int64_t>(n_ofdm);
    totals.samples += static_cast<std::int64_t>(tx.size());
  }
  return result;
}

double per(std::int64_t ns, std::int64_t n, double scale) {
  return n == 0 ? 0.0
                : static_cast<double>(ns) / scale / static_cast<double>(n);
}

}  // namespace

Report run_offline_gap(const Options& opt, Tracer* tracer) {
  Report report;
  const std::size_t timed = items_for(opt.seconds, kGapRate);
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < kGapWarmup + timed; ++i) {
    seeds.push_back(item_seed(opt.seed, i));
  }

  // Set-up: a fresh process's first calls, which also build the shared
  // rate tables.
  const Stamp t0 = Stamp::now();
  for (std::size_t i = 0; i < kGapWarmup; ++i) {
    (void)dcb::run_gap_report(gap_config(seeds[i], 1));
  }
  report.timing.set_setup(t0);

  std::vector<dcb::GapScenario> results;
  std::vector<double> gaps;
  ItemClock clock;
  for (std::size_t i = kGapWarmup; i < seeds.size(); ++i) {
    clock.start();
    dcb::GapReport rep = dcb::run_gap_report(gap_config(seeds[i], 1));
    clock.stop();
    if (rep.scenarios.size() != 1 || !plausible(rep.scenarios[0])) {
      report.fail("implausible gap scenario for seed " +
                  std::to_string(seeds[i]));
      results.emplace_back();
      continue;
    }
    gaps.push_back(rep.scenarios[0].gap);
    results.push_back(std::move(rep.scenarios[0]));
  }
  clock.fill(report.timing, 1);
  report.attempted += static_cast<std::int64_t>(timed);
  double gap_sum = 0.0;
  for (const double g : gaps) gap_sum += g;
  set_metric(report.info, "gap.mean_pct",
             gaps.empty() ? 0.0
                          : 100.0 * gap_sum / static_cast<double>(gaps.size()),
             "%", static_cast<std::int64_t>(gaps.size()));
  set_metric(report.info, "gap.p95_pct", 100.0 * quantile(gaps, 0.95), "%",
             static_cast<std::int64_t>(gaps.size()));
  if (tracer == nullptr) return report;

  std::int64_t traced_wall_ns = 0;
  GapTotals totals;
  for (std::size_t i = kGapWarmup; i < seeds.size(); ++i) {
    const std::int64_t s = now_ns();
    const dcb::GapScenario got =
        traced_gap_scenario(gap_config(seeds[i], 1), *tracer,
                            static_cast<std::uint32_t>(i), totals);
    traced_wall_ns += now_ns() - s;
    if (!same_scenario(got, results[i - kGapWarmup])) {
      report.fail("traced composition differs from run_gap_report");
    }
  }
  report.attempted += static_cast<std::int64_t>(timed);
  const auto n = static_cast<std::int64_t>(timed);
  const Tracer& t = *tracer;
  std::int64_t attributed = 0;
  for (const auto& [span, metric] : kGapSpans) {
    const std::int64_t ns = t.total_ns(span);
    attributed += ns;
    set_metric(report.layers, metric, per(ns, n, 1e3), "us", n);
  }
  set_metric(report.layers, "unattributed_us",
             per(traced_wall_ns - attributed, n, 1e3), "us", n);
  set_overhead(report.layers, report.timing, traced_wall_ns, n);
  set_count(report.layers, "baselines.kai.evaluations",
            static_cast<double>(totals.kai_evaluations), n);
  set_count(report.layers, "core.alloc.evaluations",
            static_cast<double>(totals.alloc_evaluations), n);
  set_count(report.layers, "core.decisions",
            static_cast<double>(totals.switches), n);
  const core::OracleCacheStats& o = totals.oracle;
  set_metric(report.layers, "core.oracle.cell_hit_ratio",
             hit_ratio(o.cell_hits, o.cell_evals), "ratio",
             static_cast<std::int64_t>(o.cell_hits + o.cell_evals));
  set_metric(report.layers, "core.oracle.share_hit_ratio",
             hit_ratio(o.share_hits, o.share_evals), "ratio",
             static_cast<std::int64_t>(o.share_hits + o.share_evals));
  set_metric(report.layers, "core.alloc.batch_full_ratio",
             o.batch_candidates == 0
                 ? 0.0
                 : static_cast<double>(o.batch_full_evals) /
                       static_cast<double>(o.batch_candidates),
             "ratio", static_cast<std::int64_t>(o.batch_candidates));
  set_metric(report.layers, "phy.rate_table_ms", rate_table_ms(), "ms", 3);
  return report;
}

Report run_baseband_coded(const Options& opt, Tracer* tracer) {
  Report report;
  const std::vector<baseband::PhyChainConfig> grid = phy_grid();
  // Calls cycle over the grid, so every run mixes the grid points alike.
  const std::size_t timed =
      items_for(opt.seconds, kBasebandRate / kPacketsPerCall);
  std::vector<PhyCall> calls;
  for (std::size_t i = 0; i < grid.size() + timed; ++i) {
    calls.push_back(PhyCall{i % grid.size(), item_seed(opt.seed, i)});
  }

  // Set-up: one single-packet call per grid point (the warm-up slice,
  // which also fills the FFT plan cache).
  const Stamp t0 = Stamp::now();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    util::Rng rng(calls[i].seed);
    (void)baseband::run_phy_chain(grid[calls[i].point], 1, rng);
  }
  report.timing.set_setup(t0);

  std::vector<baseband::PhyChainResult> results;
  ItemClock clock;
  baseband::PhyChainResult sum;
  for (std::size_t i = grid.size(); i < calls.size(); ++i) {
    util::Rng rng(calls[i].seed);
    clock.start();
    const baseband::PhyChainResult res =
        baseband::run_phy_chain(grid[calls[i].point], kPacketsPerCall, rng);
    clock.stop();
    sum.packets_sent += res.packets_sent;
    sum.packet_errors += res.packet_errors;
    if (res.packets_sent != kPacketsPerCall ||
        res.bits_sent != kPacketsPerCall * 1500 * 8 ||
        res.packet_errors > res.packets_sent ||
        res.bit_errors > res.bits_sent || !std::isfinite(res.mean_snr_db)) {
      report.fail("inconsistent run_phy_chain statistics");
    }
    results.push_back(res);
  }
  // Throughput counts packets; latency is per call.
  clock.fill(report.timing, kPacketsPerCall);
  report.attempted += sum.packets_sent;
  set_metric(report.info, "baseband.packet_error_rate",
             static_cast<double>(sum.packet_errors) /
                 static_cast<double>(sum.packets_sent),
             "ratio", sum.packets_sent);
  if (tracer == nullptr) return report;

  std::int64_t traced_packets = 0;
  std::int64_t traced_wall_ns = 0;
  baseband::PhyChainResult traced_sum;
  StageTotals stages;
  for (std::size_t i = grid.size(); i < calls.size(); ++i) {
    util::Rng rng(calls[i].seed);
    const std::int64_t s = now_ns();
    const baseband::PhyChainResult got =
        traced_phy_chain(grid[calls[i].point], kPacketsPerCall, rng, *tracer,
                         static_cast<std::uint32_t>(i), stages);
    traced_wall_ns += now_ns() - s;
    traced_packets += got.packets_sent;
    traced_sum.bit_errors += got.bit_errors;
    traced_sum.packet_errors += got.packet_errors;
    const baseband::PhyChainResult& want = results[i - grid.size()];
    if (got.bit_errors != want.bit_errors ||
        got.packet_errors != want.packet_errors) {
      report.fail("traced composition differs from run_phy_chain");
    }
  }
  report.attempted += traced_packets;
  const Tracer& t = *tracer;
  const struct {
    const char* span;
    const char* metric;
    std::int64_t units;
    const char* unit;
  } stage_rows[] = {
      {"baseband.encode", "baseband.encode_ns_per_bit", stages.payload_bits,
       "ns/bit"},
      {"baseband.interleave", "baseband.interleave_ns_per_bit",
       stages.coded_bits, "ns/bit"},
      {"baseband.qam", "baseband.qam_ns_per_symbol", stages.qam_symbols,
       "ns/symbol"},
      {"baseband.ofdm", "baseband.ofdm_ns_per_symbol", stages.ofdm_symbols,
       "ns/symbol"},
      {"baseband.channel", "baseband.channel_ns_per_sample", stages.samples,
       "ns/sample"},
      {"baseband.viterbi", "baseband.viterbi_ns_per_bit", stages.payload_bits,
       "ns/bit"},
  };
  std::int64_t attributed = 0;
  for (const auto& row : stage_rows) {
    const std::int64_t ns = t.total_ns(row.span);
    attributed += ns;
    set_metric(report.layers, row.metric, per(ns, row.units, 1.0), row.unit,
               row.units);
  }
  set_metric(report.layers, "unattributed_us",
             per(traced_wall_ns - attributed, traced_packets, 1e3), "us",
             traced_packets);
  set_overhead(report.layers, report.timing, traced_wall_ns, traced_packets);
  set_count(report.layers, "baseband.bit_errors",
            static_cast<double>(traced_sum.bit_errors), traced_packets);
  set_count(report.layers, "baseband.packet_errors",
            static_cast<double>(traced_sum.packet_errors), traced_packets);
  set_metric(report.layers, "phy.rate_table_ms", rate_table_ms(), "ms", 3);
  return report;
}

// ---- recorded check cases --------------------------------------------------

namespace {
constexpr std::uint64_t kCheckSeed = 11272481;
}  // namespace

// The yardstick's quoted run: 200 dense scenarios from seed 11272481.
constexpr int kCheckScenarios = 200;

void check_offline_gap(Report& report) {
  const dcb::GapReport rep =
      dcb::run_gap_report(gap_config(kCheckSeed, kCheckScenarios));
  report.attempted += kCheckScenarios;
  std::uint64_t h = 0xcbf29ce484222325ull;
  long long evaluations = 0;
  for (const dcb::GapScenario& s : rep.scenarios) {
    h = scenario_hash(s, h);
    evaluations += s.acorn_evaluations + s.optimal_evaluations;
  }
  const std::string key = "offline_gap.";
  char buf[64];
  report.checks[key + "exact"] =
      std::to_string(rep.num_exact) + "/" + std::to_string(kCheckScenarios);
  std::snprintf(buf, sizeof(buf), "%.2f", 100.0 * rep.mean_gap);
  report.checks[key + "mean_gap_pct"] = buf;
  std::snprintf(buf, sizeof(buf), "%.2f", 100.0 * rep.p95_gap);
  report.checks[key + "p95_gap_pct"] = buf;
  report.checks[key + "evaluations"] = std::to_string(evaluations);
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  report.checks[key + "scenario_fnv"] = buf;
}

void check_baseband_coded(Report& report) {
  const std::vector<baseband::PhyChainConfig> grid = phy_grid();
  std::int64_t bit_errors = 0;
  std::int64_t packet_errors = 0;
  std::int64_t packets = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    util::Rng rng(item_seed(kCheckSeed, i));
    const baseband::PhyChainResult res =
        baseband::run_phy_chain(grid[i], 2, rng);
    bit_errors += res.bit_errors;
    packet_errors += res.packet_errors;
    packets += res.packets_sent;
  }
  report.attempted += packets;
  report.checks["baseband_coded.bit_errors"] = std::to_string(bit_errors);
  report.checks["baseband_coded.packet_errors"] = std::to_string(packet_errors);
}

}  // namespace perfbench
