#include "baseband/bermac.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "baseband/engine.hpp"
#include "baseband/qpsk.hpp"
#include "baseband/stbc.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

namespace acorn::baseband {

namespace {

ChannelConfig channel_config(const BermacConfig& cfg) {
  ChannelConfig ch;
  ch.sample_rate_hz = phy::width_hz(cfg.width);
  ch.noise_psd_dbm_per_hz = cfg.noise_psd_dbm_per_hz;
  ch.noise_figure_db = cfg.noise_figure_db;
  ch.path_loss_db = cfg.path_loss_db;
  ch.num_taps = cfg.num_taps;
  ch.rayleigh = cfg.rayleigh;
  return ch;
}

// Channels are redrawn at the top of every packet from that packet's own
// RNG stream, so the construction-time realization never reaches a
// result — any throwaway seed will do.
FadingChannel make_channel(const ChannelConfig& ch) {
  util::Rng scratch_rng(0);
  return FadingChannel(ch, scratch_rng);
}

struct PacketStats {
  std::int64_t bit_errors = 0;
  double snr_linear = 0.0;  // mean per-subcarrier SNR of this packet
  double evm_sq = 0.0;      // sum |eq - ref|^2 over captured symbols
};

// Everything one worker needs for the SISO chain, sized once so the
// per-packet loop is allocation-free.
struct SisoCtx {
  SisoCtx(const BermacConfig& cfg, const Ofdm& ofdm)
      : channel(make_channel(channel_config(cfg))) {
    const auto n_bits = static_cast<std::size_t>(cfg.packet_bytes) * 8;
    const std::size_t n_syms = (n_bits + 1) / 2;
    const std::size_t n_ofdm = ofdm.num_ofdm_symbols(n_syms);
    const auto slen = static_cast<std::size_t>(ofdm.symbol_length());
    const auto fft = static_cast<std::size_t>(ofdm.fft_size());
    bits.resize(n_bits);
    decoded.resize(2 * n_syms);
    data_syms.resize(n_syms);
    eq.resize(n_syms);
    tx.resize(n_ofdm * slen);
    rx.resize(n_ofdm * slen + static_cast<std::size_t>(cfg.num_taps) - 1);
    h.resize(fft);
    scratch.resize(fft);
  }

  FadingChannel channel;
  std::vector<std::uint8_t> bits;
  std::vector<std::uint8_t> decoded;
  std::vector<Cx> data_syms;
  std::vector<Cx> eq;
  std::vector<Cx> tx;
  std::vector<Cx> rx;
  std::vector<Cx> h;
  std::vector<Cx> scratch;
};

// SISO chain: modulate -> channel -> genie-equalized demodulate.
// `capture` is this packet's slice of the shared constellation buffer
// (possibly empty).
void run_siso_packet(const BermacConfig& cfg, const Ofdm& ofdm,
                     SisoCtx& ctx, util::Rng& rng, PacketStats& stats,
                     std::span<Cx> capture) {
  const double tx_mw = util::dbm_to_mw(cfg.tx_dbm);
  rng.fill_bits(ctx.bits);
  if (cfg.dqpsk) {
    dqpsk_modulate_into(ctx.bits, ctx.data_syms);
  } else {
    qpsk_modulate_into(ctx.bits, ctx.data_syms);
  }
  ofdm.modulate_into(ctx.data_syms, tx_mw, ctx.tx);
  ctx.channel.redraw(rng);
  ctx.channel.transmit_into(ctx.tx, ctx.rx, rng);
  ctx.channel.frequency_response_into(ctx.h);
  ofdm.demodulate_into(ctx.rx, ctx.h, ctx.eq, tx_mw, ctx.scratch);
  if (cfg.dqpsk) {
    dqpsk_demodulate_into(ctx.eq, ctx.decoded);
  } else {
    qpsk_demodulate_into(ctx.eq, ctx.decoded);
  }

  stats.bit_errors += count_bit_errors(ctx.bits, ctx.decoded);
  // Per-subcarrier SNR: amp^2 |H_k|^2 / (N * sigma^2); the FFT multiplies
  // white noise variance by N.
  const double amp = ofdm.subcarrier_amplitude(tx_mw);
  const double post_fft_noise =
      ctx.channel.noise_variance_mw() * ofdm.fft_size();
  double snr_sum = 0.0;
  for (int bin : ofdm.data_bins()) {
    snr_sum += amp * amp * std::norm(ctx.h[static_cast<std::size_t>(bin)]) /
               post_fft_noise;
  }
  stats.snr_linear = snr_sum / ofdm.num_data_subcarriers();

  for (std::size_t i = 0; i < capture.size(); ++i) {
    capture[i] = ctx.eq[i];
    stats.evm_sq += std::norm(ctx.eq[i] - ctx.data_syms[i]);
  }
}

// Worker state for the 2x2 Alamouti chain: four independent fading paths
// with the same path loss, plus the padded symbol grids and the per-
// antenna waveforms.
struct StbcCtx {
  StbcCtx(const BermacConfig& cfg, const Ofdm& ofdm)
      : paths{make_channel(channel_config(cfg)),
              make_channel(channel_config(cfg)),
              make_channel(channel_config(cfg)),
              make_channel(channel_config(cfg))} {
    const auto n_bits = static_cast<std::size_t>(cfg.packet_bytes) * 8;
    n_data = (n_bits + 1) / 2;
    const auto nd = static_cast<std::size_t>(ofdm.num_data_subcarriers());
    n_sym = ofdm.num_ofdm_symbols(n_data);
    if (n_sym % 2 == 1) ++n_sym;  // STBC pairs OFDM symbols
    const std::size_t padded = n_sym * nd;
    const auto slen = static_cast<std::size_t>(ofdm.symbol_length());
    const auto fft = static_cast<std::size_t>(ofdm.fft_size());
    const std::size_t rx_len =
        n_sym * slen + static_cast<std::size_t>(cfg.num_taps) - 1;
    bits.resize(n_bits);
    decoded.resize(2 * n_data);
    data_syms.assign(padded, Cx{});  // tail pad beyond n_data stays zero
    stream_a.resize(padded);
    stream_b.resize(padded);
    recovered.resize(n_data);
    tx_a.resize(n_sym * slen);
    tx_b.resize(n_sym * slen);
    rx_a.resize(rx_len);
    rx_b.resize(rx_len);
    cross.resize(rx_len);
    for (auto& h : freq) h.resize(fft);
    bins_a.resize(padded);
    bins_b.resize(padded);
    scratch.resize(fft);
  }

  std::array<FadingChannel, 4> paths;
  std::size_t n_data = 0;  // payload constellation points
  std::size_t n_sym = 0;   // OFDM symbols after even-padding
  std::vector<std::uint8_t> bits;
  std::vector<std::uint8_t> decoded;
  std::vector<Cx> data_syms;  // padded grid, zeros beyond n_data
  std::vector<Cx> stream_a;
  std::vector<Cx> stream_b;
  std::vector<Cx> recovered;
  std::vector<Cx> tx_a;
  std::vector<Cx> tx_b;
  std::vector<Cx> rx_a;
  std::vector<Cx> rx_b;
  std::vector<Cx> cross;  // second propagation before superposition
  std::array<std::vector<Cx>, 4> freq;  // h_aa, h_ab, h_ba, h_bb
  std::vector<Cx> bins_a;
  std::vector<Cx> bins_b;
  std::vector<Cx> scratch;
};

// 2x2 Alamouti STBC chain: symbols are paired per subcarrier across two
// consecutive OFDM symbols; each of the four spatial paths is an
// independent fading realization with the same path loss.
void run_stbc_packet(const BermacConfig& cfg, const Ofdm& ofdm,
                     StbcCtx& ctx, util::Rng& rng, PacketStats& stats,
                     std::span<Cx> capture) {
  const double tx_mw = util::dbm_to_mw(cfg.tx_dbm);
  const double per_antenna_mw = tx_mw / 2.0;  // split across 2 TX antennas
  rng.fill_bits(ctx.bits);
  const std::span<Cx> payload(ctx.data_syms.data(), ctx.n_data);
  if (cfg.dqpsk) {
    dqpsk_modulate_into(ctx.bits, payload);
  } else {
    qpsk_modulate_into(ctx.bits, payload);
  }
  const auto nd = static_cast<std::size_t>(ofdm.num_data_subcarriers());
  const std::size_t n_sym = ctx.n_sym;  // even

  // Build the two antenna streams: for the OFDM-symbol pair (t, t+1) and
  // subcarrier k, Alamouti sends (s0, -s1*) on antenna A and (s1, s0*) on
  // antenna B, where s0 = data[t][k], s1 = data[t+1][k].
  for (std::size_t t = 0; t < n_sym; t += 2) {
    for (std::size_t k = 0; k < nd; ++k) {
      const Cx s0 = ctx.data_syms[t * nd + k];
      const Cx s1 = ctx.data_syms[(t + 1) * nd + k];
      ctx.stream_a[t * nd + k] = s0;
      ctx.stream_a[(t + 1) * nd + k] = -std::conj(s1);
      ctx.stream_b[t * nd + k] = s1;
      ctx.stream_b[(t + 1) * nd + k] = std::conj(s0);
    }
  }

  ofdm.modulate_into(ctx.stream_a, per_antenna_mw, ctx.tx_a);
  ofdm.modulate_into(ctx.stream_b, per_antenna_mw, ctx.tx_b);

  for (auto& path : ctx.paths) path.redraw(rng);
  // paths[0]=A->a, paths[1]=A->b, paths[2]=B->a, paths[3]=B->b.
  ctx.paths[0].propagate_into(ctx.tx_a, ctx.rx_a);
  ctx.paths[2].propagate_into(ctx.tx_b, ctx.cross);
  for (std::size_t i = 0; i < ctx.rx_a.size(); ++i) {
    ctx.rx_a[i] += ctx.cross[i];
  }
  add_awgn(ctx.rx_a, ctx.paths[0].noise_variance_mw(), rng);

  ctx.paths[1].propagate_into(ctx.tx_a, ctx.rx_b);
  ctx.paths[3].propagate_into(ctx.tx_b, ctx.cross);
  for (std::size_t i = 0; i < ctx.rx_b.size(); ++i) {
    ctx.rx_b[i] += ctx.cross[i];
  }
  add_awgn(ctx.rx_b, ctx.paths[1].noise_variance_mw(), rng);

  for (std::size_t p = 0; p < 4; ++p) {
    ctx.paths[p].frequency_response_into(ctx.freq[p]);
  }
  const auto& h_aa = ctx.freq[0];
  const auto& h_ab = ctx.freq[1];
  const auto& h_ba = ctx.freq[2];
  const auto& h_bb = ctx.freq[3];

  ofdm.extract_bins_into(ctx.rx_a, n_sym, ctx.bins_a, ctx.scratch);
  ofdm.extract_bins_into(ctx.rx_b, n_sym, ctx.bins_b, ctx.scratch);
  const double amp = ofdm.subcarrier_amplitude(per_antenna_mw);

  const auto data_bins = ofdm.data_bins();
  for (std::size_t t = 0; t < n_sym; t += 2) {
    for (std::size_t k = 0; k < nd; ++k) {
      const auto bin = static_cast<std::size_t>(data_bins[k]);
      const StbcDecoded d = alamouti_combine(
          ctx.bins_a[t * nd + k], ctx.bins_a[(t + 1) * nd + k],
          ctx.bins_b[t * nd + k], ctx.bins_b[(t + 1) * nd + k],
          h_aa[bin], h_ab[bin], h_ba[bin], h_bb[bin]);
      const double g = d.gain > 1e-12 ? d.gain : 1.0;
      if (t * nd + k < ctx.n_data) {
        ctx.recovered[t * nd + k] = d.s0 / (g * amp);
      }
      if ((t + 1) * nd + k < ctx.n_data) {
        ctx.recovered[(t + 1) * nd + k] = d.s1 / (g * amp);
      }
    }
  }

  if (cfg.dqpsk) {
    dqpsk_demodulate_into(ctx.recovered, ctx.decoded);
  } else {
    qpsk_demodulate_into(ctx.recovered, ctx.decoded);
  }
  stats.bit_errors += count_bit_errors(ctx.bits, ctx.decoded);

  // Post-combining per-subcarrier SNR: amp^2 * sum|H|^2 / (N * sigma^2).
  const double post_fft_noise =
      ctx.paths[0].noise_variance_mw() * ofdm.fft_size();
  double snr_sum = 0.0;
  for (std::size_t k = 0; k < nd; ++k) {
    const auto bin = static_cast<std::size_t>(data_bins[k]);
    const double g = std::norm(h_aa[bin]) + std::norm(h_ab[bin]) +
                     std::norm(h_ba[bin]) + std::norm(h_bb[bin]);
    snr_sum += amp * amp * g / post_fft_noise;
  }
  stats.snr_linear = snr_sum / static_cast<double>(nd);

  for (std::size_t i = 0; i < capture.size(); ++i) {
    capture[i] = ctx.recovered[i];
    stats.evm_sq += std::norm(ctx.recovered[i] - ctx.data_syms[i]);
  }
}

}  // namespace

BermacResult run_bermac(const BermacConfig& config, util::Rng& rng) {
  if (config.packets <= 0 || config.packet_bytes <= 0) {
    throw std::invalid_argument("packets and packet_bytes must be positive");
  }
  const Ofdm ofdm(config.width);
  BermacResult result;

  // One draw from the caller's generator seeds every packet stream; the
  // reduction below runs in packet order. Together these make the result
  // a pure function of (config, rng state) at any thread count.
  const std::uint64_t stream_seed = rng.next_u64();
  const auto packets = static_cast<std::size_t>(config.packets);
  const std::size_t syms_per_packet =
      (static_cast<std::size_t>(config.packet_bytes) * 8 + 1) / 2;
  const std::size_t capture_total =
      std::min(static_cast<std::size_t>(std::max(config.capture_symbols, 0)),
               packets * syms_per_packet);
  result.constellation.resize(capture_total);
  const std::span<Cx> capture_all(result.constellation);

  std::vector<PacketStats> stats(packets);
  const auto capture_slice = [&](std::size_t p) {
    const std::size_t offset = p * syms_per_packet;
    if (offset >= capture_total) return std::span<Cx>{};
    return capture_all.subspan(
        offset, std::min(syms_per_packet, capture_total - offset));
  };

  if (config.use_stbc) {
    util::parallel_for(
        packets, config.num_threads,
        [&] { return StbcCtx(config, ofdm); },
        [&](StbcCtx& ctx, std::size_t p) {
          util::Rng prng = util::Rng::derive_stream(stream_seed, p);
          run_stbc_packet(config, ofdm, ctx, prng, stats[p],
                          capture_slice(p));
        });
  } else {
    util::parallel_for(
        packets, config.num_threads,
        [&] { return SisoCtx(config, ofdm); },
        [&](SisoCtx& ctx, std::size_t p) {
          util::Rng prng = util::Rng::derive_stream(stream_seed, p);
          run_siso_packet(config, ofdm, ctx, prng, stats[p],
                          capture_slice(p));
        });
  }

  double snr_sum_linear = 0.0;
  double evm_sq = 0.0;
  for (const PacketStats& s : stats) {
    result.bits_sent += static_cast<std::int64_t>(config.packet_bytes) * 8;
    result.bit_errors += s.bit_errors;
    result.packets_sent += 1;
    if (s.bit_errors > 0) result.packet_errors += 1;
    snr_sum_linear += s.snr_linear;
    evm_sq += s.evm_sq;
  }
  result.mean_snr_db = util::lin_to_db(
      snr_sum_linear / static_cast<double>(config.packets));
  if (!result.constellation.empty()) {
    result.evm_rms = std::sqrt(
        evm_sq / static_cast<double>(result.constellation.size()));
  }
  return result;
}

}  // namespace acorn::baseband
