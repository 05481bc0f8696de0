#include "baseband/phy_chain.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baseband/convolutional.hpp"
#include "baseband/engine.hpp"
#include "baseband/interleaver.hpp"
#include "baseband/ofdm.hpp"
#include "baseband/qam.hpp"
#include "baseband/scrambler.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

namespace acorn::baseband {

namespace {

ChannelConfig channel_config(const PhyChainConfig& cfg) {
  ChannelConfig ch;
  ch.sample_rate_hz = phy::width_hz(cfg.width);
  ch.noise_psd_dbm_per_hz = cfg.noise_psd_dbm_per_hz;
  ch.noise_figure_db = cfg.noise_figure_db;
  ch.path_loss_db = cfg.path_loss_db;
  ch.num_taps = cfg.num_taps;
  ch.rayleigh = cfg.rayleigh;
  return ch;
}

const phy::McsEntry& entry_for(const PhyChainConfig& cfg) {
  if (cfg.mcs_index < 0 || cfg.mcs_index > phy::kMaxSingleStreamMcs) {
    throw std::invalid_argument("coded chain supports MCS 0-7 only");
  }
  return phy::mcs(cfg.mcs_index);
}

// All the intermediate buffers of one coded roundtrip, sized once for a
// payload length so the per-packet loop is allocation-free. The zero
// padding that fills the last OFDM symbol is written at construction and
// never overwritten (puncture_into only touches the punctured prefix).
struct ChainWorkspace {
  ChainWorkspace(std::size_t n_bits, const phy::McsEntry& entry,
                 const Ofdm& ofdm, const BlockInterleaver& interleaver,
                 int num_taps) {
    coded_len = ConvolutionalCode::encoded_length(n_bits);
    punctured_len = punctured_length(coded_len, entry.code_rate);
    const auto n_cbps = static_cast<std::size_t>(interleaver.block_size());
    const std::size_t n_symbols = (punctured_len + n_cbps - 1) / n_cbps;
    const std::size_t padded = n_symbols * n_cbps;
    const auto k = static_cast<std::size_t>(
        phy::bits_per_symbol(entry.modulation));
    const std::size_t n_qam = padded / k;
    const std::size_t n_ofdm = ofdm.num_ofdm_symbols(n_qam);
    const auto slen = static_cast<std::size_t>(ofdm.symbol_length());
    const auto fft = static_cast<std::size_t>(ofdm.fft_size());

    scrambled.resize(n_bits);
    coded.resize(coded_len);
    tx_bits.assign(padded, 0);  // pad bits beyond punctured_len stay zero
    inter.resize(padded);
    symbols.resize(n_qam);
    tx.resize(n_ofdm * slen);
    rx.resize(n_ofdm * slen + static_cast<std::size_t>(num_taps) - 1);
    h.resize(fft);
    eq.resize(n_qam);
    scratch.resize(fft);
    rx_bits.resize(padded);
    deinter.resize(padded);
    depunct.resize(coded_len);
    noise_vars.resize(n_qam);
    llrs.resize(padded);
    deinter_llrs.resize(padded);
    depunct_soft.resize(coded_len);
    viterbi.reserve(coded_len / 2);
  }

  std::size_t coded_len = 0;
  std::size_t punctured_len = 0;
  std::vector<std::uint8_t> scrambled;
  std::vector<std::uint8_t> coded;
  std::vector<std::uint8_t> tx_bits;  // punctured + zero pad
  std::vector<std::uint8_t> inter;
  std::vector<Cx> symbols;
  std::vector<Cx> tx;
  std::vector<Cx> rx;
  std::vector<Cx> h;
  std::vector<Cx> eq;
  std::vector<Cx> scratch;
  std::vector<std::uint8_t> rx_bits;
  std::vector<std::uint8_t> deinter;
  std::vector<std::uint8_t> depunct;
  std::vector<double> noise_vars;
  std::vector<double> llrs;
  std::vector<double> deinter_llrs;
  std::vector<double> depunct_soft;
  ViterbiWorkspace viterbi;
};

// One packet through the chain. `decoded.size()` must equal `bits.size()`
// and the workspace must have been sized for that payload length. Leaves
// the genie CSI for this packet's fading realization in `ws.h`.
void roundtrip_into(const PhyChainConfig& config,
                    const phy::McsEntry& entry, const Ofdm& ofdm,
                    const BlockInterleaver& interleaver,
                    const ConvolutionalCode& code, ChainWorkspace& ws,
                    std::span<const std::uint8_t> bits,
                    FadingChannel& channel, util::Rng& rng,
                    std::span<std::uint8_t> decoded) {
  const double tx_mw = util::dbm_to_mw(config.tx_dbm);

  // Scramble, encode (rate 1/2 with tail) and puncture to the MCS rate;
  // the tail of tx_bits holds the zero padding to a whole OFDM symbol.
  Scrambler scrambler;
  scrambler.process_into(bits, ws.scrambled);
  code.encode_into(ws.scrambled, ws.coded);
  puncture_into(ws.coded, entry.code_rate,
                std::span(ws.tx_bits).first(ws.punctured_len));

  interleaver.interleave_stream_into(ws.tx_bits, ws.inter);
  qam_modulate_into(ws.inter, entry.modulation, ws.symbols);
  ofdm.modulate_into(ws.symbols, tx_mw, ws.tx);
  channel.transmit_into(ws.tx, ws.rx, rng);
  channel.frequency_response_into(ws.h);
  ofdm.demodulate_into(ws.rx, ws.h, ws.eq, tx_mw, ws.scratch);

  if (config.soft_decision) {
    // Post-equalization noise variance per symbol: dividing bin k by H_k
    // scales the FFT-domain noise (N * sigma^2) by 1/(amp^2 |H_k|^2).
    const double amp = ofdm.subcarrier_amplitude(tx_mw);
    const double post_fft_noise =
        channel.noise_variance_mw() * ofdm.fft_size();
    const auto data_bins = ofdm.data_bins();
    const auto nd = static_cast<std::size_t>(ofdm.num_data_subcarriers());
    // Subcarrier position via a wrap-around counter: `i % nd` costs an
    // integer divide per QAM symbol.
    std::size_t d = 0;
    for (std::size_t i = 0; i < ws.eq.size(); ++i) {
      const auto bin = static_cast<std::size_t>(data_bins[d]);
      if (++d == nd) d = 0;
      const double h2 = std::max(std::norm(ws.h[bin]), 1e-12);
      ws.noise_vars[i] = post_fft_noise / (amp * amp * h2);
    }
    qam_soft_demodulate_into(ws.eq, entry.modulation, ws.noise_vars,
                             ws.llrs);
    interleaver.deinterleave_stream_into(std::span<const double>(ws.llrs),
                                         ws.deinter_llrs);
    depuncture_soft_into(
        std::span<const double>(ws.deinter_llrs).first(ws.punctured_len),
        entry.code_rate, ws.depunct_soft);
    code.decode_soft_into(ws.depunct_soft, decoded, ws.viterbi);
  } else {
    qam_demodulate_into(ws.eq, entry.modulation, ws.rx_bits);
    interleaver.deinterleave_stream_into(ws.rx_bits, ws.deinter);
    depuncture_into(std::span<const std::uint8_t>(ws.deinter)
                        .first(ws.punctured_len),
                    entry.code_rate, ws.depunct);
    code.decode_into(ws.depunct, decoded, ws.viterbi);
  }
  scrambler.reset(0x5D);
  scrambler.process_into(decoded, decoded);  // descramble in place
}

// Per-worker state for the packet sweep.
struct ChainCtx {
  ChainCtx(const PhyChainConfig& cfg, const phy::McsEntry& entry,
           const Ofdm& ofdm, const BlockInterleaver& interleaver)
      : ws(static_cast<std::size_t>(cfg.packet_bytes) * 8, entry, ofdm,
           interleaver, cfg.num_taps),
        channel([&] {
          util::Rng scratch_rng(0);
          return FadingChannel(channel_config(cfg), scratch_rng);
        }()) {
    bits.resize(static_cast<std::size_t>(cfg.packet_bytes) * 8);
    decoded.resize(bits.size());
  }

  ChainWorkspace ws;
  FadingChannel channel;
  std::vector<std::uint8_t> bits;
  std::vector<std::uint8_t> decoded;
};

}  // namespace

std::vector<std::uint8_t> phy_chain_roundtrip(
    const PhyChainConfig& config, std::span<const std::uint8_t> bits,
    FadingChannel& channel, util::Rng& rng) {
  const phy::McsEntry& entry = entry_for(config);
  const Ofdm ofdm(config.width);
  const BlockInterleaver interleaver =
      BlockInterleaver::for_ht(config.width, entry.modulation);
  const ConvolutionalCode code;
  ChainWorkspace ws(bits.size(), entry, ofdm, interleaver,
                    channel.config().num_taps);
  std::vector<std::uint8_t> decoded(bits.size());
  roundtrip_into(config, entry, ofdm, interleaver, code, ws, bits, channel,
                 rng, decoded);
  return decoded;
}

PhyChainResult run_phy_chain(const PhyChainConfig& config, int packets,
                             util::Rng& rng) {
  if (packets <= 0 || config.packet_bytes <= 0) {
    throw std::invalid_argument("packets and packet_bytes must be positive");
  }
  const phy::McsEntry& entry = entry_for(config);
  const Ofdm ofdm(config.width);
  const BlockInterleaver interleaver =
      BlockInterleaver::for_ht(config.width, entry.modulation);
  const ConvolutionalCode code;

  // Same determinism scheme as run_bermac: one seed draw, one derived
  // stream per packet index, reduction in packet order.
  const std::uint64_t stream_seed = rng.next_u64();

  struct PacketStats {
    std::int64_t bit_errors = 0;
    double snr_linear = 0.0;
  };
  std::vector<PacketStats> stats(static_cast<std::size_t>(packets));

  util::parallel_for(
      static_cast<std::size_t>(packets), config.num_threads,
      [&] { return ChainCtx(config, entry, ofdm, interleaver); },
      [&](ChainCtx& ctx, std::size_t p) {
        util::Rng prng = util::Rng::derive_stream(stream_seed, p);
        prng.fill_bits(ctx.bits);
        ctx.channel.redraw(prng);
        roundtrip_into(config, entry, ofdm, interleaver, code, ctx.ws,
                       ctx.bits, ctx.channel, prng, ctx.decoded);

        PacketStats& s = stats[p];
        s.bit_errors = count_bit_errors(ctx.bits, ctx.decoded);
        // Mean per-subcarrier SNR from this packet's genie CSI (left in
        // ws.h by the roundtrip).
        const double amp =
            ofdm.subcarrier_amplitude(util::dbm_to_mw(config.tx_dbm));
        const double post_fft_noise =
            ctx.channel.noise_variance_mw() * ofdm.fft_size();
        double snr = 0.0;
        for (int bin : ofdm.data_bins()) {
          snr += amp * amp *
                 std::norm(ctx.ws.h[static_cast<std::size_t>(bin)]) /
                 post_fft_noise;
        }
        s.snr_linear = snr / ofdm.num_data_subcarriers();
      });

  PhyChainResult result;
  double snr_sum = 0.0;
  for (const PacketStats& s : stats) {
    result.bits_sent += static_cast<std::int64_t>(config.packet_bytes) * 8;
    result.bit_errors += s.bit_errors;
    result.packets_sent += 1;
    if (s.bit_errors > 0) result.packet_errors += 1;
    snr_sum += s.snr_linear;
  }
  result.mean_snr_db = util::lin_to_db(snr_sum / packets);
  return result;
}

}  // namespace acorn::baseband
