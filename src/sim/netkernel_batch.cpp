// Batched multi-candidate cell evaluation — the SIMD half of the
// allocation hot loop (the other half, incremental candidate analysis,
// lives in core/oracle_cache.cpp).
//
// Algorithm 2 scores B single-AP channel flips against one base
// assignment per scan. For one touched cell those B evaluations share
// the client list, the precomputed SNR columns and the rx-power matrix;
// only the lane-dependent inputs (cell channel, medium share, activity
// vector, the flipped AP's channel) vary. The kernels below lay the
// lane dimension out as contiguous arrays and run the pure-arithmetic
// stages — hidden-interference accumulation, the airtime/ATD chain,
// the share division and UDP transport scaling — as 4-wide double
// vectors, one of the vector kernels of util/vector_kernel.hpp. Each
// lane does the IEEE operations of NetSnapshot::evaluate_cell in its
// order, and everything transcendental (log10 of the SINR penalty, the
// coded-PER chain, TCP's pow/sqrt) goes through the exact scalar
// routines the one-at-a-time path calls, with bit-identical inputs, so
// the batched and serial scans agree to the last bit. A per-client PER
// memo additionally collapses lanes that land on the same (MCS row, SNR)
// to ONE coded-PER evaluation, which is most lanes of a same-width color
// sweep.
#include "sim/netkernel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mac/traffic.hpp"
#include "phy/mcs.hpp"
#include "util/units.hpp"
#include "util/vector_kernel.hpp"

namespace acorn::sim {

namespace {

using util::vload;
using util::vstore;

// Per-lane resolved evaluation context for one cell.
struct LaneCtx {
  net::Channel own = net::Channel::basic(0);  // cell channel under the lane
  const phy::RateTable* table = nullptr;
  const double* snrs = nullptr;  // cell SNR column at own's width
};

// The fixed per-attempt MAC overhead, evaluated with frame_airtime_s's
// exact expression order so fixed_s + payload_s reproduces its result.
inline double airtime_fixed_s(const mac::MacTiming& t) {
  const double overhead_us = t.difs_us + t.mean_backoff_slots * t.slot_us +
                             t.preamble_us + t.sifs_us + t.ack_us;
  return overhead_us * 1e-6 / t.ampdu_frames;
}

typedef double v4df __attribute__((vector_size(32)));
typedef long long v4di __attribute__((vector_size(32)));

// std::min(a, b) = (b < a) ? b : a as an exact bitwise select.
ACORN_VECTOR_INLINE v4df vmin(v4df a, v4df b) {
  const v4di m = b < a;
  return std::bit_cast<v4df>((std::bit_cast<v4di>(b) & m) |
                             (std::bit_cast<v4di>(a) & ~m));
}

ACORN_VECTOR_INLINE v4df vbroadcast(double x) { return v4df{x, x, x, x}; }

// delay/ATD chain over one 4-lane chunk: per-lane
//   airtime = fixed_s + payload_bits / rate
//   attempts = 1 / (1 - min(per, per_cap))
//   atd += airtime * attempts / payload_bits
// — the exact op sequence of mac::per_bit_delay_s.
ACORN_TARGET_CLONES
void delay_accumulate_simd(const double* rate, const double* per,
                           double fixed_s, double per_cap,
                           double payload_bits, double* atd) {
  const v4df bits = vbroadcast(payload_bits);
  const v4df airtime = vbroadcast(fixed_s) + bits / vload<v4df>(rate);
  const v4df p = vmin(vload<v4df>(per), vbroadcast(per_cap));
  const v4df attempts = vbroadcast(1.0) / (vbroadcast(1.0) - p);
  vstore(atd, vload<v4df>(atd) + airtime * attempts / bits);
}

// One hidden-interference term over a 4-lane chunk:
//   total += captured * activity * rx / subcarriers.
ACORN_TARGET_CLONES
void hidden_term_simd(const double* captured, const double* act, double rx,
                      const double* subc, double* total) {
  const v4df term = vload<v4df>(captured) * vload<v4df>(act) *
                    vbroadcast(rx) / vload<v4df>(subc);
  vstore(total, vload<v4df>(total) + term);
}

// UDP transport accumulation over a 4-lane chunk: value += w * (eff *
// mac) — eff * mac is the entire UDP transport_goodput_bps body.
ACORN_TARGET_CLONES
void udp_accumulate_simd(const double* mac_bps, double udp_eff, double w,
                         bool weighted, double* value) {
  const v4df g = vbroadcast(udp_eff) * vload<v4df>(mac_bps);
  vstore(value, vload<v4df>(value) + (weighted ? vbroadcast(w) * g : g));
}

// Share-only TCP rescale over a 4-lane chunk:
//   g = min(c1 * mac, cap); value += w * g.
ACORN_TARGET_CLONES
void tcp_rescale_simd(const double* mac_bps, double c1, double cap, double w,
                      bool weighted, double* value) {
  const v4df g =
      vmin(vbroadcast(c1) * vload<v4df>(mac_bps), vbroadcast(cap));
  vstore(value, vload<v4df>(value) + (weighted ? vbroadcast(w) * g : g));
}

ACORN_TARGET_CLONES
void divide_simd(const double* num, const double* den, double* out) {
  vstore(out, vload<v4df>(num) / vload<v4df>(den));
}

// Per-call scratch, thread-local so concurrent callers never share it
// and the steady-state hot path stays allocation-free.
struct BatchScratch {
  std::vector<LaneCtx> ctx;
  std::vector<double> snr;
  std::vector<double> rate;
  std::vector<double> per;
  std::vector<double> atd;
  std::vector<double> mac_bps;
  std::vector<double> hid;
  std::vector<double> captured;
  std::vector<double> act_at;
  std::vector<double> subc;
  std::vector<double> per_all;  // client-major lane PERs for transport
  std::vector<double> memo_snr;
  std::vector<int> memo_mcs;
  std::vector<double> memo_per;
};

BatchScratch& scratch() {
  static thread_local BatchScratch s;
  return s;
}

}  // namespace

void NetSnapshot::evaluate_cells_batch(
    int ap, const net::ChannelAssignment& base,
    std::span<const CellLane> lanes, mac::TrafficType traffic,
    std::span<const double> client_weights, std::span<double> out_value,
    CellScanCache* capture) const {
  const std::size_t n_lanes = lanes.size();
  if (out_value.size() != n_lanes) {
    throw std::invalid_argument("out_value size != lane count");
  }
  if (capture != nullptr && n_lanes != 1) {
    throw std::invalid_argument("capture requires exactly one lane");
  }
  const std::span<const int> clients = cell_clients(ap);
  if (capture != nullptr) {
    capture->atd_s_per_bit = 0.0;
    capture->tcp_c1.clear();
    capture->tcp_cap.clear();
  }
  if (clients.empty()) {
    std::fill(out_value.begin(), out_value.end(), 0.0);
    return;
  }
  const WlanConfig& config = wlan_->config();
  const bool sinr = config.sinr_interference;
  const std::size_t n_clients = clients.size();
  const std::size_t lo =
      static_cast<std::size_t>(cell_begin_[static_cast<std::size_t>(ap)]);

  BatchScratch& s = scratch();
  s.ctx.resize(n_lanes);
  for (std::size_t l = 0; l < n_lanes; ++l) {
    const CellLane& lane = lanes[l];
    LaneCtx& ctx = s.ctx[l];
    ctx.own = (lane.flip_ap == ap) ? lane.flip_channel
                                   : base[static_cast<std::size_t>(ap)];
    const bool wide = ctx.own.width() == phy::ChannelWidth::k40MHz;
    ctx.table = &wlan_->rate_table(ctx.own.width());
    ctx.snrs = (wide ? cell_snr40_db_ : cell_snr20_db_).data();
  }
  // Lane arrays are padded to a multiple of the vector width so the
  // 4-wide kernels never read past the end; pad lanes replay lane 0's
  // inputs and their outputs are ignored.
  const std::size_t padded = (n_lanes + 3) & ~std::size_t{3};
  s.snr.resize(padded);
  s.rate.resize(padded);
  s.per.resize(padded);
  s.atd.assign(padded, 0.0);
  s.mac_bps.resize(padded);
  s.hid.resize(padded);
  s.captured.resize(padded);
  s.act_at.resize(padded);
  s.subc.resize(padded);
  s.per_all.resize(n_clients * n_lanes);
  s.memo_snr.resize(n_lanes);
  s.memo_mcs.resize(n_lanes);
  s.memo_per.resize(n_lanes);

  const double fixed_s = airtime_fixed_s(config.timing);
  const double payload_bits = static_cast<double>(payload_bits_);
  const int sub20 = phy::data_subcarriers(phy::ChannelWidth::k20MHz);
  const int sub40 = phy::data_subcarriers(phy::ChannelWidth::k40MHz);

  for (std::size_t i = 0; i < n_clients; ++i) {
    const int c = clients[i];
    for (std::size_t l = 0; l < n_lanes; ++l) {
      s.snr[l] = s.ctx[l].snrs[lo + i];
    }
    if (sinr) {
      // Hidden-interference totals per lane: iterate the hidden
      // interferers in evaluate_cell's exact order, accumulating one
      // captured * activity * rx / subcarriers term per (lane, other).
      std::fill_n(s.hid.data(), padded, 0.0);
      for (int other = 0; other < n_aps_; ++other) {
        if (other == ap || graph_.adjacent(ap, other)) continue;
        const double rx =
            rx_mw_[static_cast<std::size_t>(other) *
                       static_cast<std::size_t>(n_clients_) +
                   static_cast<std::size_t>(c)];
        const net::Channel& base_other =
            base[static_cast<std::size_t>(other)];
        for (std::size_t l = 0; l < n_lanes; ++l) {
          const CellLane& lane = lanes[l];
          const net::Channel& other_ch =
              (lane.flip_ap == other) ? lane.flip_channel : base_other;
          s.captured[l] = other_ch.overlap_fraction(s.ctx[l].own);
          s.act_at[l] =
              lane.activity[static_cast<std::size_t>(other)];
          s.subc[l] = static_cast<double>(
              other_ch.width() == phy::ChannelWidth::k40MHz ? sub40 : sub20);
        }
        for (std::size_t l = n_lanes; l < padded; ++l) {
          s.captured[l] = s.captured[0];
          s.act_at[l] = s.act_at[0];
          s.subc[l] = s.subc[0];
        }
        for (std::size_t l = 0; l < padded; l += 4) {
          hidden_term_simd(s.captured.data() + l, s.act_at.data() + l, rx,
                           s.subc.data() + l, s.hid.data() + l);
        }
      }
      for (std::size_t l = 0; l < n_lanes; ++l) {
        // evaluate_cell's SINR penalty, same operand order: the lanes
        // whose hidden total is exactly 0 still run it (lin_to_db(1.0)
        // is exactly 0.0, and evaluate_cell itself always runs it too).
        s.snr[l] -=
            util::lin_to_db((noise_mw_ + s.hid[l]) / noise_mw_);
      }
    }
    // Threshold scan + one coded-PER evaluation per distinct (MCS row,
    // SNR) across the lanes — the same-width lanes of a color sweep all
    // land on the same pair and replay the first lane's PER.
    int n_memo = 0;
    for (std::size_t l = 0; l < n_lanes; ++l) {
      const phy::RateTable::Segment& seg =
          s.ctx[l].table->segment_for_snr(s.snr[l]);
      s.rate[l] = seg.rate_bps;
      double p = -1.0;
      for (int m = 0; m < n_memo; ++m) {
        if (s.memo_mcs[static_cast<std::size_t>(m)] == seg.mcs_index &&
            std::bit_cast<std::uint64_t>(
                s.memo_snr[static_cast<std::size_t>(m)]) ==
                std::bit_cast<std::uint64_t>(s.snr[l])) {
          p = s.memo_per[static_cast<std::size_t>(m)];
          break;
        }
      }
      if (p < 0.0) {
        p = wlan_->link_model().per(phy::mcs(seg.mcs_index), s.snr[l]);
        s.memo_mcs[static_cast<std::size_t>(n_memo)] = seg.mcs_index;
        s.memo_snr[static_cast<std::size_t>(n_memo)] = s.snr[l];
        s.memo_per[static_cast<std::size_t>(n_memo)] = p;
        ++n_memo;
      }
      s.per[l] = p;
      s.per_all[i * n_lanes + l] = p;
    }
    for (std::size_t l = n_lanes; l < padded; ++l) {
      s.rate[l] = s.rate[0];
      s.per[l] = s.per[0];
    }
    for (std::size_t l = 0; l < padded; l += 4) {
      delay_accumulate_simd(s.rate.data() + l, s.per.data() + l, fixed_s,
                            config.timing.per_cap, payload_bits,
                            s.atd.data() + l);
    }
  }

  // per-client throughput = share / ATD (anomaly_throughput's division).
  for (std::size_t l = n_lanes; l < padded; ++l) s.atd[l] = s.atd[0];
  for (std::size_t l = 0; l < padded; ++l) {
    s.snr[l] = lanes[l < n_lanes ? l : 0].medium_share;  // reuse as share
  }
  for (std::size_t l = 0; l < padded; l += 4) {
    divide_simd(s.snr.data() + l, s.atd.data() + l, s.mac_bps.data() + l);
  }

  // Transport accumulation in client order per lane — evaluate_cell's
  // goodput loop plus (when weights are supplied) the oracle's
  // weighting, fused. TCP's pow/sqrt chain stays scalar
  // (transcendentals), UDP's pure multiply-add vectorizes.
  const mac::TrafficModel& model = config.traffic;
  const bool weighted = !client_weights.empty();
  const bool udp = traffic == mac::TrafficType::kUdp;
  if (udp) {
    // s.hid is free again after the SNR stage; reuse it as the padded
    // per-lane value accumulator, copied into out_value at the end.
    std::fill_n(s.hid.data(), padded, 0.0);
    for (std::size_t i = 0; i < n_clients; ++i) {
      const double w =
          weighted ? client_weights[static_cast<std::size_t>(clients[i])]
                   : 0.0;
      for (std::size_t l = 0; l < padded; l += 4) {
        udp_accumulate_simd(s.mac_bps.data() + l, model.udp_efficiency, w,
                            weighted, s.hid.data() + l);
      }
    }
    for (std::size_t l = 0; l < n_lanes; ++l) out_value[l] = s.hid[l];
  } else {
    std::fill(out_value.begin(), out_value.end(), 0.0);
    for (std::size_t i = 0; i < n_clients; ++i) {
      const double w =
          weighted ? client_weights[static_cast<std::size_t>(clients[i])]
                   : 0.0;
      for (std::size_t l = 0; l < n_lanes; ++l) {
        const double g = mac::transport_goodput_bps(
            model, traffic, s.mac_bps[l], s.per_all[i * n_lanes + l]);
        out_value[l] += weighted ? w * g : g;
      }
    }
  }

  if (capture != nullptr) {
    capture->atd_s_per_bit = s.atd[0];
    if (!udp) {
      capture->tcp_c1.resize(n_clients);
      capture->tcp_cap.resize(n_clients);
      for (std::size_t i = 0; i < n_clients; ++i) {
        const double per = s.per_all[i * n_lanes];
        // The exact first product transport_goodput_bps forms, and the
        // Mathis cap, per client.
        const double window_factor =
            std::pow(1.0 - per, model.tcp_loss_sensitivity);
        capture->tcp_c1[i] = model.tcp_efficiency * window_factor;
        capture->tcp_cap[i] =
            mac::mathis_cap_bps(model, mac::residual_loss(model, per));
      }
    }
  }
}

void NetSnapshot::rescale_cell_shares(
    int ap, std::span<const double> shares, const CellScanCache& cache,
    mac::TrafficType traffic, std::span<const double> client_weights,
    std::span<double> out_value) const {
  const std::size_t n_lanes = shares.size();
  if (out_value.size() != n_lanes) {
    throw std::invalid_argument("out_value size != lane count");
  }
  const std::span<const int> clients = cell_clients(ap);
  if (clients.empty()) {
    std::fill(out_value.begin(), out_value.end(), 0.0);
    return;
  }
  const mac::TrafficModel& model = wlan_->config().traffic;
  const bool weighted = !client_weights.empty();
  const bool udp = traffic == mac::TrafficType::kUdp;
  const std::size_t n_clients = clients.size();

  BatchScratch& s = scratch();
  const std::size_t padded = (n_lanes + 3) & ~std::size_t{3};
  s.mac_bps.resize(padded);
  s.hid.assign(padded, 0.0);  // padded value accumulators
  for (std::size_t l = 0; l < n_lanes; ++l) {
    s.mac_bps[l] = shares[l] / cache.atd_s_per_bit;
  }
  for (std::size_t l = n_lanes; l < padded; ++l) s.mac_bps[l] = s.mac_bps[0];

  for (std::size_t i = 0; i < n_clients; ++i) {
    const double w =
        weighted ? client_weights[static_cast<std::size_t>(clients[i])] : 0.0;
    for (std::size_t l = 0; l < padded; l += 4) {
      if (udp) {
        udp_accumulate_simd(s.mac_bps.data() + l, model.udp_efficiency, w,
                            weighted, s.hid.data() + l);
      } else {
        tcp_rescale_simd(s.mac_bps.data() + l, cache.tcp_c1[i],
                         cache.tcp_cap[i], w, weighted, s.hid.data() + l);
      }
    }
  }
  for (std::size_t l = 0; l < n_lanes; ++l) out_value[l] = s.hid[l];
}

}  // namespace acorn::sim
