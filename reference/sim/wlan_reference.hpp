// The object-at-a-time network evaluator, kept as the executable
// specification that sim::NetSnapshot, the Wlan's RateTable route and
// core::decide_width are property-tested against
// (tests/test_sim_netkernel.cpp, test_sim_wlan.cpp,
// test_core_width_switch.cpp assert bit-identity).
//
// Every client re-derives its SNR from the topology and link budget and
// runs the full 16-row phy::best_rate sweep; every hidden-interference
// term re-converts dBm to mW and recomputes its interferer's medium share
// with the allocating net:: helpers. It shares nothing with the flat
// engine beyond the Wlan's accessors and the MAC model. Test/bench use
// only: it lives in acorn_reference, which nothing under src/ links.
#pragma once

#include <vector>

#include "sim/wlan.hpp"

namespace acorn::sim::reference {

/// Full-network evaluation under an association + channel assignment;
/// throws std::invalid_argument on a size mismatch, like Wlan::evaluate.
Evaluation evaluate(const Wlan& wlan, const net::Association& assoc,
                    const net::ChannelAssignment& assignment,
                    mac::TrafficType traffic = mac::TrafficType::kUdp);

/// AP `ap`'s cell exactly as `evaluate` scores it under (graph,
/// assignment): the width and the hidden-interference context come from
/// `assignment[ap]`, `medium_share` from the caller.
ApStats evaluate_cell_in(const Wlan& wlan, int ap,
                         const std::vector<int>& clients,
                         double medium_share,
                         const net::InterferenceGraph& graph,
                         const net::ChannelAssignment& assignment,
                         mac::TrafficType traffic = mac::TrafficType::kUdp);

/// One cell in isolation (medium share 1, no interference) at a width.
double isolated_cell_bps(const Wlan& wlan, int ap,
                         const std::vector<int>& clients,
                         phy::ChannelWidth width,
                         mac::TrafficType traffic = mac::TrafficType::kUdp);

/// Per-subcarrier interference power (mW) a client would see on
/// `channel` from co-channel APs its serving AP does NOT contend with
/// (hidden interferers), each weighted by its busy fraction (its
/// unweighted medium share under `assignment`).
double hidden_interference_mw(const Wlan& wlan, int serving_ap, int client,
                              const net::Channel& channel,
                              const net::InterferenceGraph& graph,
                              const net::ChannelAssignment& assignment);

}  // namespace acorn::sim::reference
