// The flat-engine contract: sim::NetSnapshot must reproduce the
// object-at-a-time evaluator (sim::reference::evaluate) bit-for-bit —
// every ApStats field of every cell, on randomized deployments covering
// all four combos of sinr_interference x weighted_contention, both
// transports, and degenerate associations (roamed / disconnected
// clients).
#include "sim/netkernel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/allocation.hpp"
#include "sim/wlan_reference.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace acorn::sim {
namespace {

using testutil::random_association;
using testutil::random_builder;
using testutil::ScenarioBuilder;

void expect_identical(const Evaluation& got, const Evaluation& expected) {
  EXPECT_EQ(got.total_goodput_bps, expected.total_goodput_bps);
  ASSERT_EQ(got.per_ap.size(), expected.per_ap.size());
  for (std::size_t a = 0; a < got.per_ap.size(); ++a) {
    const ApStats& g = got.per_ap[a];
    const ApStats& e = expected.per_ap[a];
    EXPECT_EQ(g.ap_id, e.ap_id);
    EXPECT_EQ(g.num_clients, e.num_clients);
    EXPECT_EQ(g.medium_share, e.medium_share);
    EXPECT_EQ(g.atd_s_per_bit, e.atd_s_per_bit);
    EXPECT_EQ(g.mac_throughput_bps, e.mac_throughput_bps);
    EXPECT_EQ(g.goodput_bps, e.goodput_bps);
    EXPECT_EQ(g.client_ids, e.client_ids);
    EXPECT_EQ(g.client_delay_s_per_bit, e.client_delay_s_per_bit);
    EXPECT_EQ(g.client_goodput_bps, e.client_goodput_bps);
  }
}

TEST(NetSnapshot, BitIdenticalToReferenceOnRandomTopologies) {
  util::Rng rng(0xF1A7);
  int scenarios = 0;
  for (int trial = 0; trial < 56; ++trial) {
    const bool sinr = (trial % 2) == 1;
    const bool weighted = (trial / 2 % 2) == 1;
    const ScenarioBuilder b = random_builder(rng, sinr, weighted);
    const Wlan wlan = b.build();
    const net::Association assoc = random_association(b, rng);
    const NetSnapshot snap(wlan, assoc);
    const core::ChannelAllocator alloc{net::ChannelPlan(6)};
    for (int rep = 0; rep < 5; ++rep) {
      const net::ChannelAssignment f =
          alloc.random_assignment(wlan.topology().num_aps(), rng);
      const mac::TrafficType traffic =
          (rep % 2) == 0 ? mac::TrafficType::kUdp : mac::TrafficType::kTcp;
      const Evaluation expected =
          reference::evaluate(wlan, assoc, f, traffic);
      SCOPED_TRACE("trial " + std::to_string(trial) + " rep " +
                   std::to_string(rep) + " sinr=" + std::to_string(sinr) +
                   " weighted=" + std::to_string(weighted));
      expect_identical(snap.evaluate(f, traffic), expected);
      // And the public entry point, which delegates to a fresh snapshot.
      expect_identical(wlan.evaluate(assoc, f, traffic), expected);
    }
    ++scenarios;
  }
  EXPECT_GE(scenarios, 50);
}

TEST(NetSnapshot, CellClientsMatchClientsOf) {
  util::Rng rng(0xCE11);
  const ScenarioBuilder b = random_builder(rng, false, false);
  const Wlan wlan = b.build();
  const net::Association assoc = random_association(b, rng);
  const NetSnapshot snap(wlan, assoc);
  for (int ap = 0; ap < wlan.topology().num_aps(); ++ap) {
    const std::vector<int> expected = wlan.clients_of(assoc, ap);
    const std::span<const int> got = snap.cell_clients(ap);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]);
    }
  }
}

TEST(NetSnapshot, SharesMatchInterferenceHelpers) {
  util::Rng rng(0x54A2);
  for (int trial = 0; trial < 10; ++trial) {
    const ScenarioBuilder b = random_builder(rng, false, false);
    const Wlan wlan = b.build();
    const net::Association assoc = b.intended_association();
    const NetSnapshot snap(wlan, assoc);
    const core::ChannelAllocator alloc{net::ChannelPlan(6)};
    const net::ChannelAssignment f =
        alloc.random_assignment(wlan.topology().num_aps(), rng);
    std::vector<double> activity;
    snap.unweighted_shares(f, activity);
    ASSERT_EQ(activity.size(),
              static_cast<std::size_t>(wlan.topology().num_aps()));
    for (int ap = 0; ap < wlan.topology().num_aps(); ++ap) {
      EXPECT_EQ(activity[static_cast<std::size_t>(ap)],
                net::medium_access_share(snap.graph(), f, ap));
      EXPECT_EQ(snap.weighted_share(f, ap),
                net::medium_access_share_weighted(snap.graph(), f, ap));
    }
  }
}

TEST(NetSnapshot, RejectsMalformedInputsLikeTheReference) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const Wlan wlan = b.build();
  EXPECT_THROW(NetSnapshot(wlan, net::Association{0}),
               std::invalid_argument);
  const NetSnapshot snap(wlan, b.intended_association());
  EXPECT_THROW(snap.evaluate({net::Channel::basic(0)}),
               std::invalid_argument);
  EXPECT_THROW(
      wlan.evaluate(net::Association{0}, {net::Channel::basic(0)}),
      std::invalid_argument);
}

// The beacon term of Algorithm 1 (client_delay_s_per_bit) reads the
// Wlan's RateTables; it must equal the delay derived by hand from the
// 16-row best_rate sweep, for every AP-client pair of the random
// deployments (saturated, marginal and dead links alike).
TEST(Wlan, ClientDelayConsistentWithBestRate) {
  util::Rng rng(0xBEAC);
  for (int trial = 0; trial < 40; ++trial) {
    const Wlan wlan = random_builder(rng, false, false).build();
    const WlanConfig& config = wlan.config();
    for (int ap = 0; ap < wlan.topology().num_aps(); ++ap) {
      for (int c = 0; c < wlan.topology().num_clients(); ++c) {
        for (const phy::ChannelWidth width :
             {phy::ChannelWidth::k20MHz, phy::ChannelWidth::k40MHz}) {
          const phy::RateDecision rate =
              phy::best_rate(wlan.link_model(), width,
                             wlan.client_snr_db(ap, c, width), config.gi);
          const double expected = mac::per_bit_delay_s(
              config.timing,
              phy::mcs(rate.mcs_index).rate_bps(width, config.gi),
              config.payload_bytes * 8, rate.per);
          EXPECT_EQ(wlan.client_delay_s_per_bit(ap, c, width), expected)
              << "trial " << trial << " ap " << ap << " client " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace acorn::sim
