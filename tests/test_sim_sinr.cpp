// Tests for the hidden-interference (SINR) option of the WLAN evaluator.
#include <gtest/gtest.h>

#include "core/allocation.hpp"
#include "sim/wlan_reference.hpp"
#include "testutil.hpp"

namespace acorn::sim {
namespace {

using testutil::CellSpec;
using testutil::ScenarioBuilder;

// Two cells whose APs cannot hear each other (no contention) but whose
// clients hear the other AP at a controllable level.
struct HiddenFixture {
  double interferer_to_client_db;
  bool sinr;

  Wlan build() const {
    net::Topology topo;
    topo.add_ap({0, 0});
    topo.add_ap({80, 0});
    topo.add_client({1, 0});
    topo.add_client({79, 0});
    util::Rng rng(3);
    net::PathLossModel plm;
    net::LinkBudget budget(topo, plm, rng);
    budget.set_ap_ap_loss_db(0, 1, testutil::kIsolatedLoss);
    budget.set_ap_client_loss_db(0, 0, testutil::kMediumLinkLoss);
    budget.set_ap_client_loss_db(1, 1, testutil::kMediumLinkLoss);
    // Cross links: each client hears the other AP at the given loss but
    // stays out of association range checks (we force the association).
    budget.set_ap_client_loss_db(1, 0, interferer_to_client_db);
    budget.set_ap_client_loss_db(0, 1, interferer_to_client_db);
    WlanConfig cfg;
    cfg.sinr_interference = sinr;
    return Wlan(std::move(topo), std::move(budget), cfg);
  }
};

// Below carrier sense (-82 dBm) yet far above the per-subcarrier noise
// floor: a textbook hidden interferer.
constexpr double kHotInterferer = 100.0;

TEST(SinrModel, OffByDefaultMatchesLegacyEvaluation) {
  const HiddenFixture with{kHotInterferer, false};
  const Wlan wlan = with.build();
  const net::Association assoc = {0, 1};
  const net::ChannelAssignment same = {net::Channel::basic(0),
                                       net::Channel::basic(0)};
  const net::ChannelAssignment split = {net::Channel::basic(0),
                                        net::Channel::basic(3)};
  // Without SINR modeling, hidden co-channel APs are invisible: both
  // assignments score the same.
  EXPECT_NEAR(wlan.evaluate(assoc, same).total_goodput_bps,
              wlan.evaluate(assoc, split).total_goodput_bps, 1.0);
}

TEST(SinrModel, HiddenInterferenceLowersCoChannelThroughput) {
  const HiddenFixture fixture{kHotInterferer, true};
  const Wlan wlan = fixture.build();
  const net::Association assoc = {0, 1};
  const net::ChannelAssignment same = {net::Channel::basic(0),
                                       net::Channel::basic(0)};
  const net::ChannelAssignment split = {net::Channel::basic(0),
                                        net::Channel::basic(3)};
  const double on_same = wlan.evaluate(assoc, same).total_goodput_bps;
  const double on_split = wlan.evaluate(assoc, split).total_goodput_bps;
  EXPECT_LT(on_same, 0.8 * on_split);
}

TEST(SinrModel, FarInterfererIsHarmless) {
  const HiddenFixture fixture{testutil::kIsolatedLoss, true};
  const Wlan wlan = fixture.build();
  const net::Association assoc = {0, 1};
  const net::ChannelAssignment same = {net::Channel::basic(0),
                                       net::Channel::basic(0)};
  const net::ChannelAssignment split = {net::Channel::basic(0),
                                        net::Channel::basic(3)};
  EXPECT_NEAR(wlan.evaluate(assoc, same).total_goodput_bps,
              wlan.evaluate(assoc, split).total_goodput_bps,
              0.01 * wlan.evaluate(assoc, split).total_goodput_bps);
}

TEST(SinrModel, ContendingApsAreNotDoubleCharged) {
  // When the APs DO hear each other, the medium is shared (M = 1/2) and
  // no hidden-interference penalty applies on top.
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kMediumLinkLoss}},
             CellSpec{{testutil::kMediumLinkLoss}}};
  b.ap_ap_loss_db = 85.0;
  b.config.sinr_interference = true;
  const Wlan wlan = b.build();
  ScenarioBuilder b2 = b;
  b2.config.sinr_interference = false;
  const Wlan legacy = b2.build();
  const net::Association assoc = b.intended_association();
  const net::ChannelAssignment same = {net::Channel::basic(0),
                                       net::Channel::basic(0)};
  EXPECT_NEAR(wlan.evaluate(assoc, same).total_goodput_bps,
              legacy.evaluate(assoc, same).total_goodput_bps, 1.0);
}

TEST(SinrModel, AllocatorSeparatesHiddenInterferers) {
  const HiddenFixture fixture{kHotInterferer, true};
  const Wlan wlan = fixture.build();
  const net::Association assoc = {0, 1};
  const core::ChannelAllocator alloc{net::ChannelPlan(12)};
  const core::AllocationResult result = alloc.allocate(
      wlan, assoc,
      {net::Channel::basic(0), net::Channel::basic(0)});
  EXPECT_FALSE(result.assignment[0].conflicts(result.assignment[1]));
}

TEST(SinrModel, InterferenceScalesWithOverlap) {
  const HiddenFixture fixture{kHotInterferer, true};
  const Wlan wlan = fixture.build();
  const net::Association assoc = {0, 1};
  const net::InterferenceGraph graph(wlan.topology(), wlan.budget(), assoc,
                                     wlan.config().interference);
  const net::ChannelAssignment other_on_bond = {net::Channel::basic(0),
                                                net::Channel::bonded(0)};
  const double full = reference::hidden_interference_mw(
      wlan, 0, 0, net::Channel::bonded(0), graph,
      {net::Channel::bonded(0), net::Channel::bonded(0)});
  const double half = reference::hidden_interference_mw(
      wlan, 0, 0, net::Channel::basic(0), graph, other_on_bond);
  EXPECT_GT(full, 0.0);
  EXPECT_GT(full, half);
}

}  // namespace
}  // namespace acorn::sim
