#include "core/width_switch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/allocation.hpp"
#include "sim/wlan_reference.hpp"
#include "testutil.hpp"

namespace acorn::core {
namespace {

using testutil::CellSpec;
using testutil::ScenarioBuilder;

TEST(WidthSwitch, GoodCellStaysBonded) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss, testutil::kGoodLinkLoss}}};
  const sim::Wlan wlan = b.build();
  const WidthDecision d = decide_width(wlan, 0, {0, 1});
  EXPECT_EQ(d.width, phy::ChannelWidth::k40MHz);
  EXPECT_GT(d.cell_bps_40, d.cell_bps_20);
}

TEST(WidthSwitch, PoorClientForcesFallback) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss, testutil::kPoorLinkLoss}}};
  const sim::Wlan wlan = b.build();
  const WidthDecision d = decide_width(wlan, 0, {0, 1});
  EXPECT_EQ(d.width, phy::ChannelWidth::k20MHz);
}

TEST(WidthSwitch, EmptyCellDefaultsToBond) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{}}};
  const sim::Wlan wlan = b.build();
  const WidthDecision d = decide_width(wlan, 0, {});
  EXPECT_EQ(d.width, phy::ChannelWidth::k40MHz);
  EXPECT_EQ(d.cell_bps_20, 0.0);
  EXPECT_EQ(d.cell_bps_40, 0.0);
}

TEST(WidthSwitch, MediumShareScalesBothSidesEqually) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}}};
  const sim::Wlan wlan = b.build();
  const WidthDecision full = decide_width(wlan, 0, {0}, 1.0);
  const WidthDecision half = decide_width(wlan, 0, {0}, 0.5);
  EXPECT_EQ(full.width, half.width);
  EXPECT_NEAR(half.cell_bps_40, full.cell_bps_40 / 2.0, 1.0);
}

// Build the half-asymmetry scenario for the context-aware overload: AP0
// holds bond {0,1} with one medium-link client; AP1 is OUTSIDE carrier-
// sense range of both AP0 and the client (no graph edge, loss 100 dB ->
// rx -85 dBm < -82) but close enough that, with the hidden-interference
// model on, it raises the client's noise floor on whichever basic
// channel it occupies.
struct HalfScenario {
  sim::Wlan wlan;
  net::Association assoc{0, 1};
  sim::NetSnapshot snapshot;

  static sim::Wlan make_wlan() {
    net::Topology topo;
    topo.add_ap({0.0, 0.0});
    topo.add_ap({100.0, 0.0});
    topo.add_client({1.0, 0.0});   // AP0's
    topo.add_client({99.0, 0.0});  // AP1's
    util::Rng rng(1);
    net::LinkBudget budget(topo, net::PathLossModel{}, rng);
    budget.set_ap_client_loss_db(0, 0, testutil::kMediumLinkLoss);
    budget.set_ap_client_loss_db(1, 0, 100.0);  // hidden interferer
    budget.set_ap_client_loss_db(0, 1, testutil::kIsolatedLoss);
    budget.set_ap_client_loss_db(1, 1, testutil::kGoodLinkLoss);
    budget.set_ap_ap_loss_db(0, 1, testutil::kIsolatedLoss);
    sim::WlanConfig config;
    config.sinr_interference = true;
    return sim::Wlan(topo, std::move(budget), config);
  }

  HalfScenario() : wlan(make_wlan()), snapshot(wlan, assoc) {}
};

TEST(WidthSwitch, SecondaryHalfWinsUnderPrimaryInterference) {
  // Regression for the silent always-primary fallback: with the
  // interferer camped on the bond's PRIMARY half, the clean secondary
  // half must win the 20 MHz comparison and the decision must name it.
  const HalfScenario s;
  ASSERT_FALSE(s.snapshot.graph().adjacent(0, 1));  // hidden, not contending
  const net::ChannelAssignment assignment{net::Channel::bonded(0),
                                          net::Channel::basic(0)};
  const WidthDecision d = decide_width(s.snapshot, 0, assignment);
  EXPECT_GT(d.cell_bps_20_secondary, d.cell_bps_20_primary);
  EXPECT_DOUBLE_EQ(d.cell_bps_20,
                   std::max(d.cell_bps_20_primary,
                            d.cell_bps_20_secondary));
  EXPECT_EQ(d.width, phy::ChannelWidth::k20MHz);
  ASSERT_TRUE(d.channel.has_value());
  EXPECT_EQ(*d.channel, net::Channel::basic(1)) << "picked the "
                                                   "interfered half";
}

TEST(WidthSwitch, PrimaryHalfWinsUnderSecondaryInterference) {
  // Mirror image: interferer on the secondary half -> the primary half
  // wins (what the pre-fix code happened to do, now by measurement).
  const HalfScenario s;
  const net::ChannelAssignment assignment{net::Channel::bonded(0),
                                          net::Channel::basic(1)};
  const WidthDecision d = decide_width(s.snapshot, 0, assignment);
  EXPECT_GT(d.cell_bps_20_primary, d.cell_bps_20_secondary);
  EXPECT_EQ(d.width, phy::ChannelWidth::k20MHz);
  ASSERT_TRUE(d.channel.has_value());
  EXPECT_EQ(*d.channel, net::Channel::basic(0));
}

TEST(WidthSwitch, IndistinguishableHalvesTieToPrimary) {
  // With hidden interference off the halves are bit-identical, and the
  // tie must go to the primary so the operating channel is stable.
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kPoorLinkLoss}}};
  const sim::Wlan wlan = b.build();
  const sim::NetSnapshot snapshot(wlan, b.intended_association());
  const net::ChannelAssignment assignment{net::Channel::bonded(0)};
  const WidthDecision d = decide_width(snapshot, 0, assignment);
  EXPECT_DOUBLE_EQ(d.cell_bps_20_primary, d.cell_bps_20_secondary);
  EXPECT_EQ(d.width, phy::ChannelWidth::k20MHz);  // poor link narrows
  ASSERT_TRUE(d.channel.has_value());
  EXPECT_EQ(*d.channel, net::Channel::basic(0));
}

TEST(WidthSwitch, ContextOverloadRequiresBond) {
  const HalfScenario s;
  const net::ChannelAssignment assignment{net::Channel::basic(2),
                                          net::Channel::basic(0)};
  EXPECT_THROW(decide_width(s.snapshot, 0, assignment),
               std::invalid_argument);
}

TEST(WidthSwitch, SnapshotDecisionBitIdenticalToReferenceCells) {
  // The epoch's width fallback scores the bond and both halves on the
  // NetSnapshot. Each score must equal the object-at-a-time reference
  // cell evaluator's bit for bit, on random deployments under all four
  // sinr_interference x weighted_contention combinations, both
  // transports, the runtime's share of 1 and the AP's real share, and
  // the operating channel must be the one the reference scores pick.
  util::Rng rng(0x3D1D);
  const ChannelAllocator alloc{net::ChannelPlan(6)};
  int bonded = 0;
  for (int trial = 0; trial < 56; ++trial) {
    const bool sinr = (trial % 2) == 1;
    const bool weighted = (trial / 2 % 2) == 1;
    const ScenarioBuilder b = testutil::random_builder(rng, sinr, weighted);
    const sim::Wlan wlan = b.build();
    const net::Association assoc = testutil::random_association(b, rng);
    const sim::NetSnapshot snapshot(wlan, assoc);
    const net::InterferenceGraph graph(wlan.topology(), wlan.budget(),
                                       assoc, wlan.config().interference);
    const std::vector<std::vector<int>> clients = wlan.clients_by_ap(assoc);
    const int n_aps = wlan.topology().num_aps();
    for (int rep = 0; rep < 6; ++rep) {
      const net::ChannelAssignment f = alloc.random_assignment(n_aps, rng);
      const mac::TrafficType traffic =
          (rep % 2) == 0 ? mac::TrafficType::kUdp : mac::TrafficType::kTcp;
      for (int ap = 0; ap < n_aps; ++ap) {
        const net::Channel bond = f[static_cast<std::size_t>(ap)];
        if (!bond.is_bonded()) continue;
        ++bonded;
        const double share =
            rep < 3 ? 1.0 : net::medium_access_share(graph, f, ap);
        const auto reference_bps = [&](const net::Channel& ch) {
          net::ChannelAssignment variant = f;
          variant[static_cast<std::size_t>(ap)] = ch;
          return sim::reference::evaluate_cell_in(
                     wlan, ap, clients[static_cast<std::size_t>(ap)], share,
                     graph, variant, traffic)
              .goodput_bps;
        };
        const net::Channel lower = net::Channel::basic(bond.primary());
        const net::Channel upper = net::Channel::basic(bond.primary() + 1);
        const double on_bond = reference_bps(bond);
        const double on_lower = reference_bps(lower);
        const double on_upper = reference_bps(upper);
        const net::Channel expected =
            on_bond >= std::max(on_lower, on_upper)
                ? bond
                : (on_upper > on_lower ? upper : lower);

        const WidthDecision d =
            decide_width(snapshot, ap, f, share, traffic);
        SCOPED_TRACE("trial " + std::to_string(trial) + " rep " +
                     std::to_string(rep) + " ap " + std::to_string(ap));
        EXPECT_EQ(d.cell_bps_40, on_bond);
        EXPECT_EQ(d.cell_bps_20_primary, on_lower);
        EXPECT_EQ(d.cell_bps_20_secondary, on_upper);
        ASSERT_TRUE(d.channel.has_value());
        EXPECT_EQ(*d.channel, expected);
      }
    }
  }
  EXPECT_GE(bonded, 100);
}

TEST(WidthSwitch, DecisionFlipsAsLinkDegrades) {
  // Sweep the single client's loss: the decision must flip from 40 to 20
  // exactly once (the mobility experiment's switch point).
  // Sweep the connected regime only: past ~111 dB the client is dead on
  // both widths and the comparison degenerates.
  bool seen_20 = false;
  for (double loss = 85.0; loss <= 111.0; loss += 1.0) {
    ScenarioBuilder b;
    b.cells = {CellSpec{{loss}}};
    const sim::Wlan wlan = b.build();
    const WidthDecision d = decide_width(wlan, 0, {0});
    if (d.width == phy::ChannelWidth::k20MHz) seen_20 = true;
    if (seen_20) {
      EXPECT_EQ(d.width, phy::ChannelWidth::k20MHz)
          << "flapped back at loss " << loss;
    }
  }
  EXPECT_TRUE(seen_20);
}

}  // namespace
}  // namespace acorn::core
