// End-to-end scenario tests: ACORN against the baselines on deployments
// shaped like the paper's evaluation section (§5.2). These assert the
// *shape* results — who wins and by roughly what factor — that the
// benches then report in full.
#include <gtest/gtest.h>

#include "baselines/kai.hpp"
#include "baselines/kauffmann17.hpp"
#include "baselines/simple.hpp"
#include "core/controller.hpp"
#include "core/width_switch.hpp"
#include "testutil.hpp"

namespace acorn {
namespace {

using testutil::CellSpec;
using testutil::ScenarioBuilder;

TEST(Integration, Topology1AcornRescuesPoorCell) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const core::AcornController acorn;
  util::Rng rng(1);
  const core::ConfigureResult ours = acorn.configure(wlan, rng);
  const baselines::Kauffmann17 k17{net::ChannelPlan(12)};
  const baselines::Kauffmann17::Result theirs = k17.configure(wlan);
  const auto eval_theirs = wlan.evaluate(theirs.association,
                                         theirs.assignment);
  // Associations agree (paper: "identical"), the widths differ.
  EXPECT_EQ(ours.association, theirs.association);
  // The poor cell (AP0) gains at least 1.5x; the paper saw ~4x.
  const double ap0_ours = ours.evaluation.per_ap[0].goodput_bps;
  const double ap0_theirs = eval_theirs.per_ap[0].goodput_bps;
  EXPECT_GT(ap0_ours, 1.5 * std::max(ap0_theirs, 1.0));
  // Network-wide, ACORN is at least as good.
  EXPECT_GE(ours.evaluation.total_goodput_bps,
            eval_theirs.total_goodput_bps * 0.99);
}

// Five-AP deployment shaped like the paper's Topology 2: a mix of good
// and poor cells, enough channels for full isolation.
ScenarioBuilder topology2_builder() {
  ScenarioBuilder b;
  b.cells = {
      CellSpec{{testutil::kGoodLinkLoss, testutil::kGoodLinkLoss + 2.0}},
      CellSpec{{testutil::kGoodLinkLoss + 1.0}},
      CellSpec{{testutil::kGoodLinkLoss + 3.0}},
      CellSpec{{testutil::kPoorLinkLoss, testutil::kPoorLinkLoss + 0.2}},
      CellSpec{{testutil::kMarginalLinkLoss}},
  };
  return b;
}

TEST(Integration, Topology2PoorCellsGetTwentyMhz) {
  const ScenarioBuilder b = topology2_builder();
  const sim::Wlan wlan = b.build();
  const core::AcornController acorn;
  util::Rng rng(2);
  const core::ConfigureResult ours = acorn.configure(wlan, rng);
  // AP3 (poor clients) must end on 20 MHz; good APs 0-2 on bonds.
  EXPECT_EQ(ours.assignment[3].width(), phy::ChannelWidth::k20MHz);
  EXPECT_EQ(ours.assignment[0].width(), phy::ChannelWidth::k40MHz);
  EXPECT_EQ(ours.assignment[1].width(), phy::ChannelWidth::k40MHz);
  EXPECT_EQ(ours.assignment[2].width(), phy::ChannelWidth::k40MHz);
}

TEST(Integration, Topology2AcornBeatsK17PerPoorAp) {
  const ScenarioBuilder b = topology2_builder();
  const sim::Wlan wlan = b.build();
  const core::AcornController acorn;
  util::Rng rng(3);
  const core::ConfigureResult ours = acorn.configure(wlan, rng);
  const baselines::Kauffmann17 k17{net::ChannelPlan(12)};
  const baselines::Kauffmann17::Result theirs = k17.configure(wlan);
  const auto eval_theirs =
      wlan.evaluate(theirs.association, theirs.assignment);
  // The paper's headline: 1.5x-6x gains on the poor cells.
  const double gain3 = ours.evaluation.per_ap[3].goodput_bps /
                       std::max(eval_theirs.per_ap[3].goodput_bps, 1.0);
  EXPECT_GT(gain3, 1.5);
  EXPECT_GE(ours.evaluation.total_goodput_bps,
            eval_theirs.total_goodput_bps);
}

// Fig. 11: three mutually contending APs, only four 20 MHz channels.
struct DenseFixture {
  sim::Wlan wlan;
  net::Association assoc;

  DenseFixture() : wlan(build()), assoc{0, 1, 2} {}

  static sim::Wlan build() {
    ScenarioBuilder b;
    b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
               CellSpec{{testutil::kPoorLinkLoss}},
               CellSpec{{testutil::kPoorLinkLoss + 0.2}}};
    b.ap_ap_loss_db = 85.0;  // all three contend
    return b.build();
  }
};

TEST(Integration, DenseAcornBondsOnlyTheGoodAp) {
  DenseFixture f;
  const core::AcornController acorn({net::ChannelPlan(4), {}, {}, 1800.0});
  const core::AllocationResult result = acorn.reallocate(
      f.wlan, f.assoc,
      {net::Channel::bonded(0), net::Channel::bonded(0),
       net::Channel::bonded(0)});
  // Only AP0 should hold a bond; the poor APs use 20 MHz.
  EXPECT_EQ(result.assignment[0].width(), phy::ChannelWidth::k40MHz);
  EXPECT_EQ(result.assignment[1].width(), phy::ChannelWidth::k20MHz);
  EXPECT_EQ(result.assignment[2].width(), phy::ChannelWidth::k20MHz);
  // And the assignment isolates everyone (4 channels suffice).
  EXPECT_FALSE(result.assignment[0].conflicts(result.assignment[1]));
  EXPECT_FALSE(result.assignment[0].conflicts(result.assignment[2]));
  EXPECT_FALSE(result.assignment[1].conflicts(result.assignment[2]));
}

TEST(Integration, DenseAcornBeatsAggressiveAllForty) {
  DenseFixture f;
  const core::AcornController acorn({net::ChannelPlan(4), {}, {}, 1800.0});
  const core::AllocationResult ours = acorn.reallocate(
      f.wlan, f.assoc,
      {net::Channel::bonded(0), net::Channel::bonded(1),
       net::Channel::bonded(0)});
  // Aggressive CB with 4 channels: two bonds exist, three APs -> overlap.
  const net::ChannelAssignment all40 = {net::Channel::bonded(0),
                                        net::Channel::bonded(1),
                                        net::Channel::bonded(0)};
  const double aggressive =
      f.wlan.evaluate(f.assoc, all40).total_goodput_bps;
  // Paper: "almost 2x improvement over the aggressive allocation".
  EXPECT_GT(ours.final_bps, 1.4 * aggressive);
}

TEST(Integration, AcornBeatsBestOfRandomConfigs) {
  // Table 3's shape on a random deployment.
  util::Rng rng(7);
  net::Topology topo = net::Topology::random(4, 10, 120.0, rng);
  net::PathLossModel plm;
  plm.shadowing_sigma_db = 4.0;
  net::LinkBudget budget(topo, plm, rng);
  sim::Wlan wlan(std::move(topo), std::move(budget), sim::WlanConfig{});
  const core::AcornController acorn;
  const core::ConfigureResult ours = acorn.configure(wlan, rng);
  double best_random = 0.0;
  for (int trial = 0; trial < 25; ++trial) {
    const baselines::RandomConfig cfg =
        baselines::random_configuration(wlan, net::ChannelPlan(12), rng);
    best_random = std::max(
        best_random,
        wlan.evaluate(cfg.association, cfg.assignment).total_goodput_bps);
  }
  EXPECT_GE(ours.evaluation.total_goodput_bps, best_random * 0.98);
}

TEST(Integration, ApproximationRatioBeatsTheoryBound) {
  // Fig. 14's shape: with 2 channels T >= Y*/(Delta+1); with 6 channels
  // T approaches Y*.
  DenseFixture f;
  const double upper = core::isolated_upper_bound_bps(f.wlan, f.assoc);
  for (int channels : {2, 4, 6}) {
    const core::AcornController acorn(
        {net::ChannelPlan(channels), {}, {}, 1800.0});
    util::Rng rng(9);
    core::ChannelAllocator alloc{net::ChannelPlan(channels)};
    const core::AllocationResult result = alloc.allocate(
        f.wlan, f.assoc, alloc.random_assignment(3, rng));
    EXPECT_GE(result.final_bps, upper / 3.0 * 0.95)
        << channels << " channels";
    if (channels == 6) {
      EXPECT_GE(result.final_bps, 0.9 * upper);
    }
  }
}

TEST(Integration, MobilityWidthSwitchHappensOnce) {
  // Walking away from the AP: ACORN's width decision flips 40 -> 20 at
  // some point and stays there (Fig. 13(a)).
  // Sweep over the connected regime: beyond ~111 dB the mobile client is
  // dead on both widths and the comparison is between two starved cells.
  int flips = 0;
  phy::ChannelWidth prev = phy::ChannelWidth::k40MHz;
  for (double loss = 82.0; loss <= 111.0; loss += 0.5) {
    ScenarioBuilder b;
    b.cells = {CellSpec{
        {testutil::kGoodLinkLoss, testutil::kGoodLinkLoss + 1.0, loss}}};
    const sim::Wlan wlan = b.build();
    const core::WidthDecision d = core::decide_width(wlan, 0, {0, 1, 2});
    if (d.width != prev) {
      ++flips;
      prev = d.width;
    }
  }
  EXPECT_EQ(flips, 1);
  EXPECT_EQ(prev, phy::ChannelWidth::k20MHz);
}

TEST(Integration, AcornGroupsPoorJoinerAwayFromGoodCell) {
  // The association-divergence behind Topology 2: a poor client that
  // hears both a poor cell and a good cell joins the poor cell under
  // ACORN (Eq. 4 sees the network-wide damage) but the good cell under
  // the selfish rule.
  net::Topology topo;
  topo.add_ap({0.0, 0.0});
  topo.add_ap({50.0, 0.0});
  topo.add_client({1.0, 0.0});
  topo.add_client({51.0, 0.0});
  topo.add_client({25.0, 0.0});
  util::Rng rng(1);
  net::PathLossModel plm;
  net::LinkBudget budget(topo, plm, rng);
  budget.set_ap_ap_loss_db(0, 1, testutil::kIsolatedLoss);
  budget.set_ap_client_loss_db(0, 0, testutil::kPoorLinkLoss);
  budget.set_ap_client_loss_db(1, 0, testutil::kIsolatedLoss);
  budget.set_ap_client_loss_db(0, 1, testutil::kIsolatedLoss);
  budget.set_ap_client_loss_db(1, 1, testutil::kGoodLinkLoss);
  budget.set_ap_client_loss_db(0, 2, testutil::kPoorLinkLoss + 0.2);
  budget.set_ap_client_loss_db(1, 2, testutil::kPoorLinkLoss - 0.6);
  const sim::Wlan wlan(std::move(topo), std::move(budget),
                       sim::WlanConfig{});
  const net::ChannelAssignment ch = {net::Channel::basic(4),
                                     net::Channel::bonded(0)};
  const net::Association base = {0, 1, net::kUnassociated};
  const core::UserAssociation ua;
  const baselines::Kauffmann17 k17{net::ChannelPlan(12)};
  EXPECT_EQ(ua.select_ap(wlan, base, ch, 2), std::optional<int>(0));
  EXPECT_EQ(k17.select_ap(wlan, base, ch, 2), std::optional<int>(1));
  // And ACORN's choice yields the higher network throughput.
  net::Association ours = base;
  ours[2] = 0;
  net::Association theirs = base;
  theirs[2] = 1;
  EXPECT_GT(wlan.evaluate(ours, ch).total_goodput_bps,
            wlan.evaluate(theirs, ch).total_goodput_bps);
}

TEST(Integration, OptimalConfirmsGreedyOnSmallDense) {
  DenseFixture f;
  const net::ChannelPlan plan(4);
  const core::CachedOracle oracle(f.wlan, f.assoc);
  const baselines::KaiResult best =
      baselines::kai_exact_allocation(oracle, plan);
  core::ChannelAllocator alloc{plan};
  util::Rng rng(11);
  const core::AllocationResult greedy =
      alloc.allocate(f.wlan, f.assoc, alloc.random_assignment(3, rng));
  // In practice the greedy reaches (or nearly reaches) the optimum —
  // the paper's "much better than the worst case" observation.
  EXPECT_GE(greedy.final_bps, 0.9 * best.total_bps);
}

}  // namespace
}  // namespace acorn
