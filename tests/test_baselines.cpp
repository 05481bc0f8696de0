#include <gtest/gtest.h>

#include "baselines/kai.hpp"
#include "baselines/kauffmann17.hpp"
#include "baselines/simple.hpp"
#include "core/allocation.hpp"
#include "testutil.hpp"

namespace acorn::baselines {
namespace {

using testutil::CellSpec;
using testutil::ScenarioBuilder;

TEST(Kauffmann17, AllocatesOnlyBonds) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const Kauffmann17 k17{net::ChannelPlan(12)};
  const net::ChannelAssignment assignment = k17.allocate(wlan);
  for (const net::Channel& c : assignment) {
    EXPECT_TRUE(c.is_bonded());
  }
}

TEST(Kauffmann17, SeparatesContendingApsAcrossBonds) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
             CellSpec{{testutil::kGoodLinkLoss}}};
  b.ap_ap_loss_db = 85.0;
  const sim::Wlan wlan = b.build();
  const Kauffmann17 k17{net::ChannelPlan(12)};
  const net::ChannelAssignment assignment = k17.allocate(wlan);
  EXPECT_FALSE(assignment[0].conflicts(assignment[1]));
}

TEST(Kauffmann17, NoiseFloorIsLowerBoundOfMetric) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const Kauffmann17 k17{net::ChannelPlan(12)};
  const net::ChannelAssignment assignment = k17.allocate(wlan);
  const double metric = k17.noise_plus_interference_mw(
      wlan, assignment, 0, net::Channel::bonded(2));
  EXPECT_GT(metric, 0.0);
}

TEST(Kauffmann17, InterferenceMetricSeesCoChannelAps) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
             CellSpec{{testutil::kGoodLinkLoss}}};
  b.ap_ap_loss_db = 85.0;
  const sim::Wlan wlan = b.build();
  const Kauffmann17 k17{net::ChannelPlan(12)};
  net::ChannelAssignment both_same = {net::Channel::bonded(0),
                                      net::Channel::bonded(0)};
  const double on_same = k17.noise_plus_interference_mw(
      wlan, both_same, 0, net::Channel::bonded(0));
  const double on_clear = k17.noise_plus_interference_mw(
      wlan, both_same, 0, net::Channel::bonded(3));
  EXPECT_GT(on_same, 10.0 * on_clear);
}

TEST(Kauffmann17, SelfishAssociationPicksOwnBestThroughput) {
  // One strong AP already crowded vs an empty weaker AP: the selfish
  // client still picks whichever maximizes its own rate share.
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss, testutil::kGoodLinkLoss,
                       testutil::kGoodLinkLoss}},
             CellSpec{{}}};
  b.cross_loss_db = testutil::kMediumLinkLoss;
  const sim::Wlan wlan = b.build();
  const Kauffmann17 k17{net::ChannelPlan(12)};
  net::Association assoc = {0, 0, net::kUnassociated};
  const net::ChannelAssignment ch = {net::Channel::bonded(0),
                                     net::Channel::bonded(1)};
  const auto pick = k17.select_ap(wlan, assoc, ch, 2);
  ASSERT_TRUE(pick.has_value());
  // Empty medium-quality AP beats sharing a crowded cell 3 ways.
  EXPECT_EQ(*pick, 1);
}

TEST(Kauffmann17, ConfigureAssociatesEveryone) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const Kauffmann17 k17{net::ChannelPlan(12)};
  const Kauffmann17::Result result = k17.configure(wlan);
  for (int owner : result.association) {
    EXPECT_NE(owner, net::kUnassociated);
  }
}

TEST(RssAssociation, PicksStrongestSignal) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}}, CellSpec{{}}};
  b.cross_loss_db = testutil::kGoodLinkLoss + 5.0;
  const sim::Wlan wlan = b.build();
  EXPECT_EQ(rss_association(wlan, 0), std::optional<int>(0));
}

TEST(RssAssociation, NulloptWhenOutOfRange) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kIsolatedLoss}}};
  const sim::Wlan wlan = b.build();
  EXPECT_FALSE(rss_association(wlan, 0).has_value());
}

TEST(RssAssociateAll, CoversAllClients) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const net::Association assoc = rss_associate_all(wlan);
  EXPECT_EQ(assoc.size(), 4u);
  EXPECT_EQ(assoc[0], 0);
  EXPECT_EQ(assoc[2], 1);
}

TEST(RandomAssociateAll, OnlyInRangeApsChosen) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  util::Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const net::Association assoc = random_associate_all(wlan, rng);
    EXPECT_EQ(assoc[0], 0);  // only AP0 audible to client 0
    EXPECT_EQ(assoc[3], 1);
  }
}

TEST(FixedWidth, RoundRobinAcrossPool) {
  const net::ChannelPlan plan(4);
  const net::ChannelAssignment on20 =
      fixed_width_assignment(plan, 6, phy::ChannelWidth::k20MHz);
  ASSERT_EQ(on20.size(), 6u);
  EXPECT_EQ(on20[0], net::Channel::basic(0));
  EXPECT_EQ(on20[3], net::Channel::basic(3));
  EXPECT_EQ(on20[4], net::Channel::basic(0));
  const net::ChannelAssignment on40 =
      fixed_width_assignment(plan, 3, phy::ChannelWidth::k40MHz);
  EXPECT_EQ(on40[0], net::Channel::bonded(0));
  EXPECT_EQ(on40[2], net::Channel::bonded(0));
}

TEST(RandomConfiguration, ShapesAreConsistent) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  util::Rng rng(4);
  const RandomConfig cfg =
      random_configuration(wlan, net::ChannelPlan(12), rng);
  EXPECT_EQ(cfg.assignment.size(), 2u);
  EXPECT_EQ(cfg.association.size(), 4u);
}

TEST(Optimal, ThrowsWhenSearchSpaceTooLarge) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const core::CachedOracle oracle(wlan, b.intended_association());
  EXPECT_THROW(kai_exact_allocation(oracle, net::ChannelPlan(12), 10),
               std::invalid_argument);
}

TEST(Optimal, FindsIsolationWhenPossible) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
             CellSpec{{testutil::kGoodLinkLoss}}};
  b.ap_ap_loss_db = 85.0;
  const sim::Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const core::CachedOracle oracle(wlan, assoc);
  const KaiResult best = kai_exact_allocation(oracle, net::ChannelPlan(4));
  EXPECT_TRUE(best.exact);
  EXPECT_FALSE(best.assignment[0].conflicts(best.assignment[1]));
  EXPECT_EQ(best.evaluations, 36);  // 6 colors ^ 2 APs
}

TEST(Optimal, DominatesGreedyAllocator) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
             CellSpec{{testutil::kMarginalLinkLoss}},
             CellSpec{{testutil::kMediumLinkLoss}}};
  b.ap_ap_loss_db = 88.0;
  const sim::Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const net::ChannelPlan plan(4);
  const core::CachedOracle oracle(wlan, assoc);
  const KaiResult best = kai_exact_allocation(oracle, plan);
  const core::ChannelAllocator alloc{plan};
  util::Rng rng(5);
  const core::AllocationResult greedy =
      alloc.allocate(wlan, assoc, alloc.random_assignment(3, rng));
  EXPECT_GE(best.total_bps, greedy.final_bps - 1.0);
}

}  // namespace
}  // namespace acorn::baselines
