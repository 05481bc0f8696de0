#include "baselines/gibbs.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "testutil.hpp"

namespace acorn::baselines {
namespace {

using testutil::CellSpec;
using testutil::ScenarioBuilder;

TEST(Gibbs, ValidatesConfig) {
  GibbsConfig bad;
  bad.sweeps = 0;
  EXPECT_THROW(GibbsAllocator(net::ChannelPlan(4), bad),
               std::invalid_argument);
  bad = GibbsConfig{};
  bad.cooling = 1.5;
  EXPECT_THROW(GibbsAllocator(net::ChannelPlan(4), bad),
               std::invalid_argument);
}

TEST(Gibbs, BondsOnlyUsesBonds) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const GibbsAllocator gibbs{net::ChannelPlan(12)};
  util::Rng rng(1);
  const net::ChannelAssignment a = gibbs.allocate(wlan, rng);
  ASSERT_EQ(a.size(), 2u);
  for (const net::Channel& c : a) EXPECT_TRUE(c.is_bonded());
}

TEST(Gibbs, FullColorSetCanUseBasics) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  GibbsConfig cfg;
  cfg.bonds_only = false;
  const GibbsAllocator gibbs{net::ChannelPlan(2), cfg};
  // With 2 basic channels + 1 bond, repeated runs must occasionally pick
  // a basic color.
  util::Rng rng(2);
  bool saw_basic = false;
  for (int trial = 0; trial < 20 && !saw_basic; ++trial) {
    for (const net::Channel& c : gibbs.allocate(wlan, rng)) {
      if (!c.is_bonded()) saw_basic = true;
    }
  }
  EXPECT_TRUE(saw_basic);
}

TEST(Gibbs, EnergyCountsOverlapWeightedInterference) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
             CellSpec{{testutil::kGoodLinkLoss}}};
  b.ap_ap_loss_db = 85.0;
  const sim::Wlan wlan = b.build();
  const GibbsAllocator gibbs{net::ChannelPlan(12)};
  const net::ChannelAssignment assignment = {net::Channel::bonded(0),
                                             net::Channel::bonded(0)};
  const double co = gibbs.energy_mw(wlan, assignment, 0,
                                    net::Channel::bonded(0));
  const double clear = gibbs.energy_mw(wlan, assignment, 0,
                                       net::Channel::bonded(3));
  const double half = gibbs.energy_mw(wlan, assignment, 0,
                                      net::Channel::basic(0));
  EXPECT_GT(co, 0.0);
  EXPECT_EQ(clear, 0.0);
  EXPECT_GT(co, half);
  EXPECT_GT(half, 0.0);
}

TEST(Gibbs, CoolsIntoLowInterferenceStates) {
  // Two contending APs, plenty of bonds: the sampler should separate
  // them (interference energy 0) essentially always after cooling.
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
             CellSpec{{testutil::kGoodLinkLoss}}};
  b.ap_ap_loss_db = 85.0;
  const sim::Wlan wlan = b.build();
  const GibbsAllocator gibbs{net::ChannelPlan(12)};
  util::Rng rng(3);
  int separated = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const net::ChannelAssignment a = gibbs.allocate(wlan, rng);
    if (!a[0].conflicts(a[1])) ++separated;
  }
  EXPECT_GE(separated, 9);
}

TEST(Gibbs, DeterministicPerSeed) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const GibbsAllocator gibbs{net::ChannelPlan(12)};
  util::Rng r1(4);
  util::Rng r2(4);
  EXPECT_EQ(gibbs.allocate(wlan, r1), gibbs.allocate(wlan, r2));
}

}  // namespace
}  // namespace acorn::baselines
