#include "core/allocation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "testutil.hpp"

namespace acorn::core {
namespace {

using testutil::CellSpec;
using testutil::ScenarioBuilder;

TEST(Allocator, ValidatesConfig) {
  EXPECT_THROW(ChannelAllocator(net::ChannelPlan(4), {0.9, 10}),
               std::invalid_argument);
  EXPECT_THROW(ChannelAllocator(net::ChannelPlan(4), {1.05, 0}),
               std::invalid_argument);
  EXPECT_THROW(ChannelAllocator(net::ChannelPlan(4), {1.05, 16, 0}),
               std::invalid_argument);
  EXPECT_THROW(ChannelAllocator(net::ChannelPlan(4), {1.05, 16, 2}),
               std::invalid_argument);
}

TEST(Allocator, RandomAssignmentUsesPlanColors) {
  const ChannelAllocator alloc{net::ChannelPlan(4)};
  util::Rng rng(1);
  const net::ChannelAssignment a = alloc.random_assignment(50, rng);
  EXPECT_EQ(a.size(), 50u);
  for (const net::Channel& c : a) {
    for (int occ : c.occupied()) {
      EXPECT_GE(occ, 0);
      EXPECT_LT(occ, 4);
    }
  }
}

TEST(Allocator, RejectsWrongInitialSize) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const ChannelAllocator alloc{net::ChannelPlan(4)};
  EXPECT_THROW(alloc.allocate(wlan, b.intended_association(),
                              {net::Channel::basic(0)}),
               std::invalid_argument);
}

TEST(Allocator, NeverDecreasesThroughput) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const ChannelAllocator alloc{net::ChannelPlan(12)};
  util::Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const net::ChannelAssignment initial = alloc.random_assignment(2, rng);
    const double before =
        wlan.evaluate(assoc, initial).total_goodput_bps;
    const AllocationResult result = alloc.allocate(wlan, assoc, initial);
    EXPECT_GE(result.final_bps, before - 1.0);
    // The trajectory is monotone nondecreasing.
    for (std::size_t i = 1; i < result.trajectory_bps.size(); ++i) {
      EXPECT_GE(result.trajectory_bps[i], result.trajectory_bps[i - 1] - 1.0);
    }
  }
}

TEST(Allocator, AssignsTwentyToPoorCell) {
  // Topology 1 behaviour: the allocator must end with the poor cell on a
  // 20 MHz channel and the good cell on a 40 MHz bond.
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const ChannelAllocator alloc{net::ChannelPlan(12)};
  util::Rng rng(3);
  const AllocationResult result = alloc.allocate(
      wlan, b.intended_association(), alloc.random_assignment(2, rng));
  EXPECT_EQ(result.assignment[0].width(), phy::ChannelWidth::k20MHz);
  EXPECT_EQ(result.assignment[1].width(), phy::ChannelWidth::k40MHz);
}

TEST(Allocator, SeparatesContendingAps) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
             CellSpec{{testutil::kGoodLinkLoss}}};
  b.ap_ap_loss_db = 90.0;  // contending
  const sim::Wlan wlan = b.build();
  const ChannelAllocator alloc{net::ChannelPlan(12)};
  // Start both on the same bond.
  net::ChannelAssignment initial = {net::Channel::bonded(0),
                                    net::Channel::bonded(0)};
  const AllocationResult result =
      alloc.allocate(wlan, b.intended_association(), initial);
  EXPECT_FALSE(result.assignment[0].conflicts(result.assignment[1]));
}

TEST(Allocator, StopsWhenNoImprovementPossible) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const ChannelAllocator alloc{net::ChannelPlan(12)};
  util::Rng rng(4);
  const AllocationResult first = alloc.allocate(
      wlan, b.intended_association(), alloc.random_assignment(2, rng));
  // Re-running from the fixed point changes nothing.
  const AllocationResult second =
      alloc.allocate(wlan, b.intended_association(), first.assignment);
  EXPECT_EQ(second.switches, 0);
  EXPECT_NEAR(second.final_bps, first.final_bps, 1.0);
}

TEST(Allocator, CountsEvaluationsAndSwitches) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const ChannelAllocator alloc{net::ChannelPlan(4)};
  net::ChannelAssignment initial = {net::Channel::bonded(0),
                                    net::Channel::bonded(0)};
  const AllocationResult result =
      alloc.allocate(wlan, b.intended_association(), initial);
  EXPECT_GT(result.evaluations, 0);
  EXPECT_GE(result.switches, 1);
  EXPECT_EQ(result.trajectory_bps.size(),
            static_cast<std::size_t>(result.switches) + 1);
}

TEST(Allocator, ConvergedNetworkStopsAfterOneScan) {
  // Regression: a round that commits zero switches must end the search
  // unconditionally. With epsilon == 1.0 (allowed by the ctor) the old
  // epsilon test `y < eps * y_round_start` never fired on a converged
  // network and all max_rounds rounds burned full n_aps x n_colors scans.
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const int n_colors =
      static_cast<int>(net::ChannelPlan(4).all_channels().size());
  const ChannelAllocator alloc{net::ChannelPlan(4), {1.0, 16}};
  util::Rng rng(21);
  const AllocationResult first = alloc.allocate(
      wlan, b.intended_association(), alloc.random_assignment(2, rng));
  // Re-run from the fixed point: exactly the initial evaluation plus one
  // full scan, O(n_aps x n_colors), then stop.
  const AllocationResult second =
      alloc.allocate(wlan, b.intended_association(), first.assignment);
  EXPECT_EQ(second.switches, 0);
  EXPECT_EQ(second.evaluations, 1 + 2 * (n_colors - 1));
}

TEST(Allocator, DegenerateZeroGoodputStopsAfterOneScan) {
  // Regression: with no clients every oracle call returns 0, so
  // `y < eps * y_round_start` (0 < eps * 0) was always false and the old
  // loop rescanned the empty network for all max_rounds rounds.
  ScenarioBuilder b;
  b.cells = {CellSpec{{}}, CellSpec{{}}};  // two APs, zero clients
  const sim::Wlan wlan = b.build();
  const int n_colors =
      static_cast<int>(net::ChannelPlan(4).all_channels().size());
  const ChannelAllocator alloc{net::ChannelPlan(4)};
  const AllocationResult result = alloc.allocate(
      wlan, {}, {net::Channel::basic(0), net::Channel::basic(1)});
  EXPECT_EQ(result.final_bps, 0.0);
  EXPECT_EQ(result.switches, 0);
  EXPECT_EQ(result.evaluations, 1 + 2 * (n_colors - 1));
}

TEST(Allocator, EvaluationCounterIncludesInitialMeasurement) {
  // The paper's k counter: the initial y(F_0) call plus every candidate
  // trial. On a flat landscape one scan finds no winner and the search
  // ends, so the count is exact.
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const int n_colors =
      static_cast<int>(net::ChannelPlan(4).all_channels().size());
  const ChannelAllocator alloc{net::ChannelPlan(4)};
  const ThroughputOracle flat =
      [](const net::Association&, const net::ChannelAssignment&) {
        return 1.0;
      };
  const AllocationResult result =
      alloc.allocate(wlan, b.intended_association(),
                     {net::Channel::basic(0), net::Channel::basic(1)}, flat);
  EXPECT_EQ(result.evaluations, 1 + 2 * (n_colors - 1));
}

TEST(Allocator, CustomOracleIsUsed) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const ChannelAllocator alloc{net::ChannelPlan(4)};
  int oracle_calls = 0;
  const ThroughputOracle oracle =
      [&oracle_calls](const net::Association&,
                      const net::ChannelAssignment&) {
        ++oracle_calls;
        return 1.0;  // flat landscape: nothing to improve
      };
  const AllocationResult result =
      alloc.allocate(wlan, b.intended_association(),
                     {net::Channel::basic(0), net::Channel::basic(1)},
                     oracle);
  EXPECT_GT(oracle_calls, 0);
  EXPECT_EQ(result.switches, 0);
}

TEST(Allocator, WorstCaseBoundHolds) {
  // O(1/(Delta+1)): final throughput >= Y* / (Delta + 1) on a contending
  // pair (Delta = 1).
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
             CellSpec{{testutil::kMediumLinkLoss}}};
  b.ap_ap_loss_db = 88.0;
  const sim::Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const ChannelAllocator alloc{net::ChannelPlan(2)};
  util::Rng rng(5);
  const double upper = isolated_upper_bound_bps(wlan, assoc);
  for (int trial = 0; trial < 5; ++trial) {
    const AllocationResult result =
        alloc.allocate(wlan, assoc, alloc.random_assignment(2, rng));
    EXPECT_GE(result.final_bps, upper / 2.0 * 0.95);
  }
}

TEST(Allocator, ReachesUpperBoundWithPlentyOfChannels) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
             CellSpec{{testutil::kGoodLinkLoss}}};
  b.ap_ap_loss_db = 88.0;
  const sim::Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const ChannelAllocator alloc{net::ChannelPlan(12)};
  util::Rng rng(6);
  const AllocationResult result =
      alloc.allocate(wlan, assoc, alloc.random_assignment(2, rng));
  EXPECT_NEAR(result.final_bps, isolated_upper_bound_bps(wlan, assoc),
              0.02 * result.final_bps);
}

TEST(UpperBound, SumsIsolatedBests) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const double upper = isolated_upper_bound_bps(wlan, assoc);
  EXPECT_NEAR(upper,
              wlan.isolated_best_bps(0, {0, 1}) +
                  wlan.isolated_best_bps(1, {2, 3}),
              1.0);
}

}  // namespace
}  // namespace acorn::core
