#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "testutil.hpp"

namespace acorn::core {
namespace {

constexpr std::uint64_t kSeed = 7;
const double kNan = std::numeric_limits<double>::quiet_NaN();

// Topology 1 on the 12-channel plan: AP 0 serves the poor clients 0 and
// 1, AP 1 the good clients 2 and 3.
WlanRuntime make_runtime(WlanState state = {}) {
  return WlanRuntime(testutil::topology1_builder().build(),
                     net::ChannelPlan(12), std::move(state), kSeed, 1.05);
}

WlanState with_channels(net::ChannelAssignment allocated,
                        net::ChannelAssignment operating = {}) {
  WlanState s;
  s.allocated = std::move(allocated);
  s.operating = std::move(operating);
  return s;
}

int associated(const WlanRuntime& rt) {
  int n = 0;
  for (const int ap : rt.state().association) {
    if (ap != net::kUnassociated) ++n;
  }
  return n;
}

template <typename Fn>
std::string rejection(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

TEST(Runtime, RejectsWrongInitialSize) {
  EXPECT_THROW(make_runtime(with_channels({net::Channel::basic(0)})),
               std::invalid_argument);
  WlanState s;
  s.association = {0, 0};
  EXPECT_THROW(make_runtime(s), std::invalid_argument);
}

TEST(Runtime, ClientsStartUnassociated) {
  const WlanRuntime rt = make_runtime();
  ASSERT_EQ(rt.state().association.size(), 4u);
  EXPECT_EQ(associated(rt), 0);
  EXPECT_EQ(rt.state().epoch, 0u);
}

TEST(Runtime, EmptyAllocationIsDrawnFromTheSeed) {
  const WlanRuntime rt = make_runtime();
  util::Rng rng(kSeed);
  const ChannelAllocator allocator{net::ChannelPlan(12)};
  EXPECT_EQ(rt.state().allocated, allocator.random_assignment(2, rng));
  EXPECT_EQ(rt.state().operating, rt.state().allocated);
}

TEST(Runtime, ArrivalAssociatesImmediately) {
  WlanRuntime rt = make_runtime();
  EXPECT_TRUE(rt.join(0));
  EXPECT_NE(rt.state().association[0], net::kUnassociated);
}

// A repeated join is a re-association probe, not an error: with nothing
// changed it lands on the same AP.
TEST(Runtime, RepeatedJoinIsAReassociationProbe) {
  WlanRuntime rt = make_runtime();
  ASSERT_TRUE(rt.join(0));
  const int home = rt.state().association[0];
  EXPECT_FALSE(rt.join(0));
  EXPECT_EQ(rt.state().association[0], home);
  EXPECT_EQ(rejection([&] { rt.join(99); }), "client id out of range");
}

TEST(Runtime, DepartureDetaches) {
  WlanRuntime rt = make_runtime();
  rt.join(0);
  EXPECT_TRUE(rt.leave(0));
  EXPECT_EQ(rt.state().association[0], net::kUnassociated);
  EXPECT_FALSE(rt.leave(0));
  EXPECT_TRUE(rt.join(0));  // re-arrival works
}

TEST(Runtime, EpochFixesBadInitialAssignment) {
  // Both APs on the same bond.
  WlanRuntime rt = make_runtime(with_channels(
      {net::Channel::bonded(0), net::Channel::bonded(0)}));
  for (std::uint32_t u = 0; u < 4; ++u) rt.join(u);
  const EpochRecord rec = rt.run_epoch();
  // After the first pass the poor cell must sit on 20 MHz.
  EXPECT_EQ(rt.state().allocated[0].width(), phy::ChannelWidth::k20MHz);
  EXPECT_EQ(rt.state().allocated[1].width(), phy::ChannelWidth::k40MHz);
  EXPECT_GT(rec.channel_switches, 0);
  EXPECT_GT(rec.evaluations, 0);
  EXPECT_EQ(rt.state().epoch, 1u);
  EXPECT_EQ(associated(rt), 4);
}

TEST(Runtime, SecondPassIsQuiescent) {
  WlanRuntime rt = make_runtime(with_channels(
      {net::Channel::bonded(0), net::Channel::bonded(0)}));
  for (std::uint32_t u = 0; u < 4; ++u) rt.join(u);
  rt.run_epoch();
  const EpochRecord second = rt.run_epoch();
  EXPECT_EQ(second.channel_switches, 0);
  EXPECT_EQ(second.width_switches, 0);
  EXPECT_EQ(second.assoc_changes, 0);
  EXPECT_EQ(rt.state().epoch, 2u);
}

TEST(Runtime, ReportsThroughputOfCurrentPopulation) {
  WlanRuntime rt = make_runtime();
  rt.join(2);  // one good client only
  rt.run_epoch();
  EXPECT_EQ(associated(rt), 1);
  EXPECT_GT(rt.goodput_bps(), 10e6);
}

// goodput_bps() keeps its total until an input changes: after every kind
// of event, and after an epoch, it equals bit for bit the total of a
// runtime freshly built from the same state.
TEST(Runtime, GoodputMatchesAFreshRuntimeAfterEveryInput) {
  WlanRuntime rt = make_runtime();
  const std::vector<std::pair<std::string, std::function<void()>>> steps = {
      {"join 0", [&] { rt.join(0); }},
      {"join 2", [&] { rt.join(2); }},
      {"join 3", [&] { rt.join(3); }},
      {"epoch", [&] { rt.run_epoch(); }},
      {"link loss", [&] { rt.set_link_loss(1, 2, 95.0); }},
      {"changed load", [&] { rt.set_load(3, 0.25); }},
      {"unchanged load", [&] { rt.set_load(3, 0.25); }},
      {"leave 2", [&] { rt.leave(2); }},
      {"epoch", [&] { rt.run_epoch(); }},
  };
  std::vector<std::string> moved;
  double last = rt.goodput_bps();
  for (const auto& [name, step] : steps) {
    SCOPED_TRACE(name);
    step();
    const double got = rt.goodput_bps();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(
                  make_runtime(rt.state()).goodput_bps()));
    if (got != last) moved.push_back(name);
    last = got;
  }
  // These steps move the total, so a stale kept value cannot pass. A
  // load weights only Algorithm 2's objective, not the reported total,
  // and the last epoch finds nothing to improve.
  EXPECT_EQ(moved, (std::vector<std::string>{"join 0", "join 2", "join 3",
                                             "epoch", "link loss",
                                             "leave 2"}));
}

TEST(Runtime, EventsRejectBadInputsWithoutChangingState) {
  WlanRuntime rt = make_runtime();
  rt.join(2);
  const WlanState before = rt.state();
  EXPECT_EQ(rejection([&] { rt.leave(4); }), "client id out of range");
  EXPECT_EQ(rejection([&] { rt.set_link_loss(2, 0, 90.0); }),
            "ap/client id out of range");
  EXPECT_EQ(rejection([&] { rt.set_link_loss(0, 4, 90.0); }),
            "ap/client id out of range");
  const double inf = std::numeric_limits<double>::infinity();
  for (const double loss : {kNan, -1.0, inf}) {
    EXPECT_EQ(rejection([&] { rt.set_link_loss(0, 0, loss); }),
              "loss_db must be finite and non-negative");
  }
  EXPECT_EQ(rejection([&] { rt.set_load(4, 1.0); }), "client id out of range");
  for (const double load : {kNan, -0.5}) {
    EXPECT_EQ(rejection([&] { rt.set_load(0, load); }),
              "load must be finite and non-negative");
  }
  EXPECT_EQ(rt.state().association, before.association);
  EXPECT_TRUE(rt.state().loss_overrides.empty());
  EXPECT_TRUE(rt.state().loads.empty());
  EXPECT_TRUE(rt.state().dirty.empty());
}

// An SNR update marks the client for the next epoch's re-probe; a probe
// that finds no usable AP keeps the client where it was.
TEST(Runtime, FailedReprobeKeepsTheClient) {
  WlanRuntime rt = make_runtime();
  ASSERT_TRUE(rt.join(2));
  const int home = rt.state().association[2];
  rt.set_link_loss(0, 2, 300.0);
  rt.set_link_loss(1, 2, 300.0);
  EXPECT_EQ(rt.state().dirty, (std::set<std::uint32_t>{2}));
  EXPECT_EQ(rt.state().loss_overrides.size(), 2u);
  const EpochRecord rec = rt.run_epoch();
  EXPECT_EQ(rec.assoc_changes, 0);
  EXPECT_EQ(rt.state().association[2], home);
  EXPECT_TRUE(rt.state().dirty.empty());
}

TEST(Runtime, OracleStatsSurviveRetirement) {
  WlanRuntime rt = make_runtime();
  for (std::uint32_t u = 0; u < 4; ++u) rt.join(u);
  rt.run_epoch();
  const OracleCacheStats first = rt.oracle_stats();
  EXPECT_GT(first.cell_evals, 0u);
  ASSERT_TRUE(rt.leave(3));  // retires the oracle
  EXPECT_EQ(rt.oracle_stats().cell_evals, first.cell_evals);
  rt.run_epoch();
  EXPECT_GT(rt.oracle_stats().cell_evals, first.cell_evals);
}

// Recovery hands the constructor whatever a checksum-valid snapshot
// holds: it must refuse every shape an epoch cannot produce.
TEST(Runtime, RejectsAssociationNamingNoAp) {
  for (const int bad : {2, 5, -7}) {
    WlanState s;
    s.association = {bad, 0, 1, 1};
    EXPECT_EQ(rejection([&] { make_runtime(s); }),
              "snapshot association names no AP")
        << bad;
  }
  WlanState ok;
  ok.association = {net::kUnassociated, 0, 1, 1};
  EXPECT_EQ(rejection([&] { make_runtime(ok); }), "accepted");
}

TEST(Runtime, RejectsChannelsOutsideThePlan) {
  // Bond 6 occupies basic channels 12 and 13 of a 12-channel plan.
  for (const net::Channel bad :
       {net::Channel::bonded(6), net::Channel::bonded(30),
        net::Channel::basic(12)}) {
    EXPECT_EQ(rejection([&] {
                make_runtime(with_channels({net::Channel::basic(0), bad}));
              }),
              "snapshot channel outside the plan")
        << bad.to_string();
  }
  // The plan's top bond and top basic channel are fine.
  EXPECT_EQ(rejection([&] {
              make_runtime(with_channels(
                  {net::Channel::bonded(5), net::Channel::basic(11)}));
            }),
            "accepted");
}

TEST(Runtime, RejectsOperatingChannelThatIsNotItsAllocation) {
  const net::ChannelAssignment allocated = {net::Channel::bonded(0),
                                            net::Channel::basic(5)};
  const std::vector<net::ChannelAssignment> bad = {
      {net::Channel::basic(2), net::Channel::basic(5)},    // not a half
      {net::Channel::bonded(1), net::Channel::basic(5)},   // another bond
      {net::Channel::bonded(0), net::Channel::basic(4)},   // moved
      {net::Channel::bonded(0), net::Channel::bonded(2)},  // widened
  };
  for (const net::ChannelAssignment& operating : bad) {
    EXPECT_EQ(rejection([&] {
                make_runtime(with_channels(allocated, operating));
              }),
              "snapshot operating channel is not its allocation or a half");
  }
  // The allocation itself, and either half of the bond.
  for (const int half : {0, 1}) {
    EXPECT_EQ(rejection([&] {
                make_runtime(with_channels(
                    allocated,
                    {net::Channel::basic(half), net::Channel::basic(5)}));
              }),
              "accepted");
  }
  EXPECT_EQ(rejection([&] {
              make_runtime(with_channels(allocated, allocated));
            }),
            "accepted");
}

TEST(Runtime, RejectsOutOfRangeInputs) {
  WlanState loss_ap;
  loss_ap.loss_overrides[{2, 0}] = 90.0;
  WlanState loss_nan;
  loss_nan.loss_overrides[{0, 0}] = kNan;
  WlanState load_client;
  load_client.loads[4] = 1.0;
  WlanState load_negative;
  load_negative.loads[0] = -1.0;
  WlanState dirty;
  dirty.dirty = {4};
  for (const WlanState& s :
       {loss_ap, loss_nan, load_client, load_negative, dirty}) {
    EXPECT_THROW(make_runtime(s), std::invalid_argument);
  }
  // In-range inputs recover, and the overrides reach the link budget.
  WlanState ok;
  ok.loss_overrides[{1, 2}] = 300.0;
  ok.loads[3] = 0.25;
  ok.dirty = {2};
  WlanRuntime rt = make_runtime(ok);
  EXPECT_FALSE(rt.join(2));  // no AP is usable for client 2 any more
}

}  // namespace
}  // namespace acorn::core
