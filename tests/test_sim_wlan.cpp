#include "sim/wlan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/wlan_reference.hpp"
#include "testutil.hpp"

namespace acorn::sim {
namespace {

using testutil::CellSpec;
using testutil::ScenarioBuilder;

TEST(Wlan, ClientSnrMatchesLinkModel) {
  const Wlan wlan = testutil::topology1_builder().build();
  const double snr =
      wlan.client_snr_db(1, 2, phy::ChannelWidth::k20MHz);
  EXPECT_NEAR(snr, wlan.link_model().snr_db(
                       15.0, testutil::kGoodLinkLoss,
                       phy::ChannelWidth::k20MHz),
              1e-9);
}

TEST(Wlan, EvaluateValidatesSizes) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const Wlan wlan = b.build();
  const net::ChannelAssignment good = {net::Channel::basic(0),
                                       net::Channel::basic(1)};
  EXPECT_THROW(wlan.evaluate({0}, good), std::invalid_argument);
  EXPECT_THROW(wlan.evaluate(b.intended_association(),
                             {net::Channel::basic(0)}),
               std::invalid_argument);
}

TEST(Wlan, ClientsOfFiltersAssociation) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const Wlan wlan = b.build();
  const net::Association assoc = {0, 1, 1, net::kUnassociated};
  EXPECT_EQ(wlan.clients_of(assoc, 0), std::vector<int>{0});
  EXPECT_EQ(wlan.clients_of(assoc, 1), (std::vector<int>{1, 2}));
}

TEST(Wlan, UnassociatedClientContributesNothing) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const Wlan wlan = b.build();
  const net::ChannelAssignment ch = {net::Channel::basic(0),
                                     net::Channel::basic(2)};
  const net::Association all = b.intended_association();
  net::Association missing = all;
  missing[0] = net::kUnassociated;
  const double with_all = wlan.evaluate(all, ch).total_goodput_bps;
  const double with_missing = wlan.evaluate(missing, ch).total_goodput_bps;
  // The poor cell's remaining client gets everything the pair had and
  // more (one slow client fewer): total cannot drop.
  EXPECT_GE(with_missing, with_all * 0.99);
}

TEST(Wlan, IsolatedCellPrefersWidthByLinkClass) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
             CellSpec{{testutil::kPoorLinkLoss}}};
  const Wlan wlan = b.build();
  // Good cell: 40 MHz wins; poor cell: 20 MHz wins.
  EXPECT_GT(wlan.isolated_cell_bps(0, {0}, phy::ChannelWidth::k40MHz),
            wlan.isolated_cell_bps(0, {0}, phy::ChannelWidth::k20MHz));
  EXPECT_LT(wlan.isolated_cell_bps(1, {1}, phy::ChannelWidth::k40MHz),
            wlan.isolated_cell_bps(1, {1}, phy::ChannelWidth::k20MHz));
}

TEST(Wlan, IsolatedBestTakesMaxOverWidths) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}}};
  const Wlan wlan = b.build();
  const double best = wlan.isolated_best_bps(0, {0});
  EXPECT_DOUBLE_EQ(
      best, std::max(wlan.isolated_cell_bps(0, {0}, phy::ChannelWidth::k20MHz),
                     wlan.isolated_cell_bps(0, {0},
                                            phy::ChannelWidth::k40MHz)));
}

TEST(Wlan, IsolatedCellBitIdenticalToReference) {
  // Sweep client losses across the whole operating range (strong link
  // down past the association edge) so every RateTable segment is
  // exercised, then demand exact equality with the best_rate reference.
  std::vector<double> losses;
  for (double l = 60.0; l <= 118.0; l += 1.7) losses.push_back(l);
  ScenarioBuilder b;
  b.cells = {CellSpec{losses}};
  const Wlan wlan = b.build();
  std::vector<int> clients(losses.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i] = static_cast<int>(i);
  }
  for (phy::ChannelWidth width :
       {phy::ChannelWidth::k20MHz, phy::ChannelWidth::k40MHz}) {
    for (mac::TrafficType traffic :
         {mac::TrafficType::kUdp, mac::TrafficType::kTcp}) {
      EXPECT_EQ(wlan.isolated_cell_bps(0, clients, width, traffic),
                reference::isolated_cell_bps(wlan, 0, clients, width,
                                             traffic));
      for (int c : clients) {
        EXPECT_EQ(wlan.isolated_cell_bps(0, {c}, width, traffic),
                  reference::isolated_cell_bps(wlan, 0, {c}, width,
                                               traffic));
      }
    }
  }
  EXPECT_EQ(wlan.isolated_cell_bps(0, {}, phy::ChannelWidth::k20MHz), 0.0);
}

TEST(Wlan, ContentionHalvesThroughput) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
             CellSpec{{testutil::kGoodLinkLoss}}};
  b.ap_ap_loss_db = 90.0;  // within carrier sense
  const Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const net::ChannelAssignment same = {net::Channel::basic(0),
                                       net::Channel::basic(0)};
  const net::ChannelAssignment split = {net::Channel::basic(0),
                                        net::Channel::basic(1)};
  const Evaluation on_same = wlan.evaluate(assoc, same);
  const Evaluation on_split = wlan.evaluate(assoc, split);
  EXPECT_NEAR(on_same.total_goodput_bps / on_split.total_goodput_bps, 0.5,
              0.05);
  EXPECT_DOUBLE_EQ(on_same.per_ap[0].medium_share, 0.5);
  EXPECT_DOUBLE_EQ(on_split.per_ap[0].medium_share, 1.0);
}

TEST(Wlan, AnomalyVisibleAtCellLevel) {
  // Mixed cell: adding a poor client hurts the good client's share.
  ScenarioBuilder good_only;
  good_only.cells = {CellSpec{{testutil::kGoodLinkLoss}}};
  ScenarioBuilder mixed;
  mixed.cells = {
      CellSpec{{testutil::kGoodLinkLoss, testutil::kPoorLinkLoss}}};
  const Wlan wg = good_only.build();
  const Wlan wm = mixed.build();
  const net::ChannelAssignment ch = {net::Channel::basic(0)};
  const Evaluation eg = wg.evaluate(good_only.intended_association(), ch);
  const Evaluation em = wm.evaluate(mixed.intended_association(), ch);
  const double good_alone = eg.per_ap[0].client_goodput_bps[0];
  const double good_with_poor = em.per_ap[0].client_goodput_bps[0];
  EXPECT_LT(good_with_poor, 0.25 * good_alone);
}

TEST(Wlan, TcpBelowUdp) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const Wlan wlan = b.build();
  const net::ChannelAssignment ch = {net::Channel::basic(0),
                                     net::Channel::basic(2)};
  const double udp = wlan.evaluate(b.intended_association(), ch,
                                   mac::TrafficType::kUdp)
                         .total_goodput_bps;
  const double tcp = wlan.evaluate(b.intended_association(), ch,
                                   mac::TrafficType::kTcp)
                         .total_goodput_bps;
  EXPECT_LT(tcp, udp);
  EXPECT_GT(tcp, 0.3 * udp);
}

TEST(Wlan, StatsBookkeepingConsistent) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const Wlan wlan = b.build();
  const net::ChannelAssignment ch = {net::Channel::basic(0),
                                     net::Channel::bonded(1)};
  const Evaluation eval = wlan.evaluate(b.intended_association(), ch);
  double total = 0.0;
  for (const ApStats& s : eval.per_ap) {
    EXPECT_EQ(s.client_ids.size(),
              static_cast<std::size_t>(s.num_clients));
    EXPECT_EQ(s.client_goodput_bps.size(), s.client_ids.size());
    double cell = 0.0;
    for (double g : s.client_goodput_bps) cell += g;
    EXPECT_NEAR(cell, s.goodput_bps, 1.0);
    total += s.goodput_bps;
  }
  EXPECT_NEAR(total, eval.total_goodput_bps, 1.0);
}

TEST(Wlan, DelayMatchesWidthOfAssignedChannel) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const Wlan wlan = b.build();
  // Poor client: delay on 40 MHz must exceed delay on 20 MHz.
  const double d20 =
      wlan.client_delay_s_per_bit(0, 0, phy::ChannelWidth::k20MHz);
  const double d40 =
      wlan.client_delay_s_per_bit(0, 0, phy::ChannelWidth::k40MHz);
  EXPECT_GT(d40, d20);
}

}  // namespace
}  // namespace acorn::sim
