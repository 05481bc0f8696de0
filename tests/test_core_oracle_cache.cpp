#include "core/oracle_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "baselines/simple.hpp"
#include "core/controller.hpp"
#include "core/estimated_oracle.hpp"
#include "dcb/random_drop.hpp"
#include "sim/wlan_reference.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace acorn::core {
namespace {

using testutil::CellSpec;
using testutil::random_association;
using testutil::random_builder;
using testutil::ScenarioBuilder;

// The paper's Topology 2 shape (five APs mixing good, marginal and poor
// cells) — the deployment the perf benches time.
ScenarioBuilder topology2_builder() {
  ScenarioBuilder b;
  b.cells = {
      CellSpec{{testutil::kGoodLinkLoss, testutil::kGoodLinkLoss + 2.0}},
      CellSpec{{testutil::kGoodLinkLoss + 1.0}},
      CellSpec{{testutil::kGoodLinkLoss + 3.0}},
      CellSpec{{testutil::kPoorLinkLoss, testutil::kPoorLinkLoss + 0.2}},
      CellSpec{{testutil::kWeakLinkLoss}},
  };
  return b;
}

TEST(CachedOracle, BitIdenticalToFullEvaluateOnRandomTopologies) {
  // >= 50 random (topology, association) pairs covering all four combos
  // of sinr_interference x weighted_contention, several assignments each.
  util::Rng rng(0xCAC4E);
  int scenarios = 0;
  for (int trial = 0; trial < 56; ++trial) {
    const bool sinr = (trial % 2) == 1;
    const bool weighted = (trial / 2 % 2) == 1;
    const ScenarioBuilder b = random_builder(rng, sinr, weighted);
    const sim::Wlan wlan = b.build();
    const net::Association assoc = random_association(b, rng);
    const CachedOracle cached(wlan, assoc);
    const ChannelAllocator alloc{net::ChannelPlan(6)};
    for (int rep = 0; rep < 6; ++rep) {
      const net::ChannelAssignment f =
          alloc.random_assignment(wlan.topology().num_aps(), rng);
      const double expected = wlan.evaluate(assoc, f).total_goodput_bps;
      // The flat engine behind evaluate() must itself match the legacy
      // object-at-a-time path, so the whole chain is pinned to the
      // original semantics.
      EXPECT_EQ(expected,
                sim::reference::evaluate(wlan, assoc, f).total_goodput_bps)
          << "trial " << trial << " rep " << rep;
      // Exact bit-identity, not near-equality: cache misses run the same
      // per-cell code, hits replay a stored double.
      EXPECT_EQ(cached.total_bps(f), expected)
          << "trial " << trial << " rep " << rep << " sinr=" << sinr
          << " weighted=" << weighted;
      // And again, now that every cell is memoized.
      EXPECT_EQ(cached.total_bps(f), expected);
    }
    ++scenarios;
  }
  EXPECT_GE(scenarios, 50);
}

TEST(CachedOracle, MemoizesCellsAndReusesGraph) {
  const ScenarioBuilder b = topology2_builder();
  const sim::Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const CachedOracle cached(wlan, assoc);
  const ChannelAllocator alloc{net::ChannelPlan(12)};
  util::Rng rng(7);
  const net::ChannelAssignment f = alloc.random_assignment(5, rng);
  cached.total_bps(f);
  const OracleCacheStats first = cached.stats();
  EXPECT_GT(first.cell_evals, 0u);
  EXPECT_EQ(first.share_evals, 1u);
  // Identical assignment: the base is already built, nothing is
  // evaluated again.
  cached.total_bps(f);
  const OracleCacheStats second = cached.stats();
  EXPECT_EQ(second.cell_evals, first.cell_evals);
  EXPECT_EQ(second.share_evals, first.share_evals);
  EXPECT_EQ(second.share_hits, first.share_hits + 1);
  // A single-AP flip builds a new base, but only evaluates in full the
  // cells whose context it changed.
  net::ChannelAssignment flipped = f;
  flipped[0] = flipped[0] == net::Channel::basic(11)
                   ? net::Channel::basic(10)
                   : net::Channel::basic(11);
  cached.total_bps(flipped);
  const OracleCacheStats third = cached.stats();
  EXPECT_EQ(third.share_evals, second.share_evals + 1);
  EXPECT_LT(third.cell_evals - second.cell_evals, 5u);
}

// The optional per-client weights turn the objective into
// sum_c w_c * goodput_c. Misses and hits must both honor them, and the
// result must equal the manual weighted sum over the exact evaluator's
// per-client goodputs, bit for bit (same per-cell summation order).
TEST(CachedOracle, WeightedObjectiveMatchesManualSum) {
  util::Rng rng(0x10AD);
  for (int trial = 0; trial < 24; ++trial) {
    const ScenarioBuilder b =
        random_builder(rng, (trial % 2) == 1, (trial / 2 % 2) == 1);
    const sim::Wlan wlan = b.build();
    const net::Association assoc = random_association(b, rng);
    const int n_clients = wlan.topology().num_clients();
    std::vector<double> weights;
    for (int c = 0; c < n_clients; ++c) {
      weights.push_back(rng.uniform(0.0, 2.0));
    }
    const CachedOracle cached(wlan, assoc, mac::TrafficType::kUdp, weights);
    const ChannelAllocator alloc{net::ChannelPlan(6)};
    for (int rep = 0; rep < 4; ++rep) {
      const net::ChannelAssignment f =
          alloc.random_assignment(wlan.topology().num_aps(), rng);
      const sim::Evaluation eval = wlan.evaluate(assoc, f);
      double expected = 0.0;
      for (const sim::ApStats& cell : eval.per_ap) {
        if (cell.client_ids.empty()) continue;
        double cell_sum = 0.0;
        for (std::size_t i = 0; i < cell.client_ids.size(); ++i) {
          cell_sum += weights[static_cast<std::size_t>(cell.client_ids[i])] *
                      cell.client_goodput_bps[i];
        }
        expected += cell_sum;
      }
      EXPECT_EQ(cached.total_bps(f), expected) << "trial " << trial;
      EXPECT_EQ(cached.total_bps(f), expected) << "memoized replay";
    }
  }
}

// A load-weighted objective must be able to *reorder* candidate
// assignments — that is the whole point of threading offered loads into
// Algorithm 2. Find two assignments whose per-client goodput profiles
// are non-proportional, then pick weights that make the unweighted
// loser the weighted winner.
TEST(CachedOracle, WeightsCanReorderAssignments) {
  const ScenarioBuilder b = topology2_builder();
  const sim::Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const int n_aps = wlan.topology().num_aps();
  const int n_clients = wlan.topology().num_clients();
  const ChannelAllocator alloc{net::ChannelPlan(4)};
  util::Rng rng(99);

  // Per-client goodputs of one assignment, indexed by client id.
  const auto client_goodputs = [&](const net::ChannelAssignment& f) {
    std::vector<double> g(static_cast<std::size_t>(n_clients), 0.0);
    for (const sim::ApStats& cell : wlan.evaluate(assoc, f).per_ap) {
      for (std::size_t i = 0; i < cell.client_ids.size(); ++i) {
        g[static_cast<std::size_t>(cell.client_ids[i])] =
            cell.client_goodput_bps[i];
      }
    }
    return g;
  };

  bool flipped = false;
  for (int attempt = 0; attempt < 200 && !flipped; ++attempt) {
    const net::ChannelAssignment f1 = alloc.random_assignment(n_aps, rng);
    const net::ChannelAssignment f2 = alloc.random_assignment(n_aps, rng);
    const CachedOracle plain(wlan, assoc);
    const double u1 = plain.total_bps(f1);
    const double u2 = plain.total_bps(f2);
    if (u1 == u2) continue;
    const net::ChannelAssignment& winner = u1 > u2 ? f1 : f2;
    const net::ChannelAssignment& loser = u1 > u2 ? f2 : f1;
    const std::vector<double> gw = client_goodputs(winner);
    const std::vector<double> gl = client_goodputs(loser);
    // A client doing strictly better under the unweighted loser is the
    // lever: load all the weight onto it.
    for (int c = 0; c < n_clients; ++c) {
      const std::size_t ci = static_cast<std::size_t>(c);
      if (gl[ci] <= gw[ci]) continue;
      std::vector<double> weights(static_cast<std::size_t>(n_clients), 1e-6);
      weights[ci] = 1.0;
      const CachedOracle weighted(wlan, assoc, mac::TrafficType::kUdp,
                                  weights);
      if (weighted.total_bps(loser) > weighted.total_bps(winner)) {
        flipped = true;
        break;
      }
    }
  }
  EXPECT_TRUE(flipped)
      << "no weight vector reordered any assignment pair — the weighted "
         "objective is not reaching the optimizer";
}

// cell_value(f, ap) is the term total_bps(f) adds for cell `ap`: the
// terms summed in ascending AP order from 0.0 bit-equal the total,
// whichever of the two fills the memos first, and a cell without
// clients reads exactly 0.0. The scripted floors put every AP pair at
// one loss (all contending or all out of range); the random drops mix
// neighbours with hidden interferers.
TEST(CachedOracle, CellValueSumsToTotal) {
  util::Rng rng(0xCE11);
  int empty_cells = 0;
  for (int trial = 0; trial < 64; ++trial) {
    const bool sinr = trial % 2 == 1;
    const bool weighted = trial / 2 % 2 == 1;
    const bool client_weights = trial / 4 % 2 == 1;
    const mac::TrafficType traffic =
        trial / 8 % 2 == 1 ? mac::TrafficType::kTcp : mac::TrafficType::kUdp;
    const bool drop = trial / 16 % 2 == 1;
    std::optional<sim::Wlan> wlan;
    net::Association assoc;
    if (drop) {
      dcb::RandomDropConfig cfg;
      cfg.num_aps = 5;
      cfg.num_clients = 6;
      sim::WlanConfig wlan_cfg;
      wlan_cfg.sinr_interference = sinr;
      wlan_cfg.weighted_contention = weighted;
      wlan.emplace(dcb::random_drop(cfg, rng).build(wlan_cfg));
      assoc = baselines::rss_associate_all(*wlan);
    } else {
      const ScenarioBuilder b = random_builder(rng, sinr, weighted);
      wlan.emplace(b.build());
      assoc = random_association(b, rng);
    }
    std::vector<double> weights;
    if (client_weights) {
      for (int c = 0; c < wlan->topology().num_clients(); ++c) {
        weights.push_back(rng.uniform(0.0, 2.0));
      }
    }
    const CachedOracle cached(*wlan, assoc, traffic, weights);
    const int n_aps = wlan->topology().num_aps();
    const ChannelAllocator alloc{net::ChannelPlan(4)};
    for (int rep = 0; rep < 6; ++rep) {
      const net::ChannelAssignment f = alloc.random_assignment(n_aps, rng);
      const double first = rep % 2 == 0 ? cached.total_bps(f) : 0.0;
      double sum = 0.0;
      for (int ap = 0; ap < n_aps; ++ap) {
        const double term = cached.cell_value(f, ap);
        if (cached.snapshot().cell_clients(ap).empty()) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(term), 0u);
          ++empty_cells;
        }
        sum += term;
      }
      const double total = rep % 2 == 0 ? first : cached.total_bps(f);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sum),
                std::bit_cast<std::uint64_t>(total))
          << "trial " << trial << " rep " << rep << ": " << sum << " vs "
          << total;
    }
  }
  EXPECT_GT(empty_cells, 0);
}

// Without SINR the kernel reads a cell's channel only through its width,
// so the memo keys the cell by width: a second basic channel at the same
// share replays the first one's value instead of running the kernel.
// With SINR on, an AP out of the cell's range that overlaps only the
// first channel interferes there alone, and the two stay two entries.
TEST(CachedOracle, CellMemoKeysByWidthWithoutSinr) {
  for (const bool sinr : {false, true}) {
    ScenarioBuilder b;
    b.cells = {CellSpec{{testutil::kGoodLinkLoss, testutil::kMediumLinkLoss}},
               CellSpec{{testutil::kMediumLinkLoss}}};
    b.ap_ap_loss_db = 110.0;
    b.cross_loss_db = 100.0;
    b.config.sinr_interference = sinr;
    const sim::Wlan wlan = b.build();
    const net::Association assoc = b.intended_association();
    const CachedOracle cached(wlan, assoc);
    ASSERT_FALSE(cached.graph().adjacent(0, 1));
    const net::ChannelAssignment first = {net::Channel::basic(0),
                                          net::Channel::basic(0)};
    const net::ChannelAssignment second = {net::Channel::basic(1),
                                           net::Channel::basic(0)};
    const double v1 = cached.cell_value(first, 0);
    const OracleCacheStats s1 = cached.stats();
    const double v2 = cached.cell_value(second, 0);
    const OracleCacheStats s2 = cached.stats();
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    EXPECT_EQ(bits(v1),
              bits(sim::reference::evaluate(wlan, assoc, first)
                       .per_ap[0]
                       .goodput_bps))
        << "sinr " << sinr;
    EXPECT_EQ(bits(v2),
              bits(sim::reference::evaluate(wlan, assoc, second)
                       .per_ap[0]
                       .goodput_bps))
        << "sinr " << sinr;
    if (sinr) {
      EXPECT_EQ(s2.cell_hits, s1.cell_hits);
      EXPECT_EQ(s2.cell_evals, s1.cell_evals + 1);
      EXPECT_LT(v1, v2);
    } else {
      EXPECT_EQ(s2.cell_hits, s1.cell_hits + 1);
      EXPECT_EQ(s2.cell_evals, s1.cell_evals);
      EXPECT_EQ(bits(v1), bits(v2));
    }
  }
}

TEST(CachedOracle, CellValueRejectsABadApOrAssignment) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const CachedOracle cached(wlan, b.intended_association());
  const net::ChannelAssignment f(2, net::Channel::basic(0));
  EXPECT_THROW(cached.cell_value(f, 2), std::invalid_argument);
  EXPECT_THROW(cached.cell_value(f, -1), std::invalid_argument);
  EXPECT_THROW(cached.cell_value({net::Channel::basic(0)}, 0),
               std::invalid_argument);
}

TEST(CachedOracle, RejectsWrongWeightVectorSize) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  EXPECT_THROW(CachedOracle(wlan, b.intended_association(),
                            mac::TrafficType::kUdp, {1.0}),
               std::invalid_argument);
}

TEST(CachedOracle, RejectsWrongAssignmentSize) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const CachedOracle cached(wlan, b.intended_association());
  EXPECT_THROW(cached.total_bps({net::Channel::basic(0)}),
               std::invalid_argument);
}

// The acceptance gate for the cache: allocation driven by the cached
// oracle lands on exactly the same assignment, throughput and trajectory
// as the exact evaluator called once per candidate, on the bench's
// topology2 and under the heavier interference models.
TEST(CachedOracle, AllocationIdenticalToUncachedPath) {
  for (const bool sinr : {false, true}) {
    ScenarioBuilder b = topology2_builder();
    b.ap_ap_loss_db = 85.0;  // contending, so channels actually matter
    b.config.sinr_interference = sinr;
    b.config.weighted_contention = sinr;
    const sim::Wlan wlan = b.build();
    const net::Association assoc = b.intended_association();

    const ThroughputOracle exact = [&wlan](const net::Association& as,
                                           const net::ChannelAssignment& f) {
      return wlan.evaluate(as, f).total_goodput_bps;
    };
    const ChannelAllocator alloc{net::ChannelPlan(6)};
    util::Rng rng(42);
    for (int trial = 0; trial < 3; ++trial) {
      const net::ChannelAssignment start = alloc.random_assignment(5, rng);
      const AllocationResult a = alloc.allocate(wlan, assoc, start);
      const AllocationResult u = alloc.allocate(wlan, assoc, start, exact);
      EXPECT_EQ(a.final_bps, u.final_bps);
      EXPECT_EQ(a.evaluations, u.evaluations);
      EXPECT_EQ(a.switches, u.switches);
      ASSERT_EQ(a.assignment.size(), u.assignment.size());
      for (std::size_t i = 0; i < a.assignment.size(); ++i) {
        EXPECT_EQ(a.assignment[i], u.assignment[i]);
      }
      ASSERT_EQ(a.trajectory_bps.size(), u.trajectory_bps.size());
      for (std::size_t i = 0; i < a.trajectory_bps.size(); ++i) {
        EXPECT_EQ(a.trajectory_bps[i], u.trajectory_bps[i]);
      }
    }
  }
}

TEST(MeasurementOracle, MemoizedCallsAreStableAcrossAssociations) {
  const ScenarioBuilder b = topology2_builder();
  const sim::Wlan wlan = b.build();
  const ChannelAllocator alloc{net::ChannelPlan(12)};
  util::Rng rng(11);
  const net::ChannelAssignment measured = alloc.random_assignment(5, rng);
  const net::ChannelAssignment trial = alloc.random_assignment(5, rng);
  const ThroughputOracle oracle = make_measurement_oracle(wlan, measured);
  const net::Association intended = b.intended_association();
  net::Association roamed = intended;
  roamed[1] = 0;
  // A fresh oracle (empty memo) must agree exactly with a warm one, both
  // before and after the cached association changes underneath it.
  const double cold_intended =
      make_measurement_oracle(wlan, measured)(intended, trial);
  const double cold_roamed =
      make_measurement_oracle(wlan, measured)(roamed, trial);
  EXPECT_EQ(oracle(intended, trial), cold_intended);
  EXPECT_EQ(oracle(intended, trial), cold_intended);
  EXPECT_EQ(oracle(roamed, trial), cold_roamed);
  EXPECT_EQ(oracle(intended, trial), cold_intended);
}

}  // namespace
}  // namespace acorn::core
