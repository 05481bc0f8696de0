// The sweep-driver determinism contract: sim::sweep_scenarios must
// return bit-identical results for any thread count (1 vs 2 vs 5),
// because every scenario derives its RNG stream purely from (seed,
// index) and writes only its own slot. Exercised on full
// evaluate/allocate scenarios, including the sinr_interference model,
// and run under TSan by the tsan preset.
#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "baselines/simple.hpp"
#include "core/allocation.hpp"
#include "sim/wlan.hpp"

namespace acorn::sim {
namespace {

// One full scenario: a random deployment, an RSS association and a
// random channel assignment, scored by the flat evaluator.
double evaluate_scenario(util::Rng& rng, bool sinr) {
  const int n_aps = static_cast<int>(rng.uniform_int(2, 5));
  const int n_clients = static_cast<int>(rng.uniform_int(2, 10));
  net::Topology topo = net::Topology::random(n_aps, n_clients, 120.0, rng);
  net::PathLossModel plm;
  plm.shadowing_sigma_db = 4.0;
  net::LinkBudget budget(topo, plm, rng);
  WlanConfig config;
  config.sinr_interference = sinr;
  const Wlan wlan(std::move(topo), std::move(budget), config);
  const net::Association assoc = baselines::rss_associate_all(wlan);
  const core::ChannelAllocator alloc{net::ChannelPlan(6)};
  const net::ChannelAssignment f = alloc.random_assignment(n_aps, rng);
  return wlan.evaluate(assoc, f).total_goodput_bps;
}

std::vector<double> run_sweep(std::size_t n, std::uint64_t seed,
                              int threads, bool sinr) {
  SweepOptions options;
  options.seed = seed;
  options.num_threads = threads;
  return sweep_scenarios(n, options, [sinr](util::Rng& rng, std::size_t) {
    return evaluate_scenario(rng, sinr);
  });
}

TEST(SweepScenarios, BitIdenticalAcrossThreadCounts) {
  for (const bool sinr : {false, true}) {
    const std::vector<double> serial = run_sweep(16, 0x53ED, 1, sinr);
    ASSERT_EQ(serial.size(), 16u);
    for (const int threads : {2, 5}) {
      const std::vector<double> parallel =
          run_sweep(16, 0x53ED, threads, sinr);
      ASSERT_EQ(parallel.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i], serial[i])
            << "scenario " << i << " threads " << threads
            << " sinr " << sinr;
      }
    }
  }
}

TEST(SweepScenarios, AllocationScenariosAreDeterministicToo) {
  // The heavier workload class: each scenario runs Algorithm 2 end to
  // end (cached oracle, candidate scan) on its own deployment.
  const auto body = [](util::Rng& rng, std::size_t) {
    const int n_aps = 3;
    net::Topology topo = net::Topology::random(n_aps, 6, 100.0, rng);
    net::PathLossModel plm;
    plm.shadowing_sigma_db = 4.0;
    net::LinkBudget budget(topo, plm, rng);
    const Wlan wlan(std::move(topo), std::move(budget), WlanConfig{});
    const net::Association assoc = baselines::rss_associate_all(wlan);
    const core::ChannelAllocator alloc{net::ChannelPlan(6)};
    const core::AllocationResult r = alloc.allocate(
        wlan, assoc, alloc.random_assignment(n_aps, rng));
    return r.final_bps;
  };
  SweepOptions serial_opts;
  serial_opts.seed = 0xA110C;
  serial_opts.num_threads = 1;
  const std::vector<double> serial = sweep_scenarios(6, serial_opts, body);
  SweepOptions parallel_opts = serial_opts;
  parallel_opts.num_threads = 5;
  const std::vector<double> parallel =
      sweep_scenarios(6, parallel_opts, body);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "scenario " << i;
  }
}

TEST(SweepScenarios, IndependentOfScenarioCountPrefix) {
  // derive_stream(seed, i) depends only on (seed, i): the first k results
  // of a longer sweep equal the k-scenario sweep exactly.
  const std::vector<double> longer = run_sweep(12, 0xBEE, 2, false);
  const std::vector<double> shorter = run_sweep(7, 0xBEE, 3, false);
  for (std::size_t i = 0; i < shorter.size(); ++i) {
    EXPECT_EQ(shorter[i], longer[i]);
  }
}

TEST(SweepScenarios, PropagatesScenarioExceptions) {
  for (const int threads : {1, 4}) {
    SweepOptions options;
    options.seed = 1;
    options.num_threads = threads;
    EXPECT_THROW(
        sweep_scenarios(8, options,
                        [](util::Rng&, std::size_t i) -> int {
                          if (i == 3) throw std::runtime_error("boom");
                          return 0;
                        }),
        std::runtime_error)
        << "threads " << threads;
  }
}

TEST(SweepScenarios, EmptySweepAndThreadResolution) {
  SweepOptions options;
  options.num_threads = 0;  // hardware concurrency
  const std::vector<double> none = sweep_scenarios(
      0, options, [](util::Rng&, std::size_t) { return 1.0; });
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace acorn::sim
