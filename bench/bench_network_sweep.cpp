// Network-engine scenario-sweep throughput: the table-3 / fig-10 class
// workload (random enterprise topologies, dozens of random
// configurations each, UDP + TCP full-network evaluations) timed through
// three paths:
//
//   seed  — the object-at-a-time evaluator (sim::reference::evaluate in
//           the test-only acorn_reference library, the executable
//           spec), serial;
//   after — the flat NetSnapshot engine (Wlan::evaluate), serial;
//   after @ 2/4 threads — the same work through the deterministic
//           parallel sweep driver (sim/sweep.hpp).
//
// Every path computes the same scenarios from the same derived RNG
// streams, so the checksums must agree bit-for-bit — the bench doubles
// as an end-to-end determinism check. Rows land in BENCH_network.json.
#include <cstdio>
#include <numeric>
#include <vector>

#include "baselines/simple.hpp"
#include "common.hpp"
#include "sim/sweep.hpp"
#include "sim/wlan.hpp"
#include "sim/wlan_reference.hpp"
#include "util/table.hpp"

using namespace acorn;

namespace {

struct CaseSpec {
  const char* name;
  bool sinr = false;       // hidden-interference SINR model on
  bool weighted = false;   // overlap-weighted contention
  int scenarios = 8;
  int configs = 25;        // random configurations per scenario
};

struct CaseResult {
  double seconds = 0.0;
  double checksum = 0.0;   // sum of all total_goodput_bps
  std::int64_t evals = 0;  // full-network evaluations performed
};

// One scenario: a random 5-AP / 14-client floor (the table-3 deployment
// class), `configs` random (association, assignment) configurations,
// each evaluated for UDP and TCP.
double run_scenario(util::Rng& rng, const CaseSpec& spec, bool reference) {
  net::Topology topo = net::Topology::random(5, 14, 140.0, rng);
  net::PathLossModel plm;
  plm.shadowing_sigma_db = 4.0;
  net::LinkBudget budget(topo, plm, rng);
  sim::WlanConfig config;
  config.sinr_interference = spec.sinr;
  config.weighted_contention = spec.weighted;
  const sim::Wlan wlan(std::move(topo), std::move(budget), config);
  double sum = 0.0;
  for (int trial = 0; trial < spec.configs; ++trial) {
    const baselines::RandomConfig cfg =
        baselines::random_configuration(wlan, net::ChannelPlan(12), rng);
    for (const mac::TrafficType traffic :
         {mac::TrafficType::kUdp, mac::TrafficType::kTcp}) {
      sum += reference
                 ? sim::reference::evaluate(wlan, cfg.association,
                                            cfg.assignment, traffic)
                       .total_goodput_bps
                 : wlan.evaluate(cfg.association, cfg.assignment, traffic)
                       .total_goodput_bps;
    }
  }
  return sum;
}

CaseResult run_case(const CaseSpec& spec, bool reference, int threads) {
  sim::SweepOptions options;
  options.seed = bench::kDefaultSeed;
  options.num_threads = threads;
  const bench::Stopwatch watch;
  const std::vector<double> per_scenario = sim::sweep_scenarios(
      static_cast<std::size_t>(spec.scenarios), options,
      [&](util::Rng& rng, std::size_t) {
        return run_scenario(rng, spec, reference);
      });
  CaseResult r;
  r.seconds = watch.seconds();
  r.checksum =
      std::accumulate(per_scenario.begin(), per_scenario.end(), 0.0);
  r.evals = static_cast<std::int64_t>(spec.scenarios) * spec.configs * 2;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_options(argc, argv);
  bench::banner("Network sweep: flat engine vs reference evaluator",
                "table-3 class random-config sweeps, seed vs after");

  std::vector<CaseSpec> cases = {
      CaseSpec{"table3_random_configs", false, false, 8, 25},
      CaseSpec{"dense_sinr_weighted", true, true, 8, 25},
  };
  if (opts.smoke) {
    for (CaseSpec& c : cases) {
      c.scenarios = 2;
      c.configs = 4;
    }
  }

  // Warm the process-wide RateTable cache (built once per link config;
  // a real sweep amortizes the ~0.2 s construction over thousands of
  // evaluations) so the timed runs measure steady-state throughput.
  {
    CaseSpec warm = cases.front();
    warm.scenarios = 1;
    warm.configs = 1;
    run_case(warm, /*reference=*/false, 1);
  }

  util::TextTable t({"case", "path", "threads", "evals/s", "speedup"});
  bool all_identical = true;
  for (const CaseSpec& spec : cases) {
    const CaseResult seed = run_case(spec, /*reference=*/true, 1);
    bench::emit_evals("bench_network_sweep", spec.name, seed.seconds,
                      seed.evals, 1, "seed");
    const double seed_eps =
        seed.seconds > 0.0 ? static_cast<double>(seed.evals) / seed.seconds
                           : 0.0;
    t.add_row({spec.name, "reference", "1",
               util::TextTable::num(seed_eps, 0), "1.00x"});

    for (const int threads : {1, 2, 4}) {
      const CaseResult after = run_case(spec, /*reference=*/false, threads);
      bench::emit_evals("bench_network_sweep", spec.name, after.seconds,
                        after.evals, threads, "after");
      const double eps = after.seconds > 0.0
                             ? static_cast<double>(after.evals) /
                                   after.seconds
                             : 0.0;
      t.add_row({spec.name, "flat", std::to_string(threads),
                 util::TextTable::num(eps, 0),
                 util::TextTable::num(
                     seed.seconds > 0.0 && after.seconds > 0.0
                         ? seed.seconds / after.seconds
                         : 0.0,
                     2) +
                     "x"});
      // The flat engine and the sweep driver must reproduce the
      // reference results bit-for-bit at every thread count.
      if (after.checksum != seed.checksum) all_identical = false;
    }
  }
  std::printf("\n%s\n", t.to_string().c_str());
  std::printf("flat engine bit-identical to reference at all thread "
              "counts: %s\n",
              all_identical ? "yes" : "NO");
  return all_identical ? 0 : 1;
}
