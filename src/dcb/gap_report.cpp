#include "dcb/gap_report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "baselines/kai.hpp"
#include "baselines/simple.hpp"
#include "core/allocation.hpp"
#include "core/oracle_cache.hpp"
#include "sim/sweep.hpp"
#include "util/stats.hpp"

namespace acorn::dcb {

GapReport run_gap_report(const GapReportConfig& config) {
  if (config.num_scenarios <= 0) {
    throw std::invalid_argument(
        "GapReportConfig.num_scenarios must be positive");
  }
  GapReport report;
  report.config = config;

  const std::vector<WidthPolicy> policies =
      standard_policies(config.wide_probability);

  baselines::KaiConfig kai_config;
  kai_config.max_exact_evaluations = config.max_exact_evaluations;

  report.scenarios = sim::sweep_scenarios(
      static_cast<std::size_t>(config.num_scenarios),
      sim::SweepOptions{config.seed, config.num_threads},
      [&](util::Rng& rng, std::size_t) {
        const sim::DeploymentSpec spec = random_drop(config.drop, rng);
        const sim::Wlan wlan = spec.build(config.wlan);
        const net::ChannelPlan plan(spec.num_channels);
        const net::Association assoc = baselines::rss_associate_all(wlan);
        const core::CachedOracle oracle(wlan, assoc, config.traffic);

        const core::ChannelAllocator allocator(plan);
        const core::AllocationResult acorn = allocator.allocate(
            wlan, assoc,
            allocator.random_assignment(wlan.topology().num_aps(), rng),
            oracle);
        const baselines::KaiResult optimal =
            baselines::kai_optimal_allocation(oracle, plan, rng,
                                              kai_config);

        GapScenario out;
        out.acorn_bps = acorn.final_bps;
        out.optimal_bps = optimal.total_bps;
        out.exact = optimal.exact;
        out.acorn_evaluations = acorn.evaluations;
        out.optimal_evaluations = optimal.evaluations;
        out.gap = optimal.total_bps > 0.0
                      ? std::max(0.0, (optimal.total_bps -
                                       acorn.final_bps) /
                                          optimal.total_bps)
                      : 0.0;
        out.policy_bps.reserve(policies.size());
        for (const WidthPolicy& policy : policies) {
          out.policy_bps.push_back(
              evaluate_policy(oracle.snapshot(), acorn.assignment, policy,
                              config.traffic)
                  .total_goodput_bps);
        }
        return out;
      });

  std::vector<double> exact_gaps;
  report.mean_policy_bps.assign(policies.size(), 0.0);
  for (const GapScenario& s : report.scenarios) {
    if (s.exact) {
      ++report.num_exact;
      exact_gaps.push_back(s.gap);
    }
    for (std::size_t p = 0; p < s.policy_bps.size(); ++p) {
      report.mean_policy_bps[p] += s.policy_bps[p];
    }
  }
  if (!report.scenarios.empty()) {
    for (double& bps : report.mean_policy_bps) {
      bps /= static_cast<double>(report.scenarios.size());
    }
  }
  if (!exact_gaps.empty()) {
    double sum = 0.0;
    for (double g : exact_gaps) sum += g;
    report.mean_gap = sum / static_cast<double>(exact_gaps.size());
    report.p95_gap = util::percentile(exact_gaps, 95.0);
    report.max_gap = *std::max_element(exact_gaps.begin(),
                                       exact_gaps.end());
  }
  return report;
}

std::string format_gap_report(const GapReport& report) {
  std::ostringstream out;
  char buf[160];
  const RandomDropConfig& drop = report.config.drop;
  std::snprintf(buf, sizeof(buf),
                "dcb gap report: %d scenarios (%d APs, %d clients, "
                "%.0f m floor, %.1f AP/ha, %d channels, seed %llu)\n",
                static_cast<int>(report.scenarios.size()), drop.num_aps,
                drop.num_clients, drop.area_m, drop.aps_per_hectare(),
                drop.num_channels,
                static_cast<unsigned long long>(report.config.seed));
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  exact optimum on %d/%d scenarios\n", report.num_exact,
                static_cast<int>(report.scenarios.size()));
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  algorithm-2 gap to optimal: mean %.2f%%  p95 %.2f%%  "
                "max %.2f%%\n",
                100.0 * report.mean_gap, 100.0 * report.p95_gap,
                100.0 * report.max_gap);
  out << buf;
  const std::vector<WidthPolicy> policies =
      standard_policies(report.config.wide_probability);
  for (std::size_t p = 0; p < report.mean_policy_bps.size(); ++p) {
    std::snprintf(buf, sizeof(buf),
                  "  width policy %-10s mean total %.1f Mbit/s\n",
                  policies[p].name().c_str(),
                  report.mean_policy_bps[p] / 1e6);
    out << buf;
  }
  return out.str();
}

}  // namespace acorn::dcb
