#include "baselines/gibbs.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/units.hpp"

namespace acorn::baselines {

GibbsAllocator::GibbsAllocator(net::ChannelPlan plan, GibbsConfig config)
    : plan_(plan), config_(config) {
  if (config_.sweeps < 1 || config_.initial_temperature <= 0.0 ||
      config_.cooling <= 0.0 || config_.cooling > 1.0) {
    throw std::invalid_argument("bad Gibbs configuration");
  }
}

double GibbsAllocator::energy_mw(const sim::Wlan& wlan,
                                 const net::ChannelAssignment& assignment,
                                 int ap, const net::Channel& c) const {
  double energy = 0.0;
  for (int other = 0; other < wlan.topology().num_aps(); ++other) {
    if (other == ap) continue;
    const net::Channel& other_ch =
        assignment[static_cast<std::size_t>(other)];
    // Fraction of the neighbor's transmit power landing inside this
    // channel, and of this AP's power landing inside the neighbor's.
    const double captured_here = other_ch.overlap_fraction(c);
    const double projected_there = c.overlap_fraction(other_ch);
    if (captured_here <= 0.0 && projected_there <= 0.0) continue;
    const double rx_here =
        util::dbm_to_mw(wlan.budget().rx_at_ap_dbm(wlan.topology(), other, ap));
    const double rx_there =
        util::dbm_to_mw(wlan.budget().rx_at_ap_dbm(wlan.topology(), ap, other));
    energy += captured_here * rx_here + projected_there * rx_there;
  }
  return energy;
}

void GibbsAllocator::sweep(const sim::Wlan& wlan,
                           net::ChannelAssignment& assignment,
                           const std::vector<net::Channel>& colors,
                           double temperature, util::Rng& rng) const {
  std::vector<double> weights(colors.size());
  for (int ap = 0; ap < wlan.topology().num_aps(); ++ap) {
    // Boltzmann weights over the candidate colors. Energies are
    // rescaled by their minimum so exp() stays in range.
    double min_energy = 1e300;
    std::vector<double> energies(colors.size());
    for (std::size_t k = 0; k < colors.size(); ++k) {
      energies[k] = energy_mw(wlan, assignment, ap, colors[k]);
      min_energy = std::min(min_energy, energies[k]);
    }
    double total = 0.0;
    for (std::size_t k = 0; k < colors.size(); ++k) {
      weights[k] = std::exp(-(energies[k] - min_energy) /
                            (temperature * std::max(min_energy, 1e-15)));
      total += weights[k];
    }
    double pick = rng.uniform() * total;
    std::size_t chosen = colors.size() - 1;
    for (std::size_t k = 0; k < colors.size(); ++k) {
      pick -= weights[k];
      if (pick <= 0.0) {
        chosen = k;
        break;
      }
    }
    assignment[static_cast<std::size_t>(ap)] = colors[chosen];
  }
}

net::ChannelAssignment GibbsAllocator::allocate(const sim::Wlan& wlan,
                                                util::Rng& rng) const {
  const std::vector<net::Channel> colors =
      config_.bonds_only ? plan_.bonded_channels() : plan_.all_channels();
  if (colors.empty()) throw std::logic_error("empty color set");
  const int n_aps = wlan.topology().num_aps();

  net::ChannelAssignment assignment;
  assignment.reserve(static_cast<std::size_t>(n_aps));
  for (int i = 0; i < n_aps; ++i) {
    assignment.push_back(colors[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(colors.size()) - 1))]);
  }

  double temperature = config_.initial_temperature;
  for (int s = 0; s < config_.sweeps; ++s) {
    sweep(wlan, assignment, colors, temperature, rng);
    temperature *= config_.cooling;
  }
  return assignment;
}

}  // namespace acorn::baselines
