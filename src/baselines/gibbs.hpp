// Gibbs-sampler channel allocation in the spirit of the original
// Kauffmann et al. system (the paper's ref [17]): each AP periodically
// resamples its channel from a Boltzmann distribution over a local energy
// (the interference it measures plus the interference it would project),
// with a falling temperature. Unlike ACORN it neither knows client link
// qualities nor mixes channel widths by design — widths are whatever the
// caller includes in the plan's color set.
#pragma once

#include "net/channels.hpp"
#include "sim/wlan.hpp"
#include "util/rng.hpp"

namespace acorn::baselines {

struct GibbsConfig {
  /// Sweeps over the AP set.
  int sweeps = 20;
  /// Initial temperature (relative to the energy scale in mW).
  double initial_temperature = 1.0;
  /// Geometric cooling factor per sweep.
  double cooling = 0.7;
  /// Restrict the color set to 40 MHz bonds (the aggressive adaptation
  /// the paper evaluates); false samples over all colors.
  bool bonds_only = true;
};

class GibbsAllocator {
 public:
  GibbsAllocator(net::ChannelPlan plan, GibbsConfig config = {});

  /// Local energy of AP `ap` using channel `c`: interference power it
  /// receives from co-channel neighbors plus the power it projects onto
  /// them (both overlap-weighted), in mW.
  double energy_mw(const sim::Wlan& wlan,
                   const net::ChannelAssignment& assignment, int ap,
                   const net::Channel& c) const;

  /// Run the sampler from a random initialization.
  net::ChannelAssignment allocate(const sim::Wlan& wlan,
                                  util::Rng& rng) const;

 private:
  /// One Gibbs sweep over every AP at `temperature`, in place.
  void sweep(const sim::Wlan& wlan, net::ChannelAssignment& assignment,
             const std::vector<net::Channel>& colors, double temperature,
             util::Rng& rng) const;

  net::ChannelPlan plan_;
  GibbsConfig config_;
};

}  // namespace acorn::baselines
