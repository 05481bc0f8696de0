// The ACORN controller: orchestrates the two modules of Fig. 7 — user
// association (Algorithm 1) as clients arrive, then channel bonding
// selection (Algorithm 2) — with the periodicity the paper derives from
// its association-trace analysis (T = 30 minutes).
#pragma once

#include <optional>

#include "core/allocation.hpp"
#include "core/association.hpp"

namespace acorn::core {

struct AcornConfig {
  net::ChannelPlan plan{12};
  AssociationConfig association;
  AllocationConfig allocation;
  /// Channel (re-)allocation period; §4.2 picks 30 min from the CDF of
  /// association durations (median ~31 min).
  double period_s = 1800.0;
  /// Extra association+allocation passes after the initial configuration.
  /// Models the system's periodic operation: clients re-evaluate their
  /// AP choice under the settled channels, then channels are re-tuned.
  /// The best evaluated configuration is kept.
  int refine_rounds = 2;
};

struct ConfigureResult {
  net::Association association;
  net::ChannelAssignment assignment;
  AllocationResult allocation;
  sim::Evaluation evaluation;
};

class AcornController {
 public:
  explicit AcornController(AcornConfig config = {});

  const AcornConfig& config() const { return config_; }
  const UserAssociation& association_module() const { return association_; }
  const ChannelAllocator& allocation_module() const { return allocator_; }

  /// One Algorithm-1 step: associate client `u` into the current state.
  /// Returns the chosen AP (nullopt if no AP is in range; the client
  /// stays unassociated).
  std::optional<int> associate_client(const sim::Wlan& wlan,
                                      net::Association& assoc,
                                      const net::ChannelAssignment& assignment,
                                      int u) const;

  /// Full auto-configuration of a deployment: random initial channels,
  /// clients activated one by one in `arrival_order` (defaults to id
  /// order), then Algorithm 2. Mirrors the paper's §5.2 procedure.
  /// Every allocation pass (initial and refinement) runs on the
  /// incremental CachedOracle's batched scan — each pass holds the
  /// association fixed, so the interference graph and client lists are
  /// built once per pass.
  ConfigureResult configure(const sim::Wlan& wlan, util::Rng& rng,
                            const std::vector<int>* arrival_order = nullptr,
                            mac::TrafficType traffic =
                                mac::TrafficType::kUdp) const;

  /// Re-run channel allocation only (one period-T maintenance pass).
  AllocationResult reallocate(const sim::Wlan& wlan,
                              const net::Association& assoc,
                              net::ChannelAssignment current) const;

 private:
  AcornConfig config_;
  UserAssociation association_;
  ChannelAllocator allocator_;
};

}  // namespace acorn::core
