#include "core/runtime.hpp"

#include <cmath>
#include <stdexcept>

#include "core/width_switch.hpp"

namespace acorn::core {

namespace {

AcornConfig config_for(const net::ChannelPlan& plan) {
  AcornConfig cfg;
  cfg.plan = plan;
  return cfg;
}

// A NaN/Inf value would poison every later rate computation and survive
// restarts through the snapshot; a negative loss is a gain.
bool finite_non_negative(double v) { return std::isfinite(v) && v >= 0.0; }

void check(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace

WlanRuntime::WlanRuntime(sim::Wlan wlan, const net::ChannelPlan& plan,
                         WlanState state, std::uint64_t seed,
                         double width_hysteresis)
    : wlan_(std::move(wlan)),
      controller_(config_for(plan)),
      width_hysteresis_(width_hysteresis),
      state_(std::move(state)) {
  const int n_aps = wlan_.topology().num_aps();
  const auto n_clients =
      static_cast<std::uint32_t>(wlan_.topology().num_clients());
  check(n_aps > 0, "deployment has no APs");
  WlanState& s = state_;
  if (s.association.empty()) {
    s.association.assign(n_clients, net::kUnassociated);
  }
  check(s.association.size() == n_clients,
        "snapshot association size mismatch");
  for (const int ap : s.association) {
    check(ap == net::kUnassociated || (ap >= 0 && ap < n_aps),
          "snapshot association names no AP");
  }
  if (s.allocated.empty()) {
    util::Rng rng(seed);
    s.allocated =
        controller_.allocation_module().random_assignment(n_aps, rng);
  }
  check(static_cast<int>(s.allocated.size()) == n_aps,
        "snapshot assignment size mismatch");
  if (s.operating.empty()) s.operating = s.allocated;
  check(s.operating.size() == s.allocated.size(),
        "snapshot operating size mismatch");
  for (std::size_t ap = 0; ap < s.allocated.size(); ++ap) {
    // The only channels an epoch produces: a color of the plan, and on
    // a bond either the bond or one of its 20 MHz halves.
    const net::Channel& a = s.allocated[ap];
    const net::Channel& o = s.operating[ap];
    check(a.primary() <= plan.num_basic() - (a.is_bonded() ? 2 : 1),
          "snapshot channel outside the plan");
    check(o == a || (a.is_bonded() && !o.is_bonded() && a.conflicts(o)),
          "snapshot operating channel is not its allocation or a half");
  }
  for (const auto& [link, loss] : s.loss_overrides) {
    check(link.first < static_cast<std::uint32_t>(n_aps) &&
              link.second < n_clients && finite_non_negative(loss),
          "snapshot loss override out of range");
    wlan_.budget().set_ap_client_loss_db(static_cast<int>(link.first),
                                         static_cast<int>(link.second), loss);
  }
  for (const auto& [client, load] : s.loads) {
    check(client < n_clients && finite_non_negative(load),
          "snapshot load hint out of range");
  }
  for (const std::uint32_t c : s.dirty) {
    check(c < n_clients, "snapshot dirty client out of range");
  }
}

bool WlanRuntime::join(std::uint32_t client) {
  check(client < state_.association.size(), "client id out of range");
  const bool moved = probe(static_cast<int>(client));
  if (moved) retire_oracle();
  return moved;
}

bool WlanRuntime::leave(std::uint32_t client) {
  check(client < state_.association.size(), "client id out of range");
  int& ap = state_.association[client];
  if (ap == net::kUnassociated) return false;
  ap = net::kUnassociated;
  retire_oracle();
  return true;
}

void WlanRuntime::set_link_loss(std::uint32_t ap, std::uint32_t client,
                                double loss_db) {
  check(ap < state_.allocated.size() && client < state_.association.size(),
        "ap/client id out of range");
  check(finite_non_negative(loss_db),
        "loss_db must be finite and non-negative");
  wlan_.budget().set_ap_client_loss_db(static_cast<int>(ap),
                                       static_cast<int>(client), loss_db);
  state_.loss_overrides[{ap, client}] = loss_db;
  state_.dirty.insert(client);
  retire_oracle();
}

void WlanRuntime::set_load(std::uint32_t client, double load) {
  check(client < state_.association.size(), "client id out of range");
  check(finite_non_negative(load), "load must be finite and non-negative");
  const auto [it, added] = state_.loads.try_emplace(client, load);
  // The oracle weights cells by offered load, so a changed load is a
  // real invalidation.
  if (added || it->second != load) retire_oracle();
  it->second = load;
}

bool WlanRuntime::probe(int client) {
  const auto c = static_cast<std::size_t>(client);
  const int before = state_.association[c];
  // Detach first so the utility terms see the network without the
  // client: exactly the paper's trial association.
  state_.association[c] = net::kUnassociated;
  if (!controller_.associate_client(wlan_, state_.association,
                                    state_.operating, client)) {
    // Algorithm 1 admits no AP right now: keep the client where it was
    // instead of silently dropping it.
    state_.association[c] = before;
  }
  return state_.association[c] != before;
}

EpochRecord WlanRuntime::run_epoch() {
  EpochRecord rec;
  for (const std::uint32_t c : state_.dirty) {
    // Unassociated clients are skipped: a join probes itself.
    if (state_.association[c] != net::kUnassociated &&
        probe(static_cast<int>(c))) {
      ++rec.assoc_changes;
    }
  }
  state_.dirty.clear();
  if (rec.assoc_changes > 0) retire_oracle();

  const AllocationResult result = controller_.allocation_module().allocate(
      wlan_, state_.association, state_.allocated, oracle());
  rec.channel_switches = result.switches;
  rec.evaluations = result.evaluations;
  state_.allocated = result.assignment;

  // The context-aware decide_width scores each bonded cell on the
  // oracle's snapshot under the full allocation, so hidden interference
  // on the secondary channel can send an AP to the upper half.
  const sim::NetSnapshot& snapshot = oracle().snapshot();
  for (std::size_t ap = 0; ap < state_.allocated.size(); ++ap) {
    const net::Channel& base = state_.allocated[ap];
    net::Channel next = base;
    if (base.is_bonded()) {
      const WidthDecision d =
          decide_width(snapshot, static_cast<int>(ap), state_.allocated);
      const net::Channel& current = state_.operating[ap];
      const bool was_narrow =
          !current.is_bonded() && base.conflicts(current);
      const bool narrow =
          was_narrow ? !(d.cell_bps_40 > width_hysteresis_ * d.cell_bps_20)
                     : d.cell_bps_20 > width_hysteresis_ * d.cell_bps_40;
      if (narrow) {
        // The better half, primary on ties. d.channel names a half only
        // when the bond lost outright, so it cannot serve under
        // hysteresis.
        next = net::Channel::basic(
            base.primary() +
            (d.cell_bps_20_secondary > d.cell_bps_20_primary ? 1 : 0));
      }
      if (narrow != was_narrow) ++rec.width_switches;
    }
    state_.operating[ap] = next;
  }
  ++state_.epoch;
  goodput_bps_.reset();
  return rec;
}

double WlanRuntime::goodput_bps() {
  if (!goodput_bps_) {
    goodput_bps_ =
        oracle().snapshot().evaluate(state_.operating).total_goodput_bps;
  }
  return *goodput_bps_;
}

CachedOracle& WlanRuntime::oracle() {
  if (!oracle_) {
    // A client with load w contributes w times its goodput, so
    // Algorithm 2 stops optimizing for clients with nothing to send. No
    // hints = unweighted, bit-identical to the plain evaluator.
    std::vector<double> weights;
    if (!state_.loads.empty()) {
      weights.assign(state_.association.size(), 1.0);
      for (const auto& [client, load] : state_.loads) weights[client] = load;
    }
    oracle_ = std::make_unique<CachedOracle>(
        wlan_, state_.association, mac::TrafficType::kUdp, std::move(weights));
  }
  return *oracle_;
}

void WlanRuntime::retire_oracle() {
  goodput_bps_.reset();
  if (!oracle_) return;
  retired_ = oracle_stats();
  oracle_.reset();
}

OracleCacheStats WlanRuntime::oracle_stats() const {
  OracleCacheStats s = retired_;
  if (oracle_) {
    const OracleCacheStats live = oracle_->stats();
    s.cell_evals += live.cell_evals;
    s.cell_hits += live.cell_hits;
    s.share_evals += live.share_evals;
    s.share_hits += live.share_hits;
    s.batch_calls += live.batch_calls;
    s.batch_candidates += live.batch_candidates;
    s.batch_full_evals += live.batch_full_evals;
  }
  return s;
}

}  // namespace acorn::core
