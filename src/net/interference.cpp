#include "net/interference.hpp"

#include <algorithm>
#include <stdexcept>

namespace acorn::net {

InterferenceGraph::InterferenceGraph(const Topology& topo,
                                     const LinkBudget& budget,
                                     const Association& assoc,
                                     const InterferenceConfig& config)
    : n_aps_(topo.num_aps()),
      adj_(static_cast<std::size_t>(n_aps_) * static_cast<std::size_t>(n_aps_),
           0) {
  if (static_cast<int>(assoc.size()) != topo.num_clients()) {
    throw std::invalid_argument("association size != client count");
  }
  auto mark = [&](int a, int b) {
    adj_[static_cast<std::size_t>(a * n_aps_ + b)] = 1;
    adj_[static_cast<std::size_t>(b * n_aps_ + a)] = 1;
  };
  for (int a = 0; a < n_aps_; ++a) {
    for (int b = a + 1; b < n_aps_; ++b) {
      // Direct AP-AP competition.
      if (budget.rx_at_ap_dbm(topo, a, b) >= config.carrier_sense_dbm ||
          budget.rx_at_ap_dbm(topo, b, a) >= config.carrier_sense_dbm) {
        mark(a, b);
        continue;
      }
      // AP competing with the other AP's clients (footnote 5).
      bool edge = false;
      for (int c = 0; c < topo.num_clients() && !edge; ++c) {
        const int owner = assoc[static_cast<std::size_t>(c)];
        if (owner == b &&
            budget.rx_at_client_dbm(topo, a, c) >= config.carrier_sense_dbm) {
          edge = true;
        }
        if (owner == a &&
            budget.rx_at_client_dbm(topo, b, c) >= config.carrier_sense_dbm) {
          edge = true;
        }
      }
      if (edge) mark(a, b);
    }
  }
}

void InterferenceGraph::throw_bad_ap_id() {
  throw std::out_of_range("InterferenceGraph ap id");
}

std::vector<int> InterferenceGraph::neighbors(int ap) const {
  std::vector<int> out;
  for (int b = 0; b < n_aps_; ++b) {
    if (b != ap && adjacent(ap, b)) out.push_back(b);
  }
  return out;
}

int InterferenceGraph::degree(int ap) const {
  return static_cast<int>(neighbors(ap).size());
}

int InterferenceGraph::max_degree() const {
  int best = 0;
  for (int a = 0; a < n_aps_; ++a) best = std::max(best, degree(a));
  return best;
}

std::vector<int> contenders(const InterferenceGraph& graph,
                            const ChannelAssignment& assignment, int ap) {
  if (static_cast<int>(assignment.size()) != graph.num_aps()) {
    throw std::invalid_argument("assignment size != AP count");
  }
  std::vector<int> out;
  for (int b : graph.neighbors(ap)) {
    if (assignment[static_cast<std::size_t>(ap)].conflicts(
            assignment[static_cast<std::size_t>(b)])) {
      out.push_back(b);
    }
  }
  return out;
}

double medium_access_share(const InterferenceGraph& graph,
                           const ChannelAssignment& assignment, int ap) {
  return 1.0 /
         (static_cast<double>(contenders(graph, assignment, ap).size()) + 1.0);
}

double medium_access_share_weighted(const InterferenceGraph& graph,
                                    const ChannelAssignment& assignment,
                                    int ap) {
  if (static_cast<int>(assignment.size()) != graph.num_aps()) {
    throw std::invalid_argument("assignment size != AP count");
  }
  double load = 1.0;  // this AP's own demand
  const Channel& own = assignment[static_cast<std::size_t>(ap)];
  for (int b : graph.neighbors(ap)) {
    load += own.overlap_fraction(assignment[static_cast<std::size_t>(b)]);
  }
  return 1.0 / load;
}

}  // namespace acorn::net
