#include "sim/deployment_file.hpp"

#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/flags.hpp"

namespace acorn::sim {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::invalid_argument("deployment line " + std::to_string(line) +
                              ": " + message);
}

}  // namespace

Wlan DeploymentSpec::build(const WlanConfig& config) const {
  util::Rng rng(seed);
  net::LinkBudget budget(topology, pathloss, rng);
  return Wlan(topology, std::move(budget), config);
}

DeploymentSpec parse_deployment(std::istream& in) {
  DeploymentSpec spec;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string keyword;
    if (!(tokens >> keyword)) continue;  // blank / comment-only line

    if (keyword == "ap") {
      double x = 0.0;
      double y = 0.0;
      if (!(tokens >> x >> y)) fail(line_no, "ap needs <x> <y>");
      double tx = 15.0;
      std::string tx_text;
      if (tokens >> tx_text) {  // optional, but a whole finite number
        const std::optional<double> v = util::parse_number<double>(
            tx_text, std::numeric_limits<double>::lowest(),
            std::numeric_limits<double>::max());
        if (!v) {
          fail(line_no, "ap tx_dbm must be a finite number, got '" +
                            tx_text + "'");
        }
        tx = *v;
      }
      spec.topology.add_ap(net::Point{x, y}, tx);
    } else if (keyword == "client") {
      double x = 0.0;
      double y = 0.0;
      if (!(tokens >> x >> y)) fail(line_no, "client needs <x> <y>");
      spec.topology.add_client(net::Point{x, y});
    } else if (keyword == "pathloss") {
      std::string which;
      double value = 0.0;
      if (!(tokens >> which >> value)) {
        fail(line_no, "pathloss needs <field> <value>");
      }
      if (which == "exponent") {
        spec.pathloss.exponent = value;
      } else if (which == "ref") {
        spec.pathloss.ref_loss_db = value;
      } else if (which == "shadowing") {
        spec.pathloss.shadowing_sigma_db = value;
      } else {
        fail(line_no, "unknown pathloss field '" + which + "'");
      }
    } else if (keyword == "channels") {
      int n = 0;
      if (!(tokens >> n) || n < 1) fail(line_no, "channels needs n >= 1");
      spec.num_channels = n;
    } else if (keyword == "seed") {
      std::uint64_t s = 0;
      if (!(tokens >> s)) fail(line_no, "seed needs an integer");
      spec.seed = s;
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
    // Trailing garbage after the recognized fields is an error.
    std::string extra;
    if (tokens >> extra) fail(line_no, "unexpected token '" + extra + "'");
  }
  if (spec.topology.num_aps() == 0) {
    throw std::invalid_argument("deployment has no APs");
  }
  return spec;
}

DeploymentSpec parse_deployment(const std::string& text) {
  std::istringstream in(text);
  return parse_deployment(in);
}

std::string format_deployment(const DeploymentSpec& spec) {
  std::ostringstream out;
  // %.17g round-trips any finite double through istream extraction.
  const auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  out << "pathloss exponent " << num(spec.pathloss.exponent) << "\n";
  out << "pathloss ref " << num(spec.pathloss.ref_loss_db) << "\n";
  out << "pathloss shadowing " << num(spec.pathloss.shadowing_sigma_db)
      << "\n";
  out << "channels " << spec.num_channels << "\n";
  out << "seed " << spec.seed << "\n";
  for (const net::ApNode& ap : spec.topology.aps()) {
    out << "ap " << num(ap.position.x) << " " << num(ap.position.y) << " "
        << num(ap.tx_dbm) << "\n";
  }
  for (const net::ClientNode& client : spec.topology.clients()) {
    out << "client " << num(client.position.x) << " "
        << num(client.position.y) << "\n";
  }
  return out.str();
}

}  // namespace acorn::sim
