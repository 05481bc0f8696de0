// acornctl: auto-configure a WLAN described in a deployment file, or
// drive a running acornd daemon over its wire protocol.
//
//   ./acornctl <deployment-file> [--tcp] [--compare] [--seed N]
//              [--sweep N [--threads T]]
//   ./acornctl --demo            # run a built-in sample deployment
//
//   ./acornctl --connect ENDPOINT CMD ...   # client mode
//     ENDPOINT: unix:/path/to/sock | host:port
//     CMD:
//       register <id> <deployment-file|--demo>
//       remove   <id>
//       join     <id> <client>
//       leave    <id> <client>
//       snr      <id> <ap> <client> <loss-db>
//       load     <id> <client> <fraction>
//       reconfig <id>
//       config   <id>
//       stats
//       shutdown
//
// --sweep N scores N random (association, channel) configurations of the
// same deployment through the deterministic parallel sweep driver
// (sim/sweep.hpp) and reports how the ACORN configuration ranks against
// them; the result is bit-identical for any --threads value.
//
// --dcb-sweep N runs the gap-to-optimal report on N dense random-drop
// scenarios (dcb/gap_report.hpp): Algorithm 2 vs the exact Kai et al.
// optimum plus all three DCB width policies; bit-identical for any
// --threads value. --dcb-drop prints one generated random-drop
// deployment file instead. Family knobs: --dcb-aps/--dcb-clients/
// --dcb-area/--dcb-channels/--wide-prob.
//
// File format (see sim/deployment_file.hpp):
//   ap <x> <y> [tx_dbm]
//   client <x> <y>
//   pathloss exponent|ref|shadowing <value>
//   channels <n>
//   seed <n>
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <vector>

#include "baselines/kauffmann17.hpp"
#include "baselines/simple.hpp"
#include "core/controller.hpp"
#include "dcb/gap_report.hpp"
#include "dcb/random_drop.hpp"
#include "service/client.hpp"
#include "sim/deployment_file.hpp"
#include "sim/sweep.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace acorn;

namespace {

constexpr const char* kProg = "acornctl";
constexpr double kHuge = std::numeric_limits<double>::max();

constexpr const char* kDemo = R"(# demo floor: 3 APs, 8 clients
pathloss exponent 3.5
pathloss shadowing 4
channels 12
seed 7
ap 10 10
ap 50 10
ap 30 40
client 12 12
client 14  8
client 48 14
client 52  9
client 28 38
client 35 42
client 30 25
client 45 30
)";

void print_configuration(const sim::Wlan& wlan,
                         const core::ConfigureResult& result) {
  util::TextTable t({"AP", "position", "channel", "clients", "share",
                     "cell Mbps"});
  for (const sim::ApStats& ap : result.evaluation.per_ap) {
    const net::Point p = wlan.topology().ap(ap.ap_id).position;
    t.add_row({"AP" + std::to_string(ap.ap_id),
               "(" + util::TextTable::num(p.x, 0) + "," +
                   util::TextTable::num(p.y, 0) + ")",
               result.assignment[static_cast<std::size_t>(ap.ap_id)]
                   .to_string(),
               std::to_string(ap.num_clients),
               util::TextTable::num(ap.medium_share, 2),
               util::TextTable::num(ap.goodput_bps / 1e6, 2)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("clients: ");
  for (int c = 0; c < wlan.topology().num_clients(); ++c) {
    const int owner = result.association[static_cast<std::size_t>(c)];
    std::printf("c%d->%s ", c,
                owner == net::kUnassociated
                    ? "??"
                    : ("AP" + std::to_string(owner)).c_str());
  }
  std::printf("\ntotal: %.2f Mbps\n",
              result.evaluation.total_goodput_bps / 1e6);
}

int print_reply(const service::Message& reply) {
  using namespace service;
  if (const auto* ok = std::get_if<OkReply>(&reply)) {
    std::printf("ok (value %d)\n", ok->value);
    return 0;
  }
  if (const auto* err = std::get_if<ErrorReply>(&reply)) {
    std::fprintf(stderr, "error %u: %s\n", err->code, err->text.c_str());
    return 1;
  }
  if (const auto* cfg = std::get_if<ConfigReply>(&reply)) {
    std::printf("wlan %u: epoch %llu, %llu events applied, %.2f Mbps\n",
                cfg->wlan_id,
                static_cast<unsigned long long>(cfg->epoch),
                static_cast<unsigned long long>(cfg->events_applied),
                cfg->total_goodput_bps / 1e6);
    util::TextTable t({"AP", "allocated", "operating"});
    for (std::size_t ap = 0; ap < cfg->allocated.size(); ++ap) {
      t.add_row({"AP" + std::to_string(ap),
                 cfg->allocated[ap].to_string(),
                 cfg->operating[ap].to_string()});
    }
    std::printf("%s", t.to_string().c_str());
    std::printf("clients: ");
    for (std::size_t c = 0; c < cfg->association.size(); ++c) {
      const int owner = cfg->association[c];
      if (owner == net::kUnassociated) {
        std::printf("c%zu->?? ", c);
      } else {
        std::printf("c%zu->AP%d ", c, owner);
      }
    }
    std::printf("\n");
    return 0;
  }
  if (const auto* st = std::get_if<StatsReply>(&reply)) {
    auto u = [](std::uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    std::printf(
        "wlans %u | frames %llu events %llu errors %llu\n"
        "epochs %llu (last %.2f ms) snapshots %llu\n"
        "wal: records %llu flushes %llu syncs %llu coalesced %llu "
        "(avg batch %.1f)\n"
        "switches: channel %llu width %llu assoc %llu\n"
        "allocator: candidate evals %llu\n"
        "oracle: cell evals %llu hits %llu, share evals %llu hits %llu\n",
        st->num_wlans, u(st->frames_rx), u(st->events_total),
        u(st->protocol_errors), u(st->epochs_total), st->last_epoch_ms,
        u(st->snapshots_written), u(st->wal_records), u(st->wal_flushes),
        u(st->wal_syncs), u(st->wal_coalesced_events),
        st->wal_syncs > 0 ? static_cast<double>(st->wal_coalesced_events) /
                                static_cast<double>(st->wal_syncs)
                          : 0.0,
        u(st->channel_switches), u(st->width_switches), u(st->assoc_changes),
        u(st->alloc_evaluations),
        u(st->oracle_cell_evals), u(st->oracle_cell_hits),
        u(st->oracle_share_evals), u(st->oracle_share_hits));
    std::printf("latency us (log2 buckets):");
    for (std::size_t i = 0; i < st->latency_us_log2.size(); ++i) {
      if (st->latency_us_log2[i] != 0) {
        std::printf(" [<%llu us]=%llu", 1ull << (i + 1),
                    u(st->latency_us_log2[i]));
      }
    }
    std::printf("\n");
    std::printf("wal sync us (log2 buckets):");
    for (std::size_t i = 0; i < st->wal_sync_us_log2.size(); ++i) {
      if (st->wal_sync_us_log2[i] != 0) {
        std::printf(" [<%llu us]=%llu", 1ull << (i + 1),
                    u(st->wal_sync_us_log2[i]));
      }
    }
    std::printf("\n");
    std::printf("wal batch size (log2 buckets):");
    for (std::size_t i = 0; i < st->wal_batch_log2.size(); ++i) {
      if (st->wal_batch_log2[i] != 0) {
        std::printf(" [<%llu ev]=%llu", 1ull << (i + 1),
                    u(st->wal_batch_log2[i]));
      }
    }
    std::printf("\n");
    return 0;
  }
  std::fprintf(stderr, "unexpected reply type\n");
  return 1;
}

int run_connect(const std::string& endpoint, int argc, char** argv,
                int first) {
  using namespace service;
  if (first >= argc) {
    std::fprintf(stderr, "--connect needs a command (see --help)\n");
    return 2;
  }
  const std::string cmd = argv[first];
  // Argument k of the command, parsed whole: an id that fits a u32, or
  // a loss or load that is finite and >= 0, as the daemon accepts.
  const auto arg_u32 = [&](int k, const char* name) {
    return static_cast<std::uint32_t>(util::flag_value<long long>(
        kProg, name, argv[first + k], 0,
        std::numeric_limits<std::uint32_t>::max(),
        "an id in [0, 4294967295]"));
  };
  const auto arg_non_negative = [&](int k, const char* name) {
    return util::flag_value<double>(kProg, name, argv[first + k], 0.0, kHuge,
                                    "a finite number >= 0");
  };
  const int nargs = argc - first - 1;
  const auto need = [&](int n, const char* usage) {
    if (nargs != n) {
      std::fprintf(stderr, "usage: acornctl --connect ENDPOINT %s\n", usage);
      std::exit(2);
    }
  };

  Message request;
  if (cmd == "register") {
    need(2, "register <id> <deployment-file|--demo>");
    const std::uint32_t id = arg_u32(1, "<id>");
    std::string text;
    if (std::strcmp(argv[first + 2], "--demo") == 0) {
      text = kDemo;
    } else {
      std::ifstream file(argv[first + 2]);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", argv[first + 2]);
        return 2;
      }
      std::ostringstream ss;
      ss << file.rdbuf();
      text = ss.str();
    }
    request = RegisterWlan{id, std::move(text)};
  } else if (cmd == "remove") {
    need(1, "remove <id>");
    request = RemoveWlan{arg_u32(1, "<id>")};
  } else if (cmd == "join") {
    need(2, "join <id> <client>");
    request = ClientJoin{arg_u32(1, "<id>"), arg_u32(2, "<client>")};
  } else if (cmd == "leave") {
    need(2, "leave <id> <client>");
    request = ClientLeave{arg_u32(1, "<id>"), arg_u32(2, "<client>")};
  } else if (cmd == "snr") {
    need(4, "snr <id> <ap> <client> <loss-db>");
    request = SnrUpdate{arg_u32(1, "<id>"), arg_u32(2, "<ap>"),
                        arg_u32(3, "<client>"),
                        arg_non_negative(4, "<loss-db>")};
  } else if (cmd == "load") {
    need(3, "load <id> <client> <fraction>");
    request = LoadUpdate{arg_u32(1, "<id>"), arg_u32(2, "<client>"),
                         arg_non_negative(3, "<fraction>")};
  } else if (cmd == "reconfig") {
    need(1, "reconfig <id>");
    request = ForceReconfigure{arg_u32(1, "<id>")};
  } else if (cmd == "config") {
    need(1, "config <id>");
    request = QueryConfig{arg_u32(1, "<id>")};
  } else if (cmd == "stats") {
    need(0, "stats");
    request = QueryStats{};
  } else if (cmd == "shutdown") {
    need(0, "shutdown");
    request = Shutdown{};
  } else {
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
  }

  try {
    Client client = Client::connect(endpoint);
    return print_reply(client.call(request));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0) {
      const char* endpoint = util::next_flag_value(kProg, argc, argv, i);
      return run_connect(endpoint, argc, argv, i + 1);
    }
  }
  bool tcp = false;
  bool compare = false;
  std::uint64_t seed = 42;
  const char* path = nullptr;
  bool demo = false;
  int sweep_n = 0;
  int sweep_threads = 1;
  int dcb_sweep_n = 0;
  bool dcb_drop = false;
  dcb::GapReportConfig dcb_config;
  // Every value flag needs an argument after it, and every numeric value
  // is parsed whole and range-checked: a missing or bad one names its
  // flag and exits 2.
  const auto value = [&](int& i) {
    return util::next_flag_value(kProg, argc, argv, i);
  };
  const auto int_flag = [&](int& i, long long lo, long long hi,
                            const char* expected) {
    const char* flag = argv[i];
    return static_cast<int>(
        util::flag_value<long long>(kProg, flag, value(i), lo, hi, expected));
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tcp") == 0) {
      tcp = true;
    } else if (std::strcmp(argv[i], "--compare") == 0) {
      compare = true;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = util::flag_value<std::uint64_t>(
          kProg, "--seed", value(i), 0,
          std::numeric_limits<std::uint64_t>::max(), "a non-negative integer");
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      sweep_n = int_flag(i, 0, std::numeric_limits<int>::max(),
                         "a trial count >= 0");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      sweep_threads = int_flag(i, 0, 4096, "a thread count in [0, 4096]");
    } else if (std::strcmp(argv[i], "--dcb-sweep") == 0) {
      dcb_sweep_n = int_flag(i, 0, std::numeric_limits<int>::max(),
                             "a scenario count >= 0");
    } else if (std::strcmp(argv[i], "--dcb-drop") == 0) {
      dcb_drop = true;
    } else if (std::strcmp(argv[i], "--dcb-aps") == 0) {
      dcb_config.drop.num_aps =
          int_flag(i, 1, 1024, "an AP count in [1, 1024]");
    } else if (std::strcmp(argv[i], "--dcb-clients") == 0) {
      dcb_config.drop.num_clients =
          int_flag(i, 0, 4096, "a client count in [0, 4096]");
    } else if (std::strcmp(argv[i], "--dcb-area") == 0) {
      dcb_config.drop.area_m = util::flag_value<double>(
          kProg, "--dcb-area", value(i),
          std::numeric_limits<double>::denorm_min(), kHuge,
          "a finite side in metres > 0");
    } else if (std::strcmp(argv[i], "--dcb-channels") == 0) {
      dcb_config.drop.num_channels =
          int_flag(i, 1, 1024, "a channel count in [1, 1024]");
    } else if (std::strcmp(argv[i], "--wide-prob") == 0) {
      dcb_config.wide_probability = util::flag_value<double>(
          kProg, "--wide-prob", value(i), 0.0, 1.0,
          "a probability in [0, 1]");
    } else {
      path = argv[i];
    }
  }
  // The DCB modes generate their own deployments (the dense random-drop
  // family) — no deployment file involved.
  if (dcb_drop) {
    util::Rng rng(seed);
    const sim::DeploymentSpec drop =
        dcb::random_drop(dcb_config.drop, rng);
    std::fputs(sim::format_deployment(drop).c_str(), stdout);
    return 0;
  }
  if (dcb_sweep_n > 0) {
    dcb_config.num_scenarios = dcb_sweep_n;
    dcb_config.seed = seed;
    dcb_config.num_threads = sweep_threads;
    try {
      const dcb::GapReport report = dcb::run_gap_report(dcb_config);
      std::fputs(dcb::format_gap_report(report).c_str(), stdout);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dcb sweep failed: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  if (path == nullptr && !demo) {
    std::fprintf(stderr,
                 "usage: %s <deployment-file> [--tcp] [--compare] "
                 "[--seed N] [--sweep N [--threads T]] | --demo\n"
                 "       %s --dcb-sweep N [--threads T] [--seed N]\n"
                 "           [--dcb-aps N] [--dcb-clients N] "
                 "[--dcb-area M] [--dcb-channels N] [--wide-prob P]\n"
                 "       %s --dcb-drop [--seed N] [--dcb-aps N] ...\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }

  sim::DeploymentSpec spec;
  try {
    if (demo) {
      spec = sim::parse_deployment(std::string(kDemo));
    } else {
      std::ifstream file(path);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 2;
      }
      spec = sim::parse_deployment(file);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 2;
  }

  const sim::Wlan wlan = spec.build();
  std::printf("deployment: %d APs, %d clients, %d channels\n",
              wlan.topology().num_aps(), wlan.topology().num_clients(),
              spec.num_channels);

  core::AcornConfig cfg;
  cfg.plan = net::ChannelPlan(spec.num_channels);
  const core::AcornController acorn(cfg);
  util::Rng rng(seed);
  const mac::TrafficType traffic =
      tcp ? mac::TrafficType::kTcp : mac::TrafficType::kUdp;
  const core::ConfigureResult result =
      acorn.configure(wlan, rng, nullptr, traffic);
  std::printf("\nACORN configuration (%s):\n", tcp ? "TCP" : "UDP");
  print_configuration(wlan, result);

  if (compare) {
    const baselines::Kauffmann17 k17{net::ChannelPlan(spec.num_channels)};
    const baselines::Kauffmann17::Result theirs = k17.configure(wlan);
    const double theirs_bps =
        wlan.evaluate(theirs.association, theirs.assignment, traffic)
            .total_goodput_bps;
    const net::Association rss = baselines::rss_associate_all(wlan);
    const net::ChannelAssignment all40 = k17.allocate(wlan);
    const double stock_bps =
        wlan.evaluate(rss, all40, traffic).total_goodput_bps;
    std::printf("\ncomparison:\n  [17] adapted : %.2f Mbps\n"
                "  RSS + all-40 : %.2f Mbps\n  ACORN        : %.2f Mbps\n",
                theirs_bps / 1e6, stock_bps / 1e6,
                result.evaluation.total_goodput_bps / 1e6);
  }

  if (sweep_n > 0) {
    sim::SweepOptions sweep_opts;
    sweep_opts.seed = seed;
    sweep_opts.num_threads = sweep_threads;
    const std::vector<double> trials = sim::sweep_scenarios(
        static_cast<std::size_t>(sweep_n), sweep_opts,
        [&](util::Rng& rng, std::size_t) {
          const baselines::RandomConfig cfg = baselines::random_configuration(
              wlan, net::ChannelPlan(spec.num_channels), rng);
          return wlan.evaluate(cfg.association, cfg.assignment, traffic)
              .total_goodput_bps;
        });
    std::vector<double> sorted = trials;
    std::sort(sorted.rbegin(), sorted.rend());
    const double acorn_bps = result.evaluation.total_goodput_bps;
    const std::size_t beaten = static_cast<std::size_t>(
        std::count_if(trials.begin(), trials.end(),
                      [&](double t) { return acorn_bps >= t; }));
    std::printf("\nrandom-config sweep (%d trials, %d threads):\n"
                "  best random   : %.2f Mbps\n"
                "  median random : %.2f Mbps\n"
                "  ACORN         : %.2f Mbps (beats %zu/%d)\n",
                sweep_n, sweep_threads, sorted[0] / 1e6,
                sorted[sorted.size() / 2] / 1e6, acorn_bps / 1e6, beaten,
                sweep_n);
  }
  return 0;
}
