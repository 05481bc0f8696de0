// replay_daemon: a trace-driven load generator for acornd.
//
// Boots an in-process daemon, registers a fleet of synthetic floors and
// replays the deterministic schedule from trace/load_gen against it —
// session joins/leaves drawn from the CRAWDAD-fitted association-
// duration model via the Poisson arrival process, with SNR drift and
// offered-load hints while each session is live. Every WLAN is
// reconfigured each simulated `--epoch-every` seconds, mirroring the
// paper's periodic controller epoch.
//
//   ./replay_daemon [--wlans N] [--clients K] [--aps A] [--horizon S]
//                   [--rate R] [--seed S] [--workers M]
//                   [--epoch-every S] [--state-dir DIR]
//
//   --wlans N        fleet size (default 4)
//   --clients K      client slots per WLAN (default 8)
//   --aps A          APs per synthetic floor (default 3)
//   --horizon S      simulated seconds of churn (default 3600)
//   --rate R         session arrivals per WLAN per second (default 1/60)
//   --seed S         schedule + floor seed (default 1)
//   --workers M      pooled shard workers (default: hardware threads;
//                    0 = one dedicated thread per WLAN)
//   --epoch-every S  simulated seconds between reconfigurations (300)
//   --state-dir DIR  persist snapshots + WAL; run twice with the same
//                    directory to watch recovery before the replay
//
// The same flags always produce the same schedule, so two runs — at any
// worker count — drive the daemon through identical per-WLAN event
// sequences.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "service/client.hpp"
#include "service/daemon.hpp"
#include "trace/load_gen.hpp"

using namespace acorn;
using namespace acorn::service;

namespace {

constexpr int kWindow = 128;  // frames in flight on the connection

void show_config(Client& client, std::uint32_t wlan) {
  const Message reply = client.call(QueryConfig{wlan});
  const auto& cfg = std::get<ConfigReply>(reply);
  std::printf("  wlan %u epoch %llu: %.2f Mbps |", wlan,
              static_cast<unsigned long long>(cfg.epoch),
              cfg.total_goodput_bps / 1e6);
  for (std::size_t ap = 0; ap < cfg.operating.size(); ++ap) {
    std::printf(" AP%zu=%s", ap, cfg.operating[ap].to_string().c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  trace::FleetLoadConfig load;
  load.num_wlans = 4;
  load.horizon_s = 3600.0;
  double epoch_every_s = 300.0;
  DaemonConfig config;
  config.unix_path =
      "/tmp/acorn_replay_" + std::to_string(::getpid()) + ".sock";
  config.epoch_s = 0.0;  // epochs on demand: the schedule paces time

  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--wlans") == 0) {
      load.num_wlans = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      load.clients_per_wlan = std::atoi(value());
    } else if (std::strcmp(argv[i], "--aps") == 0) {
      load.aps_per_wlan = std::atoi(value());
    } else if (std::strcmp(argv[i], "--horizon") == 0) {
      load.horizon_s = std::atof(value());
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      load.arrivals_per_s = std::atof(value());
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      load.seed = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      config.workers = std::atoi(value());
    } else if (std::strcmp(argv[i], "--epoch-every") == 0) {
      epoch_every_s = std::atof(value());
    } else if (std::strcmp(argv[i], "--state-dir") == 0) {
      config.state_dir = value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (load.num_wlans == 0 || load.horizon_s <= 0.0 || epoch_every_s <= 0.0) {
    std::fprintf(stderr, "need --wlans >= 1, --horizon > 0, "
                         "--epoch-every > 0\n");
    return 2;
  }

  Daemon daemon(config);
  daemon.start();
  Client client = Client::connect_unix(config.unix_path);
  std::printf("replaying onto acornd at %s\n", config.unix_path.c_str());

  if (!config.state_dir.empty()) {
    const Message stats = client.call(QueryStats{});
    const auto& st = std::get<StatsReply>(stats);
    if (st.num_wlans > 0) {
      std::printf("recovered %u WLAN(s) from %s:\n", st.num_wlans,
                  config.state_dir.c_str());
      show_config(client, 1);
      // Start the replay fresh so both runs replay the same schedule.
      for (std::uint32_t w = 0; w < st.num_wlans; ++w) {
        client.call(RemoveWlan{1 + w});
      }
    }
  }

  std::printf("registering %u WLAN(s): %d APs x %d client slots each\n",
              load.num_wlans, load.aps_per_wlan, load.clients_per_wlan);
  const std::string floor = trace::synthetic_floor(
      load.aps_per_wlan, load.clients_per_wlan, load.seed);
  for (std::uint32_t w = 0; w < load.num_wlans; ++w) {
    client.call(RegisterWlan{load.first_wlan_id + w, floor});
  }

  std::printf("generating %.0f s of fleet load (seed %llu, %.3f "
              "arrivals/WLAN/s)...\n",
              load.horizon_s, static_cast<unsigned long long>(load.seed),
              load.arrivals_per_s);
  const std::vector<trace::LoadEvent> events =
      trace::generate_fleet_load(load);
  std::printf("%zu events; reconfiguring every %.0f simulated seconds\n",
              events.size(), epoch_every_s);

  // Replay pipelined: up to kWindow frames stay in flight; at every
  // epoch boundary the window drains and each WLAN reconfigures, so
  // epochs see exactly the events that "happened" before them.
  std::size_t sent = 0;
  std::size_t recvd = 0;
  std::uint64_t epochs = 0;
  double next_epoch_s = epoch_every_s;
  const auto drain = [&]() {
    while (recvd < sent) {
      (void)client.recv();
      ++recvd;
    }
  };
  while (sent < events.size()) {
    const trace::LoadEvent& e = events[sent];
    if (e.t_s >= next_epoch_s) {
      drain();
      for (std::uint32_t w = 0; w < load.num_wlans; ++w) {
        client.call(ForceReconfigure{load.first_wlan_id + w});
      }
      epochs += load.num_wlans;
      std::printf("  t=%6.0fs: %zu/%zu events replayed, %llu epochs\n",
                  next_epoch_s, sent, events.size(),
                  static_cast<unsigned long long>(epochs));
      next_epoch_s += epoch_every_s;
      continue;
    }
    switch (e.kind) {
      case trace::LoadEventKind::kJoin:
        client.send(ClientJoin{e.wlan_id, e.client});
        break;
      case trace::LoadEventKind::kLeave:
        client.send(ClientLeave{e.wlan_id, e.client});
        break;
      case trace::LoadEventKind::kSnr:
        client.send(SnrUpdate{e.wlan_id, e.ap, e.client, e.value});
        break;
      case trace::LoadEventKind::kLoad:
        client.send(LoadUpdate{e.wlan_id, e.client, e.value});
        break;
    }
    ++sent;
    if (sent - recvd >= kWindow) {
      (void)client.recv();
      ++recvd;
    }
  }
  drain();
  for (std::uint32_t w = 0; w < load.num_wlans; ++w) {
    client.call(ForceReconfigure{load.first_wlan_id + w});
  }
  epochs += load.num_wlans;

  for (std::uint32_t w = 0; w < std::min<std::uint32_t>(load.num_wlans, 4);
       ++w) {
    show_config(client, load.first_wlan_id + w);
  }
  const Message stats = client.call(QueryStats{});
  const auto& st = std::get<StatsReply>(stats);
  std::printf("replay done: %llu events, %llu epochs, %llu snapshots, "
              "%llu channel switches, %llu wal records\n",
              static_cast<unsigned long long>(st.events_total),
              static_cast<unsigned long long>(st.epochs_total),
              static_cast<unsigned long long>(st.snapshots_written),
              static_cast<unsigned long long>(st.channel_switches),
              static_cast<unsigned long long>(st.wal_records));

  client.close();
  daemon.stop();
  return 0;
}
