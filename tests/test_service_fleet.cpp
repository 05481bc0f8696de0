// Fleet-scale acornd: the pooled shard executor must give the same
// result at every worker count, and the same result as core alone.
//
// All events ride one pipelined connection, so each shard's mailbox
// order is the send order no matter how many workers the pool has or
// how they interleave across shards — which makes "identical" checkable
// to the byte: after the same schedule, every WLAN's snapshot encoding
// must match the one-worker reference, which runs every shard strictly
// serially. The daemon-vs-core test replays a schedule through a bare
// core::WlanRuntime and compares the two after every epoch.
//
// The whole suite is labelled `fleet_smoke` so CI can run it alone in
// the tier-1, ASan and TSan lanes.
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/snapshot.hpp"
#include "sim/deployment_file.hpp"
#include "trace/load_gen.hpp"
#include "util/rng.hpp"

namespace acorn::service {
namespace {

constexpr int kWindow = 64;

std::string sock_path(const char* tag, int workers) {
  return "/tmp/acorn_fleet_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(workers) + ".sock";
}

void send_event(Client& client, const trace::LoadEvent& e) {
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
}

/// Run `events` against a fresh daemon with `workers` pooled workers and
/// return every WLAN's snapshot bytes. A ForceReconfigure for a rotating
/// WLAN is interleaved every `reconfigure_stride` events — in-stream, so
/// it lands at the same position in that WLAN's mailbox at every worker
/// count.
std::vector<std::vector<std::uint8_t>> run_schedule(
    const char* tag, int workers, int num_wlans, const std::string& floor,
    const std::vector<trace::LoadEvent>& events, int reconfigure_stride) {
  DaemonConfig config;
  config.unix_path = sock_path(tag, workers);
  config.epoch_s = 0.0;  // no timer epochs: the schedule is the clock
  config.workers = workers;
  Daemon daemon(config);
  daemon.start();
  Client client = Client::connect_unix(config.unix_path);

  std::int64_t sent = 0;
  std::int64_t recvd = 0;
  const auto pump = [&](const Message& msg) {
    client.send(msg);
    ++sent;
    if (sent - recvd >= kWindow) {
      (void)client.recv();
      ++recvd;
    }
  };
  for (int w = 0; w < num_wlans; ++w) {
    pump(RegisterWlan{static_cast<std::uint32_t>(1 + w), floor});
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    send_event(client, events[i]);
    ++sent;
    if (sent - recvd >= kWindow) {
      (void)client.recv();
      ++recvd;
    }
    if (reconfigure_stride > 0 &&
        (i + 1) % static_cast<std::size_t>(reconfigure_stride) == 0) {
      pump(ForceReconfigure{static_cast<std::uint32_t>(
          1 + (i / static_cast<std::size_t>(reconfigure_stride)) %
                  static_cast<std::size_t>(num_wlans))});
    }
  }
  while (recvd < sent) {
    (void)client.recv();
    ++recvd;
  }

  std::vector<std::vector<std::uint8_t>> snaps;
  snaps.reserve(static_cast<std::size_t>(num_wlans));
  for (int w = 0; w < num_wlans; ++w) {
    const auto state = daemon.wlan_state(static_cast<std::uint32_t>(1 + w));
    EXPECT_TRUE(state.has_value());
    snaps.push_back(state ? encode_snapshot(*state)
                          : std::vector<std::uint8_t>{});
  }
  client.close();
  daemon.stop();
  return snaps;
}

/// Seeded random mutating schedule: joins, leaves, SNR drift and load
/// hints scattered across the fleet (heavier on mutation than the trace
/// generator, including double-joins and leaves of absent clients).
std::vector<trace::LoadEvent> random_schedule(int num_wlans, int clients,
                                              int aps, int count,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<trace::LoadEvent> events;
  events.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    trace::LoadEvent e;
    e.t_s = static_cast<double>(i);
    e.wlan_id = static_cast<std::uint32_t>(
        rng.uniform_int(1, num_wlans));
    e.client = static_cast<std::uint32_t>(
        rng.uniform_int(0, clients - 1));
    const double kind = rng.uniform();
    if (kind < 0.30) {
      e.kind = trace::LoadEventKind::kJoin;
    } else if (kind < 0.45) {
      e.kind = trace::LoadEventKind::kLeave;
    } else if (kind < 0.80) {
      e.kind = trace::LoadEventKind::kSnr;
      e.ap = static_cast<std::uint32_t>(rng.uniform_int(0, aps - 1));
      e.value = rng.uniform(70.0, 115.0);
    } else {
      e.kind = trace::LoadEventKind::kLoad;
      e.value = rng.uniform();
    }
    events.push_back(e);
  }
  return events;
}

TEST(ServiceFleet, PooledMatchesReferenceOnRandomSchedules) {
  constexpr int kWlans = 6;
  constexpr int kClients = 6;
  constexpr int kAps = 3;
  const std::string floor = trace::synthetic_floor(kAps, kClients, 11);
  const std::vector<trace::LoadEvent> events =
      random_schedule(kWlans, kClients, kAps, 800, 0xF1EE7);

  const auto reference =
      run_schedule("rand", 1, kWlans, floor, events, 37);
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kWlans));
  for (const int workers : {2, 4}) {
    const auto pooled =
        run_schedule("rand", workers, kWlans, floor, events, 37);
    ASSERT_EQ(pooled.size(), reference.size());
    for (int w = 0; w < kWlans; ++w) {
      EXPECT_EQ(pooled[static_cast<std::size_t>(w)],
                reference[static_cast<std::size_t>(w)])
          << "wlan " << (1 + w) << " diverged at " << workers
          << " pooled workers";
    }
  }
}

TEST(ServiceFleet, FleetSmoke256WlansOver4PooledWorkers) {
  constexpr int kWlans = 256;
  const std::string floor = trace::synthetic_floor(3, 8, 7);

  trace::FleetLoadConfig lc;
  lc.num_wlans = kWlans;
  lc.clients_per_wlan = 8;
  lc.aps_per_wlan = 3;
  lc.horizon_s = 400.0;
  lc.duration_scale = 0.1;
  lc.seed = 42;
  std::vector<trace::LoadEvent> events = trace::generate_fleet_load(lc);
  ASSERT_GT(events.size(), 1000u);
  if (events.size() > 4000) events.resize(4000);

  const auto reference =
      run_schedule("smoke", 1, kWlans, floor, events, 64);
  const auto pooled = run_schedule("smoke", 4, kWlans, floor, events, 64);
  ASSERT_EQ(pooled.size(), reference.size());
  for (int w = 0; w < kWlans; ++w) {
    EXPECT_EQ(pooled[static_cast<std::size_t>(w)],
              reference[static_cast<std::size_t>(w)])
        << "wlan " << (1 + w) << " diverged at 4 pooled workers";
  }
}

// One random event for WLAN `wlan`: mostly joins, leaves, SNR drift and
// load hints, plus ~8% that both sides must reject (a client or AP id
// past the deployment, a NaN or negative loss, a negative load).
Message random_event(util::Rng& rng, std::uint32_t wlan, int aps,
                     int clients) {
  const auto client =
      static_cast<std::uint32_t>(rng.uniform_int(0, clients - 1));
  const auto ap = static_cast<std::uint32_t>(rng.uniform_int(0, aps - 1));
  const double kind = rng.uniform();
  if (kind < 0.22) return ClientJoin{wlan, client};
  if (kind < 0.32) return ClientLeave{wlan, client};
  if (kind < 0.72) return SnrUpdate{wlan, ap, client, rng.uniform(70.0, 115.0)};
  if (kind < 0.92) return LoadUpdate{wlan, client, rng.uniform()};
  const auto past = static_cast<std::uint32_t>(clients) + client;
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return ClientJoin{wlan, past};
    case 1:
      return ClientLeave{wlan, past};
    case 2:
      return SnrUpdate{wlan, static_cast<std::uint32_t>(aps), client, 90.0};
    case 3:
      return SnrUpdate{wlan, ap, client,
                       std::numeric_limits<double>::quiet_NaN()};
    case 4:
      return SnrUpdate{wlan, ap, client, -3.0};
    default:
      return LoadUpdate{wlan, client, -0.25};
  }
}

/// The same message applied to the bare runtime: the OkReply value the
/// daemon should send, or nullopt where it should reject the event.
std::optional<std::int32_t> apply_to_core(core::WlanRuntime& rt,
                                          const Message& msg) {
  try {
    if (const auto* m = std::get_if<ClientJoin>(&msg)) {
      rt.join(m->client);
      return rt.state().association[m->client];
    }
    if (const auto* m = std::get_if<ClientLeave>(&msg)) {
      rt.leave(m->client);
      return net::kUnassociated;
    }
    if (const auto* m = std::get_if<SnrUpdate>(&msg)) {
      rt.set_link_loss(m->ap, m->client, m->loss_db);
      return 0;
    }
    if (const auto* m = std::get_if<LoadUpdate>(&msg)) {
      rt.set_load(m->client, m->load);
      return 0;
    }
    return rt.run_epoch().channel_switches;  // ForceReconfigure
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

// The daemon against core alone. A seeded random schedule runs through
// an in-process daemon and through a core::WlanRuntime built from the
// registered WLAN's first snapshot. Both must reject the same events and
// send the same replies, and after every event and every epoch their
// states must encode to the same snapshot bytes. The SNR and load
// updates are what make this sharp: re-probes are mostly idempotent, so
// a lost join often goes unseen, while a lost SNR update changes the
// stored inputs at once and the decisions at the next epoch.
TEST(ServiceFleet, DaemonMatchesCoreRuntime) {
  constexpr std::uint32_t kWlan = 3;
  constexpr int kAps = 3;
  constexpr int kClients = 8;
  const std::string floor = trace::synthetic_floor(kAps, kClients, 5);
  DaemonConfig config;
  config.unix_path = sock_path("core", 2);
  config.epoch_s = 0.0;
  config.workers = 2;
  Daemon daemon(config);
  daemon.start();
  Client client = Client::connect_unix(config.unix_path);
  ASSERT_TRUE(std::holds_alternative<OkReply>(
      client.call(RegisterWlan{kWlan, floor})));

  const std::optional<WlanSnapshot> first = daemon.wlan_state(kWlan);
  ASSERT_TRUE(first.has_value());
  const sim::DeploymentSpec spec = sim::parse_deployment(floor);
  const net::ChannelPlan plan(spec.num_channels);
  core::WlanRuntime rt(spec.build(), plan, first->state, 0,
                       config.width_hysteresis);
  // The registration's channels are the per-WLAN seeded draw.
  const core::WlanRuntime fresh(spec.build(), plan, {},
                                spec.seed ^ (0x5eedull * (kWlan + 1)),
                                config.width_hysteresis);
  EXPECT_EQ(fresh.state().allocated, first->state.allocated);

  util::Rng rng(0xC0DE);
  std::uint64_t applied = 0;
  int epochs = 0;
  int rejected = 0;
  for (int i = 1; i <= 1200; ++i) {
    const Message msg = i % 40 == 0
                            ? Message{ForceReconfigure{kWlan}}
                            : random_event(rng, kWlan, kAps, kClients);
    const Message reply = client.call(msg);
    const std::optional<std::int32_t> want = apply_to_core(rt, msg);
    if (!want) {
      ++rejected;
      ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply))
          << "event " << i << ": the daemon accepted what core rejected";
      continue;
    }
    ++applied;
    ASSERT_TRUE(std::holds_alternative<OkReply>(reply))
        << "event " << i << ": the daemon rejected what core accepted";
    ASSERT_EQ(std::get<OkReply>(reply).value, *want) << "event " << i;
    if (std::holds_alternative<ForceReconfigure>(msg)) ++epochs;
    // Every accepted event, not only every epoch: a lost update can be
    // overwritten before the next epoch and leave no trace there.
    const std::optional<WlanSnapshot> got = daemon.wlan_state(kWlan);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(encode_snapshot(*got),
              encode_snapshot(WlanSnapshot{kWlan, applied, floor,
                                           rt.state()}))
        << "diverged at event " << i << ", epoch " << epochs;
  }
  EXPECT_EQ(epochs, 30);
  EXPECT_GT(rejected, 40);
  const Message cfg = client.call(QueryConfig{kWlan});
  ASSERT_TRUE(std::holds_alternative<ConfigReply>(cfg));
  EXPECT_EQ(std::get<ConfigReply>(cfg).total_goodput_bps, rt.goodput_bps());
  client.close();
  daemon.stop();
}

TEST(ServiceFleet, PooledTimerEpochsFire) {
  DaemonConfig config;
  config.unix_path = sock_path("timer", 2);
  config.epoch_s = 0.05;
  config.workers = 2;
  Daemon daemon(config);
  daemon.start();
  Client client = Client::connect_unix(config.unix_path);
  client.call(RegisterWlan{1, trace::synthetic_floor(2, 4, 3)});
  client.call(ClientJoin{1, 0});

  // The pool's timer wheel, not a dedicated shard thread, must drive
  // the periodic epoch.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t epochs = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const Message reply = client.call(QueryStats{});
    epochs = std::get<StatsReply>(reply).epochs_total;
    if (epochs >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(epochs, 2u);
  client.close();
  daemon.stop();
}

TEST(ServiceFleet, RemoveAndReregisterUnderPooledExecutor) {
  DaemonConfig config;
  config.unix_path = sock_path("remove", 2);
  config.epoch_s = 0.0;
  config.workers = 2;
  Daemon daemon(config);
  daemon.start();
  Client client = Client::connect_unix(config.unix_path);
  const std::string floor = trace::synthetic_floor(2, 4, 3);

  // Register/apply/remove cycles exercise the detach path (quiesce,
  // timer cancel) while other shards stay live on the same workers.
  client.call(RegisterWlan{7, floor});
  for (int round = 0; round < 5; ++round) {
    client.call(RegisterWlan{1, floor});
    client.call(ClientJoin{1, 0});
    client.call(SnrUpdate{1, 0, 0, 90.0});
    client.call(ForceReconfigure{1});
    client.call(RemoveWlan{1});
    client.call(ClientJoin{7, static_cast<std::uint32_t>(round % 4)});
  }
  const Message reply = client.call(QueryStats{});
  EXPECT_EQ(std::get<StatsReply>(reply).num_wlans, 1u);
  const auto state = daemon.wlan_state(7);
  ASSERT_TRUE(state.has_value());
  EXPECT_GT(state->events_applied, 0u);
  client.close();
  daemon.stop();
}

}  // namespace
}  // namespace acorn::service
