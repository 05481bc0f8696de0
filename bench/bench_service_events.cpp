// acornd protocol throughput: events per second through a live daemon.
//
// Part 1 (single WLAN): an in-process daemon listens on a Unix socket; a
// client pipelines batches of SNR/load update frames and drains the
// replies. The figure of merit is fully round-tripped protocol events
// per second — encode, socket, poll loop, shard mailbox, apply, reply —
// on one client connection, WAL off and on. The service is built to
// sustain >= 10k pipelined events/s; the run fails loudly if it cannot.
//
// Part 2 (fleet sweeps): N WLANs multiplexed over M pooled shard
// workers, driven by the deterministic trace/load_gen schedule (session
// joins/leaves from the association-duration model, SNR drift and load
// hints while sessions live). Each (fleet size, workers) cell reports
// aggregate events/s plus reconfiguration-epoch latency percentiles
// sampled across the fleet after the churn. Durable rows repeat the
// sweep with the WAL on and print how many events each coalesced
// fdatasync acknowledged — the fleet-wide group commit's reason to
// exist, asserted as a floor on the widest-worker row.
//
// Appends JSON lines to BENCH_service.json (ACORN_BENCH_JSON overrides
// the path), every row stamped with the recording hardware, so the
// service's perf trajectory is tracked across PRs and across machines.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "trace/load_gen.hpp"

using namespace acorn;
using namespace acorn::service;

namespace {

constexpr const char* kFloor = R"(# bench floor: 3 APs, 8 clients
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

constexpr std::uint32_t kWlan = 1;
constexpr int kBatch = 64;

// A serial durable round trip cannot beat the storage device: every
// event must be individually fdatasync'd before its reply. Measure the
// device's sync cost so the serial_roundtrip_wal floor can be compared
// against physics instead of a wishful constant.
double measure_device_sync_us() {
  char path[] = "/tmp/acorn_bench_syncprobe_XXXXXX";
  const int fd = ::mkstemp(path);
  if (fd < 0) return -1.0;
  ::unlink(path);
  const char byte = 'x';
  (void)::pwrite(fd, &byte, 1, 0);
  (void)::fdatasync(fd);  // warm-up
  constexpr int kIters = 64;
  const bench::Stopwatch clock;
  for (int i = 0; i < kIters; ++i) {
    (void)::pwrite(fd, &byte, 1, 0);
    (void)::fdatasync(fd);
  }
  const double us = 1e6 * clock.seconds() / kIters;
  ::close(fd);
  return us;
}

// Pipelined updates: up to 2*kBatch requests stay on the wire — a
// batch is drained only after the next one is sent, so the daemon's
// group commit for batch k overlaps with the arrival of batch k+1, as
// a real controller client batching measurement reports would behave.
double pump_events(Client& client, std::int64_t total, util::Rng& rng) {
  const bench::Stopwatch clock;
  std::int64_t sent = 0;
  std::int64_t recvd = 0;
  while (recvd < total) {
    const int n = static_cast<int>(
        std::min<std::int64_t>(kBatch, total - sent));
    for (int i = 0; i < n; ++i) {
      const std::uint32_t client_id =
          static_cast<std::uint32_t>(rng.uniform_int(0, 7));
      if (rng.uniform() < 0.5) {
        client.send(SnrUpdate{kWlan,
                              static_cast<std::uint32_t>(rng.uniform_int(0, 2)),
                              client_id, rng.uniform(70.0, 120.0)});
      } else {
        client.send(LoadUpdate{kWlan, client_id, rng.uniform()});
      }
    }
    sent += n;
    while (sent - recvd > kBatch || (sent == total && recvd < total)) {
      (void)client.recv();
      ++recvd;
    }
  }
  return clock.seconds();
}

// Serial request/reply round trips (no pipelining): per-event latency.
double pump_serial(Client& client, std::int64_t total, util::Rng& rng) {
  const bench::Stopwatch clock;
  for (std::int64_t i = 0; i < total; ++i) {
    client.call(SnrUpdate{kWlan, 0,
                          static_cast<std::uint32_t>(rng.uniform_int(0, 7)),
                          rng.uniform(70.0, 120.0)});
  }
  return clock.seconds();
}

struct PassResult {
  double pipe_eps = 0.0;
  double serial_eps = 0.0;
};

// One full measurement pass against a fresh daemon. When `state_dir`
// is non-empty the daemon journals every event to its write-ahead log
// and withholds replies until fsync, so the WAL rows measure true
// durable throughput, not buffered writes.
PassResult run_pass(const bench::BenchOptions& opts,
                    const std::string& state_dir, const char* suffix,
                    const std::string& serial_extra) {
  DaemonConfig config;
  config.unix_path =
      "/tmp/acorn_bench_" + std::to_string(::getpid()) + suffix + ".sock";
  config.epoch_s = 0.0;  // epochs on demand; the bench times raw events
  config.state_dir = state_dir;
  Daemon daemon(config);
  daemon.start();

  Client client = Client::connect_unix(config.unix_path);
  client.call(RegisterWlan{kWlan, kFloor});
  for (std::uint32_t c = 0; c < 8; ++c) {
    client.call(ClientJoin{kWlan, c});
  }
  client.call(ForceReconfigure{kWlan});

  util::Rng rng(bench::kDefaultSeed);
  const std::int64_t pipelined_n = opts.smoke ? 5000 : 200000;
  const std::int64_t serial_n = opts.smoke ? 1000 : 20000;
  const bool wal = !state_dir.empty();
  const char* tag = wal ? " [wal]" : "";

  // Warm up the path (allocators, shard caches) before timing.
  (void)pump_events(client, 1000, rng);

  const double pipe_s = pump_events(client, pipelined_n, rng);
  PassResult out;
  out.pipe_eps = static_cast<double>(pipelined_n) / pipe_s;
  std::printf(
      "pipelined (batch %d)%s: %lld events in %.3f s -> %.0f events/s\n",
      kBatch, tag, static_cast<long long>(pipelined_n), pipe_s,
      out.pipe_eps);
  bench::emit_events("service_events",
                     wal ? "pipelined_updates_wal" : "pipelined_updates",
                     pipe_s, pipelined_n);

  const double serial_s = pump_serial(client, serial_n, rng);
  out.serial_eps = static_cast<double>(serial_n) / serial_s;
  std::printf("serial round trips%s: %lld events in %.3f s -> %.0f events/s "
              "(%.1f us/event)\n",
              tag, static_cast<long long>(serial_n), serial_s,
              out.serial_eps,
              1e6 * serial_s / static_cast<double>(serial_n));
  bench::emit_events("service_events",
                     wal ? "serial_roundtrip_wal" : "serial_roundtrip",
                     serial_s, serial_n, nullptr, serial_extra);

  // One reconfiguration epoch after the event storm, for scale.
  const bench::Stopwatch epoch_clock;
  client.call(ForceReconfigure{kWlan});
  std::printf("reconfiguration epoch after the storm%s: %.2f ms\n", tag,
              1e3 * epoch_clock.seconds());

  const Message stats = client.call(QueryStats{});
  const auto& st = std::get<StatsReply>(stats);
  std::printf("daemon counters%s: %llu frames, %llu events, %llu epochs, "
              "%llu wal records / %llu flushes\n",
              tag, static_cast<unsigned long long>(st.frames_rx),
              static_cast<unsigned long long>(st.events_total),
              static_cast<unsigned long long>(st.epochs_total),
              static_cast<unsigned long long>(st.wal_records),
              static_cast<unsigned long long>(st.wal_flushes));

  client.close();
  daemon.stop();
  return out;
}

struct FleetOutcome {
  double events_per_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// Durable rows: logged events per fdatasync (0 when the WAL is off).
  double events_per_sync = 0.0;
};

// One fleet cell: `num_wlans` shards over `workers` pooled workers,
// trace-driven churn on one pipelined connection, then epoch latency
// sampled via timed ForceReconfigure round trips across the fleet.
// A non-empty `state_dir` turns durability on: every reply is withheld
// until its record is fsynced, so these rows measure durable fleet
// throughput.
FleetOutcome run_fleet(int num_wlans, int workers,
                       std::int64_t target_events,
                       const std::string& state_dir = std::string(),
                       const std::string& extra_json = std::string()) {
  DaemonConfig config;
  config.unix_path = "/tmp/acorn_bench_fleet_" + std::to_string(::getpid()) +
                     "_" + std::to_string(num_wlans) + "_" +
                     std::to_string(workers) + ".sock";
  config.epoch_s = 0.0;  // epochs sampled explicitly below
  config.workers = workers;
  config.state_dir = state_dir;
  Daemon daemon(config);
  daemon.start();
  Client client = Client::connect_unix(config.unix_path);

  // Register the fleet, pipelined; every WLAN shares the same floor
  // text (deployment parsing is cheap and the RateTable is shared).
  const std::string floor = trace::synthetic_floor(3, 8, 7);
  {
    int sent = 0;
    int recvd = 0;
    while (recvd < num_wlans) {
      while (sent < num_wlans && sent - recvd < kBatch) {
        client.send(
            RegisterWlan{static_cast<std::uint32_t>(1 + sent), floor});
        ++sent;
      }
      (void)client.recv();
      ++recvd;
    }
  }

  // Trace-driven churn, scaled to the target event count: generate a
  // pilot schedule, stretch the horizon to cover the target, truncate
  // the overshoot. Deterministic in (fleet size, seed).
  trace::FleetLoadConfig lc;
  lc.num_wlans = static_cast<std::uint32_t>(num_wlans);
  lc.clients_per_wlan = 8;
  lc.aps_per_wlan = 3;
  lc.seed = bench::kDefaultSeed;
  lc.duration_scale = 0.1;  // ~3 min sessions: visible churn at bench scale
  lc.horizon_s = 600.0;
  std::vector<trace::LoadEvent> events = trace::generate_fleet_load(lc);
  if (static_cast<std::int64_t>(events.size()) < target_events) {
    lc.horizon_s *= 1.2 * static_cast<double>(target_events) /
                    static_cast<double>(std::max<std::size_t>(
                        1, events.size()));
    events = trace::generate_fleet_load(lc);
  }
  if (static_cast<std::int64_t>(events.size()) > target_events) {
    events.resize(static_cast<std::size_t>(target_events));
  }

  const bench::Stopwatch clock;
  std::size_t sent = 0;
  std::size_t recvd = 0;
  while (recvd < events.size()) {
    while (sent < events.size() && sent - recvd < 2 * kBatch) {
      const trace::LoadEvent& e = events[sent];
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
    }
    (void)client.recv();
    ++recvd;
  }
  FleetOutcome out;
  const double churn_s = clock.seconds();
  out.events_per_s = static_cast<double>(events.size()) / churn_s;

  // Epoch latency across the fleet: timed serial ForceReconfigure round
  // trips on an even sample of WLANs (64 caps the sampling cost).
  std::vector<double> epoch_ms;
  const int stride = std::max(1, num_wlans / 64);
  for (int w = 0; w < num_wlans; w += stride) {
    const bench::Stopwatch t;
    (void)client.call(ForceReconfigure{static_cast<std::uint32_t>(1 + w)});
    epoch_ms.push_back(1e3 * t.seconds());
  }
  std::sort(epoch_ms.begin(), epoch_ms.end());
  const auto pct = [&epoch_ms](double p) {
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(epoch_ms.size()));
    return epoch_ms[std::min(epoch_ms.size() - 1, i)];
  };
  out.p50_ms = pct(0.50);
  out.p95_ms = pct(0.95);
  out.p99_ms = pct(0.99);

  const bool wal = !state_dir.empty();
  const char* tag = wal ? " [wal]" : "";
  std::printf("fleet %5d wlans x %d workers%s: %7zu events in %.3f s -> "
              "%8.0f events/s | epoch p50/p95/p99 %.2f/%.2f/%.2f ms\n",
              num_wlans, workers, tag, events.size(), churn_s,
              out.events_per_s, out.p50_ms, out.p95_ms, out.p99_ms);
  if (wal) {
    // The coalescing the group commit exists for, straight from the
    // daemon: how many records each fdatasync acknowledged.
    const Message stats = client.call(QueryStats{});
    const auto& st = std::get<StatsReply>(stats);
    if (st.wal_syncs > 0) {
      out.events_per_sync = static_cast<double>(st.wal_coalesced_events) /
                            static_cast<double>(st.wal_syncs);
    }
    std::printf("    wal: %llu syncs for %llu records -> %.1f events per "
                "fdatasync\n",
                static_cast<unsigned long long>(st.wal_syncs),
                static_cast<unsigned long long>(st.wal_coalesced_events),
                out.events_per_sync);
  }
  char extra[192];
  std::snprintf(extra, sizeof(extra),
                ",\"wlans\":%d,\"workers\":%d,\"epoch_p50_ms\":%.3f,"
                "\"epoch_p95_ms\":%.3f,\"epoch_p99_ms\":%.3f",
                num_wlans, workers, out.p50_ms, out.p95_ms, out.p99_ms);
  bench::emit_events("service_fleet",
                     "fleet_" + std::to_string(num_wlans) + "_w" +
                         std::to_string(workers) + (wal ? "_wal" : ""),
                     churn_s, static_cast<std::int64_t>(events.size()),
                     nullptr, std::string(extra) + extra_json);

  client.close();
  daemon.stop();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_options(argc, argv);
  bench::banner("acornd protocol event throughput",
                "online controller sustains >= 10k events/s per connection");
  const int hw = std::max(1, static_cast<int>(
                                 std::thread::hardware_concurrency()));
  const double sync_us = measure_device_sync_us();
  std::printf("device fdatasync: %.1f us (-> <= %.0f serial durable "
              "round trips/s on this disk)\n",
              sync_us, sync_us > 0.0 ? 1e6 / sync_us : 0.0);

  const PassResult plain = run_pass(opts, "", "", "");
  char serial_extra[64];
  std::snprintf(serial_extra, sizeof(serial_extra),
                ",\"device_sync_us\":%.1f", sync_us);
  char wal_dir[] = "/tmp/acorn_bench_wal_XXXXXX";
  if (::mkdtemp(wal_dir) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const PassResult durable = run_pass(opts, wal_dir, "_wal", serial_extra);
  std::string cleanup = std::string("rm -rf '") + wal_dir + "'";
  [[maybe_unused]] int rc = std::system(cleanup.c_str());

  // Fleet sweeps: WLANs x pooled shard workers.
  std::printf("\nfleet sweeps (trace-driven churn, pooled executor):\n");
  std::vector<int> fleets =
      opts.smoke ? std::vector<int>{16, 64}
                 : std::vector<int>{16, 256, 2048, 8192};
  std::vector<int> worker_counts{1, 4, hw};
  std::sort(worker_counts.begin(), worker_counts.end());
  worker_counts.erase(
      std::unique(worker_counts.begin(), worker_counts.end()),
      worker_counts.end());
  if (opts.smoke && worker_counts.size() > 2) worker_counts.resize(2);
  const std::int64_t fleet_target = opts.smoke ? 2000 : 100000;
  double w1_big = 0.0;
  double w4_big = 0.0;
  for (const int n : fleets) {
    for (const int m : worker_counts) {
      const FleetOutcome fo = run_fleet(n, m, fleet_target);
      if (n == 2048 && m == 1) w1_big = fo.events_per_s;
      if (n == 2048 && m == 4) w4_big = fo.events_per_s;
    }
  }

  // Durable fleet sweeps: the same churn with every reply withheld
  // until fsync. The row at the compare fleet on the widest worker
  // count carries the events-per-fdatasync floor.
  std::printf("\ndurable fleet sweeps (WAL on, group commit):\n");
  const std::vector<int> durable_fleets =
      opts.smoke ? std::vector<int>{16, 64} : std::vector<int>{16, 256, 2048};
  const std::int64_t durable_target = opts.smoke ? 2000 : 50000;
  const int compare_fleet = opts.smoke ? 16 : 256;
  double compare_events_per_sync = -1.0;  // -1: row never ran
  for (const int n : durable_fleets) {
    for (const int m : worker_counts) {
      char dir[] = "/tmp/acorn_bench_dfleet_XXXXXX";
      if (::mkdtemp(dir) == nullptr) continue;
      const FleetOutcome fo =
          run_fleet(n, m, durable_target, dir, serial_extra);
      if (n == compare_fleet && m == worker_counts.back()) {
        compare_events_per_sync = fo.events_per_sync;
      }
      cleanup = std::string("rm -rf '") + dir + "'";
      rc = std::system(cleanup.c_str());
    }
  }

  bool ok = true;
  if (plain.pipe_eps < 10000.0) {
    std::fprintf(stderr,
                 "FAIL: pipelined throughput %.0f events/s below the 10k "
                 "floor\n",
                 plain.pipe_eps);
    ok = false;
  }
  if (durable.pipe_eps < 10000.0) {
    std::fprintf(stderr,
                 "FAIL: WAL-on pipelined throughput %.0f events/s below the "
                 "10k floor\n",
                 durable.pipe_eps);
    ok = false;
  }
  // Serial durable round trips are device-bound (one fdatasync each):
  // the 20k floor only applies where the disk can physically reach it.
  if (sync_us > 0.0 && sync_us <= 40.0) {
    if (durable.serial_eps < 20000.0) {
      std::fprintf(stderr,
                   "FAIL: serial WAL round trips %.0f events/s below the "
                   "20k floor (device sync %.1f us)\n",
                   durable.serial_eps, sync_us);
      ok = false;
    }
  } else {
    std::printf("serial WAL floor relaxed: device fdatasync is %.1f us "
                "(ceiling %.0f events/s); recorded, not enforced\n",
                sync_us, sync_us > 0.0 ? 1e6 / sync_us : 0.0);
  }
  // Pooled scaling floor: 4 workers must at least double the 1-worker
  // aggregate on real multi-core hardware. On fewer than 4 hardware
  // threads the sweep still runs (determinism-only, per the repo's
  // 1-core convention) but the ratio is not enforced.
  if (!opts.smoke && hw >= 4 && w1_big > 0.0 && w4_big > 0.0) {
    if (w4_big < 2.0 * w1_big) {
      std::fprintf(stderr,
                   "FAIL: 2048-WLAN fleet at 4 workers (%.0f events/s) is "
                   "not 2x the 1-worker row (%.0f events/s)\n",
                   w4_big, w1_big);
      ok = false;
    }
  } else if (!opts.smoke && hw < 4) {
    std::printf("fleet scaling floor relaxed: %d hardware thread(s) — "
                "rows record determinism, not parallel speedup\n",
                hw);
  }
  // Group-commit coalescing floor: with many durable WLANs pipelining
  // over several workers, one fdatasync must acknowledge a batch of
  // records from many shards, not one shard's handful. A log file per
  // WLAN managed 1.6 events per sync on this row; the shared segments
  // reach 20-30 on a 4-thread VM.
  if (compare_events_per_sync < 5.0) {
    std::fprintf(stderr,
                 "FAIL: durable fleet at %d WLANs x %d workers acknowledged "
                 "%.1f events per fdatasync, below the floor of 5\n",
                 compare_fleet, worker_counts.back(),
                 compare_events_per_sync);
    ok = false;
  }
  if (!ok) return 1;
  std::printf("throughput floors met\n");
  return 0;
}
