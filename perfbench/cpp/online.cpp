// The online workloads: an in-process acornd (service::Daemon) driven
// over one Unix connection by a closed loop that keeps up to 128
// requests in flight, as an AP controller pipelining reports would.
//
//   wlan_durable  one WLAN, shared WAL on tmpfs, SNR/load updates only
//   fleet_churn   256 WLANs on 2 pooled workers, trace-driven churn plus
//                 a forced epoch and a config query per 50 events
//
// A round generates its inputs from --seed first; then it starts a daemon,
// sets it up (counted in setup_s, warm-up slice included), times the
// round's requests and checks what came back.
#include <sched.h>
#include <sys/mount.h>
#include <sys/stat.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "common.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/eventlog.hpp"
#include "service/snapshot.hpp"
#include "service/wire.hpp"
#include "trace/load_gen.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace acorn;
using namespace acorn::service;

constexpr std::size_t kWindow = 128;
constexpr long kTmpfsMagic = 0x01021994;

// The 3-AP/8-client floor of bench_service_events.
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

enum class Op : std::uint8_t { kJoin, kLeave, kSnr, kLoad, kForce, kQuery };

// One generated request, kept compact (the wire Message variant is
// several times larger) so the inputs of a round stay a small share of
// the process's memory.
struct Request {
  Op op = Op::kSnr;
  std::uint32_t wlan = 0;
  std::uint32_t client = 0;
  std::uint32_t ap = 0;
  /// kSnr: loss_db; kLoad: offered load.
  double value = 0.0;
  /// kQuery: events the WLAN must report as applied.
  std::uint64_t expect_applied = 0;

  Message message() const {
    switch (op) {
      case Op::kJoin:
        return ClientJoin{wlan, client};
      case Op::kLeave:
        return ClientLeave{wlan, client};
      case Op::kSnr:
        return SnrUpdate{wlan, ap, client, value};
      case Op::kLoad:
        return LoadUpdate{wlan, client, value};
      case Op::kForce:
        return ForceReconfigure{wlan};
      case Op::kQuery:
        return QueryConfig{wlan};
    }
    return QueryStats{};
  }
};

struct PumpResult {
  std::int64_t requests = 0;
  std::int64_t error_replies = 0;
  std::int64_t daemon_cpu_ns = 0;
  /// Time from the first send to each reply, in arrival order.
  std::vector<Stamp> done;
  /// CPU-clock latency of each request, in send order.
  std::vector<double> lat_us;
  std::vector<double> epoch_us;
};

std::string g_state_root;  // absolute tmpfs directory for wlan_durable

bool is_tmpfs(const std::string& dir) {
  struct statfs st{};
  return ::statfs(dir.c_str(), &st) == 0 &&
         static_cast<long>(st.f_type) == kTmpfsMagic;
}

// Mount a tmpfs on `dir` inside a private mount namespace, so the mount
// is seen by this process alone and disappears with it, and the state
// stays inside the benchmark's own directory. Needs CAP_SYS_ADMIN; must
// run before the process starts any thread.
bool mount_private_tmpfs(const std::string& dir) {
  return ::unshare(CLONE_NEWNS) == 0 &&
         ::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) == 0 &&
         ::mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                 "size=2g,mode=0700") == 0;
}

// The durable workload measures the program, not the disk: its WAL must
// live on tmpfs, where fdatasync costs about half a microsecond.
void prepare_state_root(const std::string& state_root) {
  std::string dir = state_root;
  if (dir.empty()) {
    dir = "tmpfs";
    ::mkdir(dir.c_str(), 0700);
    char buf[PATH_MAX];
    if (::realpath(dir.c_str(), buf) == nullptr) {
      throw std::runtime_error("cannot resolve state directory " + dir);
    }
    dir = buf;
    if (!is_tmpfs(dir) && !mount_private_tmpfs(dir)) {
      throw std::runtime_error(
          "refusing to run wlan_durable: cannot mount a private tmpfs on " +
          dir + " (" + std::strerror(errno) + ")");
    }
  }
  if (!is_tmpfs(dir)) {
    throw std::runtime_error("refusing to run wlan_durable: " + dir +
                             " is not on tmpfs");
  }
  g_state_root = dir;
}

// Closed-loop pipelined sender: keeps up to kWindow requests in flight
// and checks every reply (one per request, carrying its own seq, in send
// order per WLAN, of the expected type). The requests form Timing::kParts
// parts, and a part's first request goes out only once every reply of the
// part before has come back, so a part's time is its own requests' work.
PumpResult pump(Client& client, const std::vector<Request>& reqs,
                std::size_t begin, std::size_t end, Tracer* tracer,
                Report& report) {
  const int send_span = tracer ? tracer->name_id("service.client.send") : 0;
  const int wait_span = tracer ? tracer->name_id("service.client.wait") : 0;
  const std::size_t n = end - begin;
  PumpResult out;
  out.requests = static_cast<std::int64_t>(n);
  out.lat_us.assign(n, 0.0);
  out.done.reserve(n);
  std::vector<std::int64_t> c_send(n);
  std::vector<std::uint8_t> done(n, 0);
  std::vector<std::int64_t> last_idx;
  for (std::size_t i = begin; i < end; ++i) {
    if (reqs[i].wlan >= last_idx.size()) last_idx.resize(reqs[i].wlan + 1, -1);
  }

  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t th0 = thread_cpu_ns();
  const std::int64_t w0 = now_ns();
  // The CPU clock costs a system call, so it is read once per reply and
  // stands for the sends that follow it as well.
  std::int64_t c_now = cpu0;
  std::uint32_t seq0 = 0;
  std::size_t sent = 0;
  std::size_t recvd = 0;
  const std::size_t parts = std::min(Timing::kParts, n);
  std::size_t part = 0;
  while (recvd < n) {
    if (recvd == (part + 1) * n / parts) ++part;
    const std::size_t part_end = (part + 1) * n / parts;
    while (sent < part_end && sent - recvd < kWindow) {
      c_send[sent] = c_now;
      std::uint32_t seq = 0;
      {
        const ScopedSpan span(tracer, send_span,
                              static_cast<std::uint32_t>(sent));
        seq = client.send(reqs[begin + sent].message());
      }
      if (sent == 0) seq0 = seq;
      ++sent;
    }
    Frame frame;
    {
      const ScopedSpan span(tracer, wait_span,
                            static_cast<std::uint32_t>(recvd));
      frame = client.recv();
    }
    c_now = process_cpu_ns();
    out.done.push_back(Stamp{now_ns() - w0, c_now - cpu0});
    ++recvd;
    const std::size_t idx = static_cast<std::uint32_t>(frame.seq - seq0);
    if (idx >= sent || done[idx] != 0) {
      report.fail("reply with unexpected seq " + std::to_string(frame.seq));
      continue;
    }
    done[idx] = 1;
    const Request& rq = reqs[begin + idx];
    const double us = static_cast<double>(c_now - c_send[idx]) / 1e3;
    out.lat_us[idx] = us;
    if (last_idx[rq.wlan] >= static_cast<std::int64_t>(idx)) {
      report.fail("out-of-order reply for wlan " + std::to_string(rq.wlan));
    }
    last_idx[rq.wlan] = static_cast<std::int64_t>(idx);
    if (const auto* err = std::get_if<ErrorReply>(&frame.msg)) {
      ++out.error_replies;
      report.fail("error reply " + std::to_string(err->code) + ": " +
                  err->text);
    } else if (rq.op == Op::kQuery) {
      const auto* cfg = std::get_if<ConfigReply>(&frame.msg);
      if (cfg == nullptr || cfg->wlan_id != rq.wlan ||
          cfg->events_applied != rq.expect_applied) {
        report.fail("config reply for wlan " + std::to_string(rq.wlan) +
                    " does not match the events sent to it");
      }
    } else if (!std::holds_alternative<OkReply>(frame.msg)) {
      report.fail("unexpected reply type for seq " +
                  std::to_string(frame.seq));
    }
    if (rq.op == Op::kForce) out.epoch_us.push_back(us);
  }
  out.daemon_cpu_ns =
      (process_cpu_ns() - cpu0) - (thread_cpu_ns() - th0);
  for (std::size_t i = 0; i < n; ++i) {
    if (done[i] == 0) report.fail("request without a reply");
  }
  return out;
}

// Counters the daemon reports, as deltas over the timed section.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t epochs = 0;
  std::uint64_t alloc_evaluations = 0;
  std::uint64_t decisions = 0;
  std::uint64_t cell_evals = 0;
  std::uint64_t cell_hits = 0;
  std::uint64_t share_evals = 0;
  std::uint64_t share_hits = 0;
  std::uint64_t wal_syncs = 0;
  std::uint64_t wal_coalesced = 0;

  static Counters of(const StatsReply& s) {
    Counters c;
    c.events = s.events_total;
    c.protocol_errors = s.protocol_errors;
    c.epochs = s.epochs_total;
    c.alloc_evaluations = s.alloc_evaluations;
    c.decisions = s.channel_switches + s.width_switches + s.assoc_changes;
    c.cell_evals = s.oracle_cell_evals;
    c.cell_hits = s.oracle_cell_hits;
    c.share_evals = s.oracle_share_evals;
    c.share_hits = s.oracle_share_hits;
    c.wal_syncs = s.wal_syncs;
    c.wal_coalesced = s.wal_coalesced_events;
    return c;
  }
  Counters& operator+=(const Counters& o) {
    events += o.events;
    protocol_errors += o.protocol_errors;
    epochs += o.epochs;
    alloc_evaluations += o.alloc_evaluations;
    decisions += o.decisions;
    cell_evals += o.cell_evals;
    cell_hits += o.cell_hits;
    share_evals += o.share_evals;
    share_hits += o.share_hits;
    wal_syncs += o.wal_syncs;
    wal_coalesced += o.wal_coalesced;
    return *this;
  }
  Counters operator-(const Counters& o) const {
    Counters c = *this;
    c.events -= o.events;
    c.protocol_errors -= o.protocol_errors;
    c.epochs -= o.epochs;
    c.alloc_evaluations -= o.alloc_evaluations;
    c.decisions -= o.decisions;
    c.cell_evals -= o.cell_evals;
    c.cell_hits -= o.cell_hits;
    c.share_evals -= o.share_evals;
    c.share_hits -= o.share_hits;
    c.wal_syncs -= o.wal_syncs;
    c.wal_coalesced -= o.wal_coalesced;
    return c;
  }
};

// One timed pass over a round's inputs (untraced, or traced on the same
// inputs).
struct Pass {
  Timing timing;
  std::int64_t requests = 0;
  std::int64_t daemon_cpu_ns = 0;
  std::vector<double> epoch_us;
  Counters counters;
  std::int64_t error_replies = 0;

  void set(PumpResult&& p) {
    requests = p.requests;
    error_replies = p.error_replies;
    daemon_cpu_ns = p.daemon_cpu_ns;
    epoch_us = std::move(p.epoch_us);
    timing.set_parts(p.done, 1);
    timing.item_us = std::move(p.lat_us);
  }
};

void register_fleet(Client& client, std::uint32_t num_wlans,
                    const std::string& floor, Report& report) {
  std::uint32_t sent = 0;
  std::uint32_t recvd = 0;
  while (recvd < num_wlans) {
    while (sent < num_wlans && sent - recvd < kWindow) {
      client.send(RegisterWlan{1 + sent, floor});
      ++sent;
    }
    const Frame f = client.recv();
    ++recvd;
    if (!std::holds_alternative<OkReply>(f.msg)) {
      report.fail("RegisterWlan was refused");
    }
  }
}

void expect_ok(const Message& reply, const char* what, Report& report) {
  if (!std::holds_alternative<OkReply>(reply)) {
    report.fail(std::string(what) + " was refused");
  }
}

// ---- wlan_durable --------------------------------------------------------

constexpr std::size_t kDurableWarmup = 4096;
constexpr double kDurableRate = 200'000.0;  // requests per second of --seconds

std::vector<Request> durable_updates(std::uint64_t seed, std::size_t n) {
  util::Rng rng = util::Rng::derive_stream(seed, 0);
  std::vector<Request> reqs(n);
  for (Request& rq : reqs) {
    rq.wlan = 1;
    rq.client = static_cast<std::uint32_t>(rng.uniform_int(0, 7));
    if (rng.uniform() < 0.5) {
      rq.op = Op::kSnr;
      rq.ap = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
      rq.value = rng.uniform(70.0, 120.0);
    } else {
      rq.op = Op::kLoad;
      rq.value = rng.uniform();
    }
  }
  return reqs;
}

DaemonConfig durable_config(const std::string& dir, const std::string& sock) {
  DaemonConfig cfg;
  cfg.state_dir = dir;
  cfg.unix_path = sock;
  cfg.epoch_s = 0.0;
  cfg.workers = 1;
  cfg.wal_mode = WalMode::kShared;
  return cfg;
}

// Copy the state dir as a crash would leave it and recover the copy in a
// second daemon: its state must byte-equal the live daemon's.
void crash_image_check(const Daemon& live, const std::string& dir,
                       Report& report) {
  const std::string image = dir + "-image";
  fs::remove_all(image);
  fs::copy(dir, image, fs::copy_options::recursive);
  DaemonConfig cfg = durable_config(image, "");
  Daemon recovered(cfg);
  recovered.start();
  const auto got = recovered.wlan_state(1);
  const auto want = live.wlan_state(1);
  if (!got || !want || encode_snapshot(*got) != encode_snapshot(*want)) {
    report.fail("crash image: recovered state differs from the live daemon");
  }
  recovered.stop();
  fs::remove_all(image);
}

std::uint64_t snapshot_hash(const WlanSnapshot& snap) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  return fnv1a(bytes.data(), bytes.size());
}

struct LayerReplay {
  double wire_encode_ns = 0.0;
  double wire_decode_ns = 0.0;
  double wal_encode_ns = 0.0;
  double snapshot_write_us = 0.0;
};

// The wire codec replayed alone over the round's own request frames.
LayerReplay replay_wire(const std::vector<Request>& reqs, std::size_t begin) {
  LayerReplay out;
  const std::size_t n = reqs.size() - begin;
  std::vector<std::vector<std::uint8_t>> frames(n);
  std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    frames[i] = encode_frame(static_cast<std::uint32_t>(i + 1),
                             reqs[begin + i].message());
  }
  out.wire_encode_ns = static_cast<double>(now_ns() - t0) / n;

  FrameBuffer buf;
  std::size_t decoded = 0;
  t0 = now_ns();
  for (const auto& f : frames) {
    buf.append(f.data(), f.size());
    if (buf.next().has_value()) ++decoded;
  }
  out.wire_decode_ns = static_cast<double>(now_ns() - t0) / n;
  if (decoded != n) throw std::runtime_error("frame replay lost frames");
  return out;
}

// The WAL record codec replayed over the journaled events, and one
// snapshot write of the final state into the tmpfs dir.
void replay_journal(const std::vector<Request>& reqs, std::size_t begin,
                    const WlanSnapshot& state, const std::string& dir,
                    LayerReplay& out) {
  const std::size_t n = reqs.size() - begin;
  std::vector<std::vector<std::uint8_t>> payloads(n);
  for (std::size_t i = 0; i < n; ++i) {
    payloads[i] = encode_payload(static_cast<std::uint32_t>(i + 1),
                                 reqs[begin + i].message());
  }
  std::size_t bytes = 0;
  std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    bytes += encode_segment_record(1, i + 1, payloads[i]).size();
  }
  out.wal_encode_ns = static_cast<double>(now_ns() - t0) / n;
  if (bytes == 0) throw std::runtime_error("empty WAL replay");

  const std::string snap_dir = dir + "-snap";
  fs::create_directories(snap_dir);
  t0 = now_ns();
  const bool ok = write_snapshot(snap_dir, state);
  out.snapshot_write_us = static_cast<double>(now_ns() - t0) / 1e3;
  fs::remove_all(snap_dir);
  if (!ok) throw std::runtime_error("write_snapshot failed on tmpfs");
}

// One daemon over the round's requests; `tag` names its state dir and
// socket. The set-up time goes to `pass.timing.setup_s`.
void durable_round(const std::vector<Request>& reqs, const std::string& tag,
                   Tracer* tracer, Pass& pass, LayerReplay* layers,
                   Report& report) {
  const std::string dir = g_state_root + "/" + tag;
  const std::string sock = "wd_" + tag + ".sock";
  fs::remove_all(dir);
  const Stamp t0 = Stamp::now();
  Daemon daemon(durable_config(dir, sock));
  daemon.start();
  Client client = Client::connect_unix(sock);
  client.set_recv_timeout_ms(30'000);
  expect_ok(client.call(RegisterWlan{1, kFloor}), "RegisterWlan", report);
  for (std::uint32_t c = 0; c < 8; ++c) {
    expect_ok(client.call(ClientJoin{1, c}), "ClientJoin", report);
  }
  expect_ok(client.call(ForceReconfigure{1}), "ForceReconfigure", report);
  (void)pump(client, reqs, 0, kDurableWarmup, nullptr, report);
  pass.timing.set_setup(t0);

  const Counters before = Counters::of(daemon.stats());
  pass.set(pump(client, reqs, kDurableWarmup, reqs.size(), tracer, report));
  pass.counters = Counters::of(daemon.stats()) - before;

  crash_image_check(daemon, dir, report);
  if (layers != nullptr) {
    const auto state = daemon.wlan_state(1);
    if (!state) throw std::runtime_error("live daemon lost its WLAN");
    *layers = replay_wire(reqs, kDurableWarmup);
    replay_journal(reqs, kDurableWarmup, *state, dir, *layers);
  }
  client.close();
  daemon.stop();
  fs::remove_all(dir);
}

// ---- fleet_churn ---------------------------------------------------------

constexpr std::uint32_t kFleetWlans = 256;
constexpr int kFleetWorkers = 2;
constexpr std::size_t kFleetWarmup = 2048;
constexpr double kFleetRate = 20'000.0;  // requests per second of --seconds
constexpr std::size_t kOpsPerEpoch = 50;

// Trace-driven churn for `num_wlans` WLANs, with one ForceReconfigure and
// one QueryConfig after every kOpsPerEpoch churn events (round-robin over
// the fleet), annotated with what each config query must report.
std::vector<Request> fleet_requests(std::uint64_t seed, std::uint32_t num_wlans,
                                    std::size_t churn_events) {
  trace::FleetLoadConfig lc;
  lc.num_wlans = num_wlans;
  lc.clients_per_wlan = 8;
  lc.aps_per_wlan = 3;
  lc.seed = seed;
  lc.duration_scale = 0.1;
  lc.horizon_s = 600.0;
  std::vector<trace::LoadEvent> events = trace::generate_fleet_load(lc);
  while (events.size() < churn_events) {
    const auto have = std::max<std::size_t>(1, events.size());
    lc.horizon_s *= 1.2 * static_cast<double>(churn_events) /
                    static_cast<double>(have);
    events = trace::generate_fleet_load(lc);
  }
  events.resize(churn_events);

  std::vector<Request> reqs;
  reqs.reserve(churn_events + 2 * (churn_events / kOpsPerEpoch) + 2);
  std::vector<std::uint64_t> applied(num_wlans + 1, 0);
  std::uint32_t next_epoch_wlan = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const trace::LoadEvent& e = events[i];
    Request rq;
    rq.wlan = e.wlan_id;
    rq.client = e.client;
    rq.ap = e.ap;
    rq.value = e.value;
    switch (e.kind) {
      case trace::LoadEventKind::kJoin:
        rq.op = Op::kJoin;
        break;
      case trace::LoadEventKind::kLeave:
        rq.op = Op::kLeave;
        break;
      case trace::LoadEventKind::kSnr:
        rq.op = Op::kSnr;
        break;
      case trace::LoadEventKind::kLoad:
        rq.op = Op::kLoad;
        break;
    }
    ++applied[e.wlan_id];
    reqs.push_back(rq);
    if ((i + 1) % kOpsPerEpoch == 0) {
      const std::uint32_t w = 1 + next_epoch_wlan;
      next_epoch_wlan = (next_epoch_wlan + 1) % num_wlans;
      Request force;
      force.op = Op::kForce;
      force.wlan = w;
      ++applied[w];
      reqs.push_back(force);
      Request query;
      query.op = Op::kQuery;
      query.wlan = w;
      query.expect_applied = applied[w];
      reqs.push_back(query);
    }
  }
  return reqs;
}

DaemonConfig fleet_config(const std::string& sock) {
  DaemonConfig cfg;
  cfg.unix_path = sock;
  cfg.epoch_s = 0.0;
  cfg.workers = kFleetWorkers;
  return cfg;
}

void fleet_round(const std::vector<Request>& reqs, const std::string& floor,
                 std::uint32_t num_wlans, std::size_t warmup,
                 const std::string& tag, Tracer* tracer, Pass& pass,
                 Report& report,
                 std::vector<std::uint64_t>* state_hashes = nullptr) {
  const std::string sock = "fc_" + tag + ".sock";
  const Stamp t0 = Stamp::now();
  Daemon daemon(fleet_config(sock));
  daemon.start();
  Client client = Client::connect_unix(sock);
  client.set_recv_timeout_ms(30'000);
  register_fleet(client, num_wlans, floor, report);
  (void)pump(client, reqs, 0, warmup, nullptr, report);
  pass.timing.set_setup(t0);

  const Counters before = Counters::of(daemon.stats());
  pass.set(pump(client, reqs, warmup, reqs.size(), tracer, report));
  pass.counters = Counters::of(daemon.stats()) - before;
  if (state_hashes != nullptr) {
    for (std::uint32_t w = 1; w <= num_wlans; ++w) {
      const auto state = daemon.wlan_state(w);
      state_hashes->push_back(state ? snapshot_hash(*state) : 0);
    }
  }
  client.close();
  daemon.stop();
}

// ---- shared reporting ----------------------------------------------------

void fill_online_info(Report& r, const Pass& p) {
  set_metric(r.info, "service.daemon.cpu_us",
             static_cast<double>(p.daemon_cpu_ns) / 1e3 /
                 static_cast<double>(p.requests),
             "us", p.requests);
}

void fill_online_layers(Report& r, const Pass& untraced, const Pass& traced,
                        const Tracer& tracer, const LayerReplay& replay) {
  const double n = static_cast<double>(traced.requests);
  const double send_us =
      static_cast<double>(tracer.total_ns("service.client.send")) / 1e3 / n;
  const double wait_us =
      static_cast<double>(tracer.total_ns("service.client.wait")) / 1e3 / n;
  const double wall_us = static_cast<double>(traced.timing.wall_ns()) / 1e3 / n;
  const auto samples = traced.requests;
  set_metric(r.layers, "service.client.send_us", send_us, "us", samples);
  set_metric(r.layers, "service.client.wait_us", wait_us, "us", samples);
  set_metric(r.layers, "service.daemon.cpu_us",
             static_cast<double>(traced.daemon_cpu_ns) / 1e3 / n, "us",
             samples);
  set_metric(r.layers, "unattributed_us", wall_us - send_us - wait_us, "us",
             samples);
  set_overhead(r.layers, untraced.timing, traced.timing.wall_ns(), samples);

  const Counters& c = traced.counters;
  set_count(r.layers, "service.events", static_cast<double>(c.events),
            samples);
  set_count(r.layers, "service.errors",
            static_cast<double>(c.protocol_errors + traced.error_replies),
            samples);
  // How many events share a sync depends on timing, so it may differ
  // between rounds.
  set_metric(r.layers, "service.wal.syncs", static_cast<double>(c.wal_syncs),
             "count", samples);
  set_metric(r.layers, "service.wal.events_per_sync",
             c.wal_syncs == 0 ? 0.0
                              : static_cast<double>(c.wal_coalesced) /
                                    static_cast<double>(c.wal_syncs),
             "events/sync", static_cast<std::int64_t>(c.wal_syncs));
  set_count(r.layers, "core.epochs", static_cast<double>(c.epochs), samples);
  set_count(r.layers, "core.alloc.evaluations",
            static_cast<double>(c.alloc_evaluations), samples);
  set_count(r.layers, "core.decisions", static_cast<double>(c.decisions),
            samples);
  set_metric(r.layers, "core.oracle.cell_hit_ratio",
             hit_ratio(c.cell_hits, c.cell_evals), "ratio",
             static_cast<std::int64_t>(c.cell_hits + c.cell_evals));
  set_metric(r.layers, "core.oracle.share_hit_ratio",
             hit_ratio(c.share_hits, c.share_evals), "ratio",
             static_cast<std::int64_t>(c.share_hits + c.share_evals));
  set_metric(r.layers, "phy.rate_table_ms", rate_table_ms(), "ms", 3);

  set_metric(r.layers, "service.wire.encode_ns", replay.wire_encode_ns, "ns",
             samples);
  set_metric(r.layers, "service.wire.decode_ns", replay.wire_decode_ns, "ns",
             samples);
  if (c.wal_syncs > 0) {  // durable only
    set_metric(r.layers, "service.wal.encode_ns", replay.wal_encode_ns, "ns",
               samples);
    set_metric(r.layers, "service.snapshot.write_us",
               replay.snapshot_write_us, "us", 1);
  }
}

// Every timed request is exactly one dispatched event.
void check_event_count(const Pass& p, Report& r) {
  if (p.counters.events != static_cast<std::uint64_t>(p.requests)) {
    r.fail("daemon counted " + std::to_string(p.counters.events) +
           " events for " + std::to_string(p.requests) + " requests");
  }
  if (p.counters.protocol_errors != 0) {
    r.fail("daemon reported protocol errors");
  }
}

}  // namespace

Report run_wlan_durable(const Options& opt, Tracer* tracer) {
  prepare_state_root(opt.state_root);  // before any thread starts
  Report report;
  const std::vector<Request> reqs = durable_updates(
      opt.seed, kDurableWarmup + items_for(opt.seconds, kDurableRate));
  Pass untraced;
  durable_round(reqs, "untraced", nullptr, untraced, nullptr, report);
  report.timing = untraced.timing;
  report.attempted += untraced.requests;
  check_event_count(untraced, report);
  fill_online_info(report, untraced);
  set_metric(report.info, "service.wal.events_per_sync",
             untraced.counters.wal_syncs == 0
                 ? 0.0
                 : static_cast<double>(untraced.counters.wal_coalesced) /
                       static_cast<double>(untraced.counters.wal_syncs),
             "events/sync",
             static_cast<std::int64_t>(untraced.counters.wal_syncs));
  if (tracer == nullptr) return report;

  Pass traced;
  LayerReplay replay;
  durable_round(reqs, "traced", tracer, traced, &replay, report);
  report.attempted += traced.requests;
  check_event_count(traced, report);
  fill_online_layers(report, untraced, traced, *tracer, replay);
  return report;
}

Report run_fleet_churn(const Options& opt, Tracer* tracer) {
  Report report;
  const std::string floor = trace::synthetic_floor(3, 8, 7);
  // Two of every 52 requests are the forced epoch and the config query.
  const std::vector<Request> reqs = fleet_requests(
      opt.seed, kFleetWlans,
      kFleetWarmup + items_for(opt.seconds, kFleetRate * 50.0 / 52.0));
  Pass untraced;
  fleet_round(reqs, floor, kFleetWlans, kFleetWarmup, "untraced", nullptr,
              untraced, report);
  report.timing = untraced.timing;
  report.attempted += untraced.requests;
  check_event_count(untraced, report);
  fill_online_info(report, untraced);
  set_metric(report.info, "epoch_p50_us", quantile(untraced.epoch_us, 0.50),
             "us", static_cast<std::int64_t>(untraced.epoch_us.size()));
  set_metric(report.info, "epoch_p99_us", quantile(untraced.epoch_us, 0.99),
             "us", static_cast<std::int64_t>(untraced.epoch_us.size()));
  if (tracer == nullptr) return report;

  Pass traced;
  fleet_round(reqs, floor, kFleetWlans, kFleetWarmup, "traced", tracer, traced,
              report);
  report.attempted += traced.requests;
  check_event_count(traced, report);
  fill_online_layers(report, untraced, traced, *tracer,
                     replay_wire(reqs, kFleetWarmup));
  // The daemon's decisions are a pure function of each WLAN's event
  // order, so the traced pass must repeat the untraced counts exactly.
  const Counters& a = untraced.counters;
  const Counters& b = traced.counters;
  if (a.epochs != b.epochs || a.alloc_evaluations != b.alloc_evaluations ||
      a.decisions != b.decisions) {
    report.fail("traced pass changed the daemon's epoch counts");
  }
  return report;
}

// ---- recorded check cases --------------------------------------------------

namespace {
constexpr std::uint64_t kCheckSeed = 11272481;
}  // namespace

void check_wlan_durable(Report& report) {
  prepare_state_root("");
  const std::vector<Request> reqs = durable_updates(kCheckSeed, 3000);
  const std::string dir = g_state_root + "/check";
  fs::remove_all(dir);
  Daemon daemon(durable_config(dir, "wdcheck.sock"));
  daemon.start();
  Client client = Client::connect_unix("wdcheck.sock");
  client.set_recv_timeout_ms(30'000);
  expect_ok(client.call(RegisterWlan{1, kFloor}), "RegisterWlan", report);
  std::uint64_t joins = 0;
  for (std::uint32_t c = 0; c < 8; ++c) {
    const Message m = client.call(ClientJoin{1, c});
    if (const auto* ok = std::get_if<OkReply>(&m)) {
      joins = joins * 4 + static_cast<std::uint64_t>(ok->value + 1);
    }
  }
  expect_ok(client.call(ForceReconfigure{1}), "ForceReconfigure", report);
  (void)pump(client, reqs, 0, reqs.size(), nullptr, report);
  crash_image_check(daemon, dir, report);
  const auto state = daemon.wlan_state(1);
  report.attempted += static_cast<std::int64_t>(reqs.size()) + 10;
  report.checks["wlan_durable.join_aps"] = std::to_string(joins);
  report.checks["wlan_durable.events_applied"] =
      std::to_string(state ? state->events_applied : 0);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(state ? snapshot_hash(*state)
                                                      : 0));
  report.checks["wlan_durable.state_fnv"] = hex;
  client.close();
  daemon.stop();
  fs::remove_all(dir);
}

void check_fleet_churn(Report& report) {
  constexpr std::uint32_t kWlans = 16;
  const std::string floor = trace::synthetic_floor(3, 8, 7);
  const std::vector<Request> reqs = fleet_requests(kCheckSeed, kWlans, 1500);
  Pass pass;
  std::vector<std::uint64_t> hashes;
  fleet_round(reqs, floor, kWlans, 0, "check", nullptr, pass, report, &hashes);
  report.attempted += pass.requests;
  check_event_count(pass, report);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t v : hashes) h = fnv1a_value(v, h);
  report.checks["fleet_churn.service.events"] =
      std::to_string(pass.counters.events);
  report.checks["fleet_churn.core.epochs"] =
      std::to_string(pass.counters.epochs);
  report.checks["fleet_churn.core.alloc.evaluations"] =
      std::to_string(pass.counters.alloc_evaluations);
  report.checks["fleet_churn.core.decisions"] =
      std::to_string(pass.counters.decisions);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  report.checks["fleet_churn.state_fnv"] = hex;
}

}  // namespace perfbench
