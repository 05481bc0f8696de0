// End-to-end tests of acornd: daemon smoke over a Unix socket, protocol
// error handling, TCP transport, the kill-and-restart durability
// contract (state recovered from the epoch snapshots is exactly the
// state the pre-crash daemon reported), and the acornd binary's flag
// validation.
#include "service/daemon.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "service/client.hpp"
#include "service/snapshot.hpp"
#include "util/rng.hpp"

namespace acorn::service {
namespace {

constexpr const char* kDeployment = R"(# test floor: 3 APs, 8 clients
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

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/acorn_daemon_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Client connect_with_retry(const std::string& unix_path) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    try {
      return Client::connect_unix(unix_path);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  throw std::runtime_error("daemon never came up at " + unix_path);
}

std::vector<std::uint8_t> reply_bytes(const Message& msg) {
  return encode_frame(0, msg);
}

TEST(ServiceDaemon, SmokeOverUnixSocket) {
  const TempDir dir;
  DaemonConfig config;
  config.unix_path = dir.path() + "/sock";
  config.state_dir = dir.path() + "/state";
  config.epoch_s = 0.0;  // epochs on demand only: keeps the test exact
  Daemon daemon(config);
  daemon.start();

  Client client = Client::connect_unix(config.unix_path);
  {
    const Message reply = client.call(RegisterWlan{1, kDeployment});
    ASSERT_TRUE(std::holds_alternative<OkReply>(reply));
  }

  // ~100 protocol events: every client joins, then SNR/load churn.
  int events = 1;
  for (std::uint32_t c = 0; c < 8; ++c) {
    const Message reply = client.call(ClientJoin{1, c});
    ++events;
    ASSERT_TRUE(std::holds_alternative<OkReply>(reply));
    EXPECT_GE(std::get<OkReply>(reply).value, 0) << "client " << c;
  }
  for (int round = 0; round < 12; ++round) {
    for (std::uint32_t c = 0; c < 8; ++c) {
      const double loss = 80.0 + 2.0 * c + 0.25 * round;
      const Message reply =
          client.call(SnrUpdate{1, c % 3, c, loss});
      ++events;
      ASSERT_TRUE(std::holds_alternative<OkReply>(reply));
    }
  }
  {
    const Message reply = client.call(LoadUpdate{1, 3, 0.5});
    ++events;
    ASSERT_TRUE(std::holds_alternative<OkReply>(reply));
  }
  {
    const Message reply = client.call(ForceReconfigure{1});
    ++events;
    ASSERT_TRUE(std::holds_alternative<OkReply>(reply));
  }

  const Message config_reply = client.call(QueryConfig{1});
  ASSERT_TRUE(std::holds_alternative<ConfigReply>(config_reply));
  const auto& cfg = std::get<ConfigReply>(config_reply);
  EXPECT_EQ(cfg.wlan_id, 1u);
  EXPECT_EQ(cfg.epoch, 1u);
  EXPECT_EQ(cfg.association.size(), 8u);
  EXPECT_EQ(cfg.allocated.size(), 3u);
  EXPECT_EQ(cfg.operating.size(), 3u);
  EXPECT_GT(cfg.total_goodput_bps, 0.0);

  const Message stats_reply = client.call(QueryStats{});
  ASSERT_TRUE(std::holds_alternative<StatsReply>(stats_reply));
  const auto& stats = std::get<StatsReply>(stats_reply);
  EXPECT_EQ(stats.num_wlans, 1u);
  EXPECT_GE(stats.frames_rx, static_cast<std::uint64_t>(events));
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.epochs_total, 1u);
  EXPECT_GE(stats.snapshots_written, 1u);
  EXPECT_GT(stats.oracle_cell_evals, 0u);
  EXPECT_GT(stats.oracle_share_evals, 0u);
  // Every mutating event was logged; their group commits were counted.
  EXPECT_GE(stats.wal_records, 1u);
  EXPECT_GE(stats.wal_flushes, 1u);
  EXPECT_LE(stats.wal_flushes, stats.wal_records);
  std::uint64_t latency_total = 0;
  for (std::uint64_t b : stats.latency_us_log2) latency_total += b;
  EXPECT_GE(latency_total, static_cast<std::uint64_t>(events));

  // Shutdown over the wire terminates the loop.
  const Message bye = client.call(Shutdown{});
  ASSERT_TRUE(std::holds_alternative<OkReply>(bye));
  daemon.wait();
  daemon.stop();
  EXPECT_FALSE(daemon.running());
}

// Offered loads must reach Algorithm 2's objective, not just the
// snapshot. With two channels and three contending APs, concentrating
// all load on one cell's client flips the allocation: the hot cell is
// given the channel to itself while the idle cells share the other one.
TEST(ServiceDaemon, LoadUpdateRedirectsAllocation) {
  constexpr const char* kScarceDeployment = R"(# 3 APs, 2 channels
pathloss exponent 3.5
pathloss shadowing 4
channels 2
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
  const auto epoch_allocation = [&](bool focus_load_on_client5) {
    const TempDir dir;
    DaemonConfig config;
    config.unix_path = dir.path() + "/sock";
    config.epoch_s = 0.0;
    Daemon daemon(config);
    daemon.start();
    Client client = Client::connect_unix(config.unix_path);
    EXPECT_TRUE(std::holds_alternative<OkReply>(
        client.call(RegisterWlan{1, kScarceDeployment})));
    for (std::uint32_t c = 0; c < 8; ++c) {
      EXPECT_TRUE(
          std::holds_alternative<OkReply>(client.call(ClientJoin{1, c})));
    }
    if (focus_load_on_client5) {
      for (std::uint32_t c = 0; c < 8; ++c) {
        EXPECT_TRUE(std::holds_alternative<OkReply>(
            client.call(LoadUpdate{1, c, c == 5 ? 1.0 : 1e-6})));
      }
    }
    EXPECT_TRUE(
        std::holds_alternative<OkReply>(client.call(ForceReconfigure{1})));
    const Message reply = client.call(QueryConfig{1});
    EXPECT_TRUE(std::holds_alternative<ConfigReply>(reply));
    std::vector<net::Channel> allocated =
        std::get<ConfigReply>(reply).allocated;
    daemon.stop();
    return allocated;
  };

  const std::vector<net::Channel> base = epoch_allocation(false);
  const std::vector<net::Channel> hot = epoch_allocation(true);
  ASSERT_EQ(base.size(), 3u);
  ASSERT_EQ(hot.size(), 3u);
  EXPECT_NE(base, hot) << "offered loads did not change the allocation";
  // Client 5 lives in AP2's cell: under the focused load AP2's channel
  // must not be contended by either idle AP.
  EXPECT_EQ(hot[2].overlap_fraction(hot[0]), 0.0);
  EXPECT_EQ(hot[2].overlap_fraction(hot[1]), 0.0);
}

// A re-association probe that fails (Algorithm 1 admits no AP — here
// because every link degraded to a 300 dB loss) must keep the client on
// its previous AP instead of silently dropping it. Covers both probe
// paths: an explicit re-join and the dirty-client re-probe an epoch
// runs after SNR churn.
TEST(ServiceDaemon, FailedReassociationKeepsClient) {
  const TempDir dir;
  DaemonConfig config;
  config.unix_path = dir.path() + "/sock";
  config.epoch_s = 0.0;
  Daemon daemon(config);
  daemon.start();

  Client client = Client::connect_unix(config.unix_path);
  ASSERT_TRUE(std::holds_alternative<OkReply>(
      client.call(RegisterWlan{1, kDeployment})));
  const Message joined = client.call(ClientJoin{1, 0});
  ASSERT_TRUE(std::holds_alternative<OkReply>(joined));
  const std::int32_t home_ap = std::get<OkReply>(joined).value;
  ASSERT_GE(home_ap, 0);

  // Degrade every AP->client-0 link beyond any usable MCS.
  for (std::uint32_t ap = 0; ap < 3; ++ap) {
    ASSERT_TRUE(std::holds_alternative<OkReply>(
        client.call(SnrUpdate{1, ap, 0, 300.0})));
  }
  // Explicit re-join: the probe fails, the old association survives.
  const Message rejoined = client.call(ClientJoin{1, 0});
  ASSERT_TRUE(std::holds_alternative<OkReply>(rejoined));
  EXPECT_EQ(std::get<OkReply>(rejoined).value, home_ap)
      << "failed probe dropped the client";

  // Epoch re-probe of the dirty client: same contract.
  ASSERT_TRUE(
      std::holds_alternative<OkReply>(client.call(ForceReconfigure{1})));
  const Message cfg_reply = client.call(QueryConfig{1});
  ASSERT_TRUE(std::holds_alternative<ConfigReply>(cfg_reply));
  EXPECT_EQ(std::get<ConfigReply>(cfg_reply).association[0], home_ap)
      << "epoch re-probe dropped the client";
  daemon.stop();
}

TEST(ServiceDaemon, ErrorPaths) {
  const TempDir dir;
  DaemonConfig config;
  config.unix_path = dir.path() + "/sock";
  config.epoch_s = 0.0;
  Daemon daemon(config);
  daemon.start();

  Client client = Client::connect_unix(config.unix_path);
  {
    const Message reply = client.call(QueryConfig{99});
    ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply));
    EXPECT_EQ(std::get<ErrorReply>(reply).code,
              static_cast<std::uint16_t>(ErrorCode::kUnknownWlan));
  }
  {
    const Message reply = client.call(RegisterWlan{1, "not a deployment %"});
    ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply));
    EXPECT_EQ(std::get<ErrorReply>(reply).code,
              static_cast<std::uint16_t>(ErrorCode::kBadDeployment));
  }
  ASSERT_TRUE(std::holds_alternative<OkReply>(
      client.call(RegisterWlan{1, kDeployment})));
  {
    const Message reply = client.call(RegisterWlan{1, kDeployment});
    ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply));
    EXPECT_EQ(std::get<ErrorReply>(reply).code,
              static_cast<std::uint16_t>(ErrorCode::kAlreadyRegistered));
  }
  {
    const Message reply = client.call(ClientJoin{1, 500});
    ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply));
    EXPECT_EQ(std::get<ErrorReply>(reply).code,
              static_cast<std::uint16_t>(ErrorCode::kBadArgument));
  }
  // Ids at/above 2^31 must not wrap negative through an int cast and
  // slip past the bounds checks (that was an OOB write).
  for (const std::uint32_t evil :
       {std::uint32_t{0x80000000u}, std::uint32_t{0xffffffffu}}) {
    for (const Message& msg :
         {Message{ClientJoin{1, evil}}, Message{ClientLeave{1, evil}},
          Message{SnrUpdate{1, evil, 0, 90.0}},
          Message{SnrUpdate{1, 0, evil, 90.0}},
          Message{LoadUpdate{1, evil, 0.5}}}) {
      const Message reply = client.call(msg);
      ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply));
      EXPECT_EQ(std::get<ErrorReply>(reply).code,
                static_cast<std::uint16_t>(ErrorCode::kBadArgument));
    }
  }
  // Non-finite (or negative) measurements must be rejected, not written
  // into the link budget and persisted.
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), -1.0}) {
    for (const Message& msg :
         {Message{SnrUpdate{1, 0, 0, bad}}, Message{LoadUpdate{1, 0, bad}}}) {
      const Message reply = client.call(msg);
      ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply));
      EXPECT_EQ(std::get<ErrorReply>(reply).code,
                static_cast<std::uint16_t>(ErrorCode::kBadArgument));
    }
  }
  {
    const Message reply = client.call(RemoveWlan{1});
    ASSERT_TRUE(std::holds_alternative<OkReply>(reply));
    const Message again = client.call(RemoveWlan{1});
    ASSERT_TRUE(std::holds_alternative<ErrorReply>(again));
  }

  // A garbage frame gets its connection dropped; the daemon survives
  // and other connections keep working.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    // Length prefix far beyond kMaxFramePayload.
    const std::uint8_t junk[] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(::write(fd, junk, sizeof(junk)),
              static_cast<ssize_t>(sizeof(junk)));
    // The daemon answers with a best-effort ErrorReply, then closes:
    // read() must reach EOF rather than hang.
    std::uint8_t buf[512];
    while (true) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n == 0) break;  // connection dropped, as specified
      ASSERT_GT(n, 0);
    }
    ::close(fd);
  }
  const Message stats_reply = client.call(QueryStats{});
  ASSERT_TRUE(std::holds_alternative<StatsReply>(stats_reply));
  EXPECT_GE(std::get<StatsReply>(stats_reply).protocol_errors, 1u);
  daemon.stop();
}

// Responses and replication frames are not requests. The daemon refuses
// each with kBadArgument, whether or not a WLAN matches its wlan_id (or
// 0), keeps the connection, and no shard sees the frame.
TEST(ServiceDaemon, NonRequestsAreRefusedAtTheDaemon) {
  const TempDir dir;
  DaemonConfig config;
  config.unix_path = dir.path() + "/sock";
  config.epoch_s = 0.0;
  Daemon daemon(config);
  daemon.start();
  Client client = Client::connect_unix(config.unix_path);

  constexpr std::uint32_t kWlan = 5;
  const std::vector<Message> frames = {
      OkReply{3},
      ErrorReply{4, "echo"},
      ConfigReply{kWlan, 1, 2, 3.0, {0}, {net::Channel::basic(0)},
                  {net::Channel::basic(0)}},
      StatsReply{},
      SnapshotFrame{{1, 2, 3}},
      LogRecordFrame{kWlan, 1, encode_payload(0, ClientJoin{kWlan, 0})},
  };
  const auto send_all = [&] {
    for (const Message& msg : frames) {
      SCOPED_TRACE("type " + std::to_string(static_cast<int>(type_of(msg))));
      const Message reply = client.call(msg);
      ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply));
      EXPECT_EQ(std::get<ErrorReply>(reply).code,
                static_cast<std::uint16_t>(ErrorCode::kBadArgument));
    }
  };
  {
    SCOPED_TRACE("no WLAN registered");
    send_all();
  }
  for (const std::uint32_t id : {0u, kWlan}) {
    ASSERT_TRUE(std::holds_alternative<OkReply>(
        client.call(RegisterWlan{id, kDeployment})));
    ASSERT_TRUE(std::holds_alternative<OkReply>(
        client.call(ClientJoin{id, 1})));
  }
  const auto state_bytes = [&daemon] {
    std::vector<std::vector<std::uint8_t>> out;
    for (const std::uint32_t id : {0u, kWlan}) {
      out.push_back(encode_snapshot(*daemon.wlan_state(id)));
    }
    return out;
  };
  const auto before = state_bytes();
  {
    SCOPED_TRACE("WLANs 0 and 5 registered");
    send_all();
  }
  EXPECT_EQ(state_bytes(), before);
  for (const std::uint32_t id : {0u, kWlan}) {
    EXPECT_EQ(daemon.wlan_state(id)->events_applied, 1u);
  }
  // The connection is still open and still served.
  EXPECT_TRUE(std::holds_alternative<StatsReply>(client.call(QueryStats{})));
  daemon.stop();
}

TEST(ServiceDaemon, TcpTransport) {
  DaemonConfig config;
  config.tcp = true;
  config.tcp_port = 0;  // ephemeral
  config.epoch_s = 0.0;
  Daemon daemon(config);
  try {
    daemon.start();
  } catch (const std::exception& e) {
    GTEST_SKIP() << "cannot bind TCP in this environment: " << e.what();
  }
  ASSERT_GT(daemon.tcp_port(), 0);
  Client client = Client::connect_tcp(
      "127.0.0.1", static_cast<std::uint16_t>(daemon.tcp_port()));
  ASSERT_TRUE(std::holds_alternative<OkReply>(
      client.call(RegisterWlan{5, kDeployment})));
  const Message reply = client.call(QueryConfig{5});
  ASSERT_TRUE(std::holds_alternative<ConfigReply>(reply));
  EXPECT_EQ(std::get<ConfigReply>(reply).wlan_id, 5u);
  daemon.stop();
}

// The durability contract, deterministic half: kill a *quiescent* daemon
// with SIGKILL (no chance to flush anything) and restart over the same
// state directory — the recovered daemon must answer QueryConfig with
// exactly the bytes the pre-crash daemon reported, because the last
// completed epoch wrote a full snapshot and recovery is bit-identical.
// Nondeterministic half: drive one acknowledged event past the last
// snapshot, then kill immediately after submitting a reconfigure, so
// SIGKILL can land mid-epoch or mid-snapshot-write — recovery must
// replay the acknowledged event from the WAL and land on a *complete*
// state (atomic snapshot + intact log records), i.e. either just
// before the unacknowledged reconfigure or just after it.
TEST(ServiceDaemon, KillAndRestartRecovery) {
  const TempDir dir;
  const std::string sock = dir.path() + "/sock";
  const std::string state = dir.path() + "/state";

  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Child: host the daemon until SIGKILL.
    DaemonConfig config;
    config.unix_path = sock;
    config.state_dir = state;
    config.epoch_s = 0.0;
    try {
      Daemon daemon(config);
      daemon.start();
      daemon.wait();
    } catch (...) {
    }
    ::_exit(0);
  }

  std::vector<std::uint8_t> c1_bytes;
  std::uint64_t c1_epoch = 0;
  {
    Client client = connect_with_retry(sock);
    ASSERT_TRUE(std::holds_alternative<OkReply>(
        client.call(RegisterWlan{1, kDeployment})));
    for (std::uint32_t c = 0; c < 8; ++c) {
      ASSERT_TRUE(
          std::holds_alternative<OkReply>(client.call(ClientJoin{1, c})));
    }
    ASSERT_TRUE(std::holds_alternative<OkReply>(
        client.call(SnrUpdate{1, 0, 0, 84.5})));
    ASSERT_TRUE(std::holds_alternative<OkReply>(
        client.call(SnrUpdate{1, 1, 3, 101.25})));
    ASSERT_TRUE(std::holds_alternative<OkReply>(
        client.call(ForceReconfigure{1})));
    const Message c1 = client.call(QueryConfig{1});
    ASSERT_TRUE(std::holds_alternative<ConfigReply>(c1));
    c1_epoch = std::get<ConfigReply>(c1).epoch;
    EXPECT_EQ(c1_epoch, 1u);
    c1_bytes = reply_bytes(c1);
  }

  // Deterministic kill: quiescent daemon, last epoch fully snapshot.
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  {
    DaemonConfig config;
    config.unix_path = sock;
    config.state_dir = state;
    config.epoch_s = 0.0;
    Daemon daemon(config);
    daemon.start();
    Client client = Client::connect_unix(sock);
    const Message recovered = client.call(QueryConfig{1});
    ASSERT_TRUE(std::holds_alternative<ConfigReply>(recovered));
    EXPECT_EQ(reply_bytes(recovered), c1_bytes)
        << "recovered state differs from the pre-kill report";

    // Nondeterministic kill: more events, then reconfigure and SIGKILL
    // racing the epoch. Run it against this in-process daemon's child...
    daemon.stop();
  }

  // Second round: restart a child daemon on the recovered state, drive
  // new events, kill it mid-reconfigure, and require recovery to land on
  // a complete snapshot (old epoch or new, never torn).
  const pid_t child2 = ::fork();
  ASSERT_NE(child2, -1);
  if (child2 == 0) {
    DaemonConfig config;
    config.unix_path = sock;
    config.state_dir = state;
    config.epoch_s = 0.0;
    try {
      Daemon daemon(config);
      daemon.start();
      daemon.wait();
    } catch (...) {
    }
    ::_exit(0);
  }
  {
    Client client = connect_with_retry(sock);
    ASSERT_TRUE(std::holds_alternative<OkReply>(
        client.call(SnrUpdate{1, 2, 6, 99.0})));
    // Fire the reconfigure and kill without waiting for the reply.
    client.send(ForceReconfigure{1});
  }
  ASSERT_EQ(::kill(child2, SIGKILL), 0);
  ASSERT_EQ(::waitpid(child2, &status, 0), child2);

  {
    DaemonConfig config;
    config.unix_path = sock;
    config.state_dir = state;
    config.epoch_s = 0.0;
    Daemon daemon(config);
    daemon.start();
    Client client = Client::connect_unix(sock);
    const Message recovered = client.call(QueryConfig{1});
    ASSERT_TRUE(std::holds_alternative<ConfigReply>(recovered));
    const auto& cfg = std::get<ConfigReply>(recovered);
    // The acknowledged SnrUpdate (event 12) was never covered by an
    // epoch snapshot, but its reply was released only after the WAL
    // fsync — so recovery must replay it. The trailing ForceReconfigure
    // was never acknowledged: depending on where SIGKILL landed it is
    // either absent (epoch 1, 12 events) or fully recovered (epoch 2,
    // 13 events) — but never half-applied.
    EXPECT_TRUE(cfg.epoch == c1_epoch || cfg.epoch == c1_epoch + 1)
        << "recovered epoch " << cfg.epoch;
    if (cfg.epoch == c1_epoch) {
      EXPECT_EQ(cfg.events_applied, 12u);
    } else {
      EXPECT_EQ(cfg.events_applied, 13u);
    }
    EXPECT_EQ(cfg.association.size(), 8u);
    EXPECT_GT(cfg.total_goodput_bps, 0.0);
    daemon.stop();
  }
}

// Recovery checks a snapshot against its deployment, not only its
// checksum: a WLAN whose association names no AP, or whose channels lie
// outside the plan, is skipped with a log line (its state would
// otherwise be served and persisted again at every checkpoint), and the
// healthy WLAN beside it recovers byte-identical.
TEST(ServiceDaemon, RecoverySkipsSnapshotsThatDoNotFitTheDeployment) {
  const std::string two_aps = R"(channels 12
seed 3
ap 10 10
ap 40 10
client 12 12
client 38 11
)";
  const TempDir seed_dir;
  {
    DaemonConfig config;
    config.unix_path = seed_dir.path() + "/sock";
    config.state_dir = seed_dir.path();
    config.epoch_s = 0.0;
    Daemon daemon(config);
    daemon.start();
    Client client = Client::connect_unix(config.unix_path);
    ASSERT_TRUE(std::holds_alternative<OkReply>(
        client.call(RegisterWlan{1, two_aps})));
    client.call(ClientJoin{1, 0});
    client.call(ClientJoin{1, 1});
    client.call(ForceReconfigure{1});
    daemon.stop();
  }
  const std::vector<WlanSnapshot> seeded = load_snapshots(seed_dir.path());
  ASSERT_EQ(seeded.size(), 1u);
  const WlanSnapshot& good = seeded.front();

  const std::vector<std::function<void(WlanSnapshot&)>> misfits = {
      [](WlanSnapshot& s) { s.state.association = {5, 0}; },
      [](WlanSnapshot& s) { s.state.association = {-7, 0}; },
      [](WlanSnapshot& s) {
        // Basic channels 60 and 61 of a 12-channel plan.
        s.state.allocated[1] = s.state.operating[1] = net::Channel::bonded(30);
      },
  };
  for (std::size_t i = 0; i < misfits.size(); ++i) {
    SCOPED_TRACE("misfit " + std::to_string(i));
    const TempDir dir;
    WlanSnapshot bad = good;
    bad.wlan_id = 2;
    misfits[i](bad);
    ASSERT_TRUE(write_snapshot(dir.path(), good));
    ASSERT_TRUE(write_snapshot(dir.path(), bad));

    DaemonConfig config;
    config.state_dir = dir.path();
    config.epoch_s = 0.0;
    Daemon daemon(config);
    testing::internal::CaptureStderr();
    daemon.start();
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(daemon.wlan_ids(), std::vector<std::uint32_t>{1});
    EXPECT_NE(log.find("cannot recover wlan 2"), std::string::npos) << log;
    const std::optional<WlanSnapshot> recovered = daemon.wlan_state(1);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(encode_snapshot(*recovered), encode_snapshot(good));
    daemon.stop();
  }
}

// A raw Unix-socket connection to `path`.
int connect_raw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect " + path);
  }
  return fd;
}

std::uint64_t events_applied(Client& client, std::uint32_t wlan_id) {
  const Message reply = client.call(QueryConfig{wlan_id});
  if (!std::holds_alternative<ConfigReply>(reply)) return ~0ull;
  return std::get<ConfigReply>(reply).events_applied;
}

// A peer that went away must cost a write error, never a SIGPIPE that
// ends the process embedding the daemon or the client. The daemon side:
// a peer that shut its read side gets a reply written to it, which
// fails with EPIPE; the daemon closes that connection and serves the
// next. The client side: once the daemon dropped the connection,
// Client::send throws.
TEST(ServiceDaemon, DroppedPeerRaisesInsteadOfSigpipe) {
  const TempDir dir;
  DaemonConfig config;
  config.unix_path = dir.path() + "/sock";
  config.epoch_s = 0.0;
  Daemon daemon(config);
  daemon.start();

  const int fd = connect_raw(config.unix_path);
  ASSERT_EQ(::shutdown(fd, SHUT_RD), 0);
  // An unknown WLAN: the daemon answers inline, into the closed side.
  const std::vector<std::uint8_t> query = encode_frame(1, QueryConfig{99});
  ASSERT_EQ(::write(fd, query.data(), query.size()),
            static_cast<ssize_t>(query.size()));
  Client client = Client::connect_unix(config.unix_path);
  EXPECT_TRUE(std::holds_alternative<StatsReply>(client.call(QueryStats{})));
  // The daemon closed the raw connection: a write to it now fails too.
  bool closed = false;
  for (int i = 0; i < 200 && !closed; ++i) {
    closed = ::send(fd, query.data(), query.size(), MSG_NOSIGNAL) < 0;
    if (!closed) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(closed) << "daemon kept the connection after EPIPE";
  ::close(fd);

  daemon.stop();  // drops `client`'s connection
  EXPECT_THROW(client.send(QueryStats{}), std::system_error);
}

// Requests that arrive together with the client's EOF still count: the
// daemon dispatches every complete frame it buffered before it closes
// the connection (their replies have no reader and are dropped).
TEST(ServiceDaemon, RequestsArrivingWithEofAreApplied) {
  const TempDir dir;
  DaemonConfig config;
  config.unix_path = dir.path() + "/sock";
  config.epoch_s = 0.0;
  Daemon daemon(config);
  daemon.start();
  Client client = Client::connect_unix(config.unix_path);
  ASSERT_TRUE(std::holds_alternative<OkReply>(
      client.call(RegisterWlan{1, kDeployment})));

  constexpr std::uint64_t kUpdates = 200;
  std::vector<std::uint8_t> burst;
  for (std::uint64_t i = 0; i < kUpdates; ++i) {
    encode_frame_into(burst, static_cast<std::uint32_t>(i + 1),
                      SnrUpdate{1, static_cast<std::uint32_t>(i % 3),
                                static_cast<std::uint32_t>(i % 8),
                                80.0 + static_cast<double>(i % 11)});
  }
  const int fd = connect_raw(config.unix_path);
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  ::close(fd);

  std::uint64_t applied = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((applied = events_applied(client, 1)) != kUpdates &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(applied, kUpdates);
  daemon.stop();
}

// A client that pipelines requests but never reads its replies is
// dropped once more than kMaxConnOutBytes (8 MiB) of replies sit unread
// (QueryConfig replies take the shard path, ~120 bytes each); every
// other connection keeps being served.
TEST(ServiceDaemon, UnreadRepliesPastTheCapDropTheConnection) {
  const TempDir dir;
  DaemonConfig config;
  config.unix_path = dir.path() + "/sock";
  config.epoch_s = 0.0;
  Daemon daemon(config);
  daemon.start();
  Client other = Client::connect_unix(config.unix_path);
  ASSERT_TRUE(std::holds_alternative<OkReply>(
      other.call(RegisterWlan{1, kDeployment})));
  for (std::uint32_t c = 0; c < 8; ++c) {
    ASSERT_TRUE(std::holds_alternative<OkReply>(other.call(ClientJoin{1, c})));
  }

  Client flooder = Client::connect_unix(config.unix_path);
  testing::internal::CaptureStderr();
  // 100k replies are ~12 MiB. The shard answers more slowly than the
  // requests go out, so keep trickling requests until a send fails: the
  // daemon has closed the connection.
  bool dropped = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (int i = 0; !dropped && std::chrono::steady_clock::now() < deadline;
       ++i) {
    try {
      flooder.send(QueryConfig{1});
    } catch (const std::system_error&) {
      dropped = true;
    }
    if (i >= 100000) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(dropped) << "the flooding connection was never dropped";
  EXPECT_NE(log.find("dropping connection"), std::string::npos) << log;
  EXPECT_EQ(events_applied(other, 1), 8u);
  daemon.stop();
}

// Replies released by group commit keep the per-connection contract: a
// durable daemon, two connections each pipelining to a WLAN of its own
// and to one shared WLAN — journaled updates (withheld until the sync),
// QueryConfig (withheld behind in-flight commits), ForceReconfigure
// (covered by its snapshot, released without a sync) and rejected
// updates. Every request gets exactly one reply carrying its own seq,
// replies come back in send order per WLAN, and every QueryConfig on an
// unshared WLAN reports exactly the events sent to it before.
TEST(ServiceDaemon, DurableRepliesKeepOrderPerConnectionAndWlan) {
  const TempDir dir;
  DaemonConfig config;
  config.unix_path = dir.path() + "/sock";
  config.state_dir = dir.path() + "/state";
  config.epoch_s = 0.0;
  config.workers = 2;
  Daemon daemon(config);
  daemon.start();
  {
    Client setup = Client::connect_unix(config.unix_path);
    for (std::uint32_t wlan = 1; wlan <= 3; ++wlan) {
      ASSERT_TRUE(std::holds_alternative<OkReply>(
          setup.call(RegisterWlan{wlan, kDeployment})));
      for (std::uint32_t c = 0; c < 8; ++c) {
        ASSERT_TRUE(std::holds_alternative<OkReply>(
            setup.call(ClientJoin{wlan, c})));
      }
    }
  }

  enum class Op { kSnr, kLoad, kQuery, kForce, kRejected };
  struct Sent {
    std::uint32_t seq = 0;
    std::uint32_t wlan = 0;
    Op op = Op::kSnr;
    std::uint64_t expect_applied = 0;  // kQuery on the own WLAN only
  };
  const auto drive = [&config](std::uint32_t own, std::uint64_t seed,
                               std::string& failure) {
    Client client = Client::connect_unix(config.unix_path);
    util::Rng rng(seed);
    std::uint64_t own_applied = 8;  // the joins
    std::vector<Sent> sent;
    for (int i = 0; i < 600; ++i) {
      Sent s;
      s.wlan = rng.uniform() < 0.6 ? own : 1;
      const double pick = rng.uniform();
      s.op = pick < 0.35   ? Op::kSnr
             : pick < 0.65 ? Op::kLoad
             : pick < 0.82 ? Op::kQuery
             : pick < 0.92 ? Op::kForce
                           : Op::kRejected;
      const auto client_id = static_cast<std::uint32_t>(rng.uniform_int(0, 7));
      Message msg;
      switch (s.op) {
        case Op::kSnr:
          msg = SnrUpdate{s.wlan,
                          static_cast<std::uint32_t>(rng.uniform_int(0, 2)),
                          client_id, rng.uniform(70.0, 120.0)};
          break;
        case Op::kLoad:
          msg = LoadUpdate{s.wlan, client_id, rng.uniform()};
          break;
        case Op::kQuery:
          msg = QueryConfig{s.wlan};
          break;
        case Op::kForce:
          msg = ForceReconfigure{s.wlan};
          break;
        case Op::kRejected:
          msg = LoadUpdate{s.wlan, 500, 0.5};
          break;
      }
      if (s.wlan == own) {
        if (s.op == Op::kQuery) s.expect_applied = own_applied;
        if (s.op == Op::kSnr || s.op == Op::kLoad || s.op == Op::kForce) {
          ++own_applied;
        }
      }
      s.seq = client.send(msg);
      sent.push_back(s);
    }
    std::vector<int> replies(sent.size(), 0);
    std::map<std::uint32_t, std::size_t> last_index;
    for (std::size_t r = 0; r < sent.size() && failure.empty(); ++r) {
      const Frame f = client.recv();
      const std::size_t idx = f.seq - sent.front().seq;
      if (idx >= sent.size() || replies[idx]++ != 0) {
        failure = "unexpected or repeated reply seq " + std::to_string(f.seq);
        break;
      }
      const Sent& s = sent[idx];
      const auto last = last_index.find(s.wlan);
      if (last != last_index.end() && last->second > idx) {
        failure = "reply " + std::to_string(idx) + " for wlan " +
                  std::to_string(s.wlan) + " overtook reply " +
                  std::to_string(last->second);
      }
      last_index[s.wlan] = idx;
      const bool ok = std::holds_alternative<OkReply>(f.msg);
      const auto* cfg = std::get_if<ConfigReply>(&f.msg);
      if (s.op == Op::kRejected) {
        if (!std::holds_alternative<ErrorReply>(f.msg)) {
          failure = "rejected update was not answered with an error";
        }
      } else if (s.op == Op::kQuery) {
        if (cfg == nullptr || cfg->wlan_id != s.wlan) {
          failure = "QueryConfig not answered with its WLAN's config";
        } else if (s.wlan == own && cfg->events_applied != s.expect_applied) {
          failure = "QueryConfig on wlan " + std::to_string(own) +
                    " read " + std::to_string(cfg->events_applied) +
                    " events, expected " + std::to_string(s.expect_applied);
        }
      } else if (!ok) {
        failure = "update " + std::to_string(idx) + " was not acknowledged";
      }
    }
  };
  std::string failure_a;
  std::string failure_b;
  std::thread a([&] { drive(2, 0xA11CE, failure_a); });
  std::thread b([&] { drive(3, 0xB0B, failure_b); });
  a.join();
  b.join();
  EXPECT_EQ(failure_a, "");
  EXPECT_EQ(failure_b, "");
  daemon.stop();
}

// 0 used to select one dedicated thread per WLAN; that mode is gone.
TEST(ServiceDaemon, ZeroWorkersIsRejected) {
  DaemonConfig config;
  config.workers = 0;
  Daemon daemon(config);
  EXPECT_THROW(daemon.start(), std::invalid_argument);
  EXPECT_FALSE(daemon.running());
}

struct CliRun {
  int status = 0;  // waitpid status
  std::string output;  // stdout + stderr
};

// Run the built binary `bin` with `args`. Once `stop_marker` appears in
// its output `stop` runs (by default: SIGTERM to the process); one still
// running after 10 s gets SIGKILL (a wrongly accepted flag value would
// leave a daemon running).
CliRun run_cli(const char* bin, const std::vector<std::string>& args,
               const std::string& stop_marker = "",
               const std::function<void(pid_t)>& stop = {}) {
  // argv is built before fork: the child may only exec.
  std::vector<char*> argv{const_cast<char*>(bin)};
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork");
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(bin, argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  CliRun run;
  bool stopping = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      ::kill(pid, SIGKILL);
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left.count()));
    if (r < 0 && errno != EINTR) break;
    if (r <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;  // EOF: the process exited
    run.output.append(buf, static_cast<std::size_t>(n));
    if (!stopping && !stop_marker.empty() &&
        run.output.find(stop_marker) != std::string::npos) {
      if (stop) {
        stop(pid);
      } else {
        ::kill(pid, SIGTERM);
      }
      stopping = true;
    }
  }
  ::close(fds[0]);
  ::waitpid(pid, &run.status, 0);
  return run;
}

// Every numeric flag is parsed whole and range-checked: a bad value
// names its flag and exits 2 before the daemon starts, instead of
// becoming 0, a wrapped-around bound, or an undefined conversion.
TEST(ServiceDaemon, AcorndRejectsBadFlagValues) {
  const TempDir dir;
  const std::string sock = dir.path() + "/sock";
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--tcp", "70000"},
      {"--tcp", "-1"},
      {"--tcp", "80x"},
      {"--tcp", ""},
      {"--epoch-s", "inf"},
      {"--epoch-s", "nan"},
      {"--epoch-s", "-1"},
      {"--epoch-s", "1e300"},
      {"--epoch-s", "abc"},
      {"--hysteresis", "0.5"},
      {"--hysteresis", "inf"},
      {"--hysteresis", "1.05x"},
      {"--wal-flush-us", "-1"},
      {"--wal-flush-us", "4294967296"},
      {"--wal-flush-us", "1.5"},
      {"--wal-segment-bytes", "-5"},
      {"--wal-segment-bytes", "abc"},
      {"--workers", "abc"},
      {"--workers", "-1"},
      {"--workers", "0"},
      {"--workers", "5000"},
      {"--follow", "127.0.0.1:4464x"},
      {"--follow", "127.0.0.1:"},
  };
  for (const auto& [flag, value] : bad) {
    SCOPED_TRACE(flag + " '" + value + "'");
    const CliRun run = run_cli(ACORND_BIN, {"--unix", sock, flag, value});
    ASSERT_TRUE(WIFEXITED(run.status)) << run.output;
    EXPECT_EQ(WEXITSTATUS(run.status), 2) << run.output;
    EXPECT_NE(run.output.find("invalid value '" + value + "' for " + flag),
              std::string::npos)
        << run.output;
  }

  // Values at the edges of every range are still accepted: the daemon
  // starts, and SIGTERM shuts it down cleanly.
  const CliRun ok = run_cli(
      ACORND_BIN,
      {"--unix", sock, "--tcp", "0", "--epoch-s", "0", "--hysteresis", "1",
       "--wal-flush-us", "4294967295", "--wal-segment-bytes", "0",
       "--workers", "1"},
      "listening on " + sock);
  ASSERT_TRUE(WIFEXITED(ok.status)) << ok.output;
  EXPECT_EQ(WEXITSTATUS(ok.status), 0) << ok.output;
}

// A Shutdown request ends acornd on its own: the event loop stops, and
// main's signal-wait tick notices and returns once the shards drain.
TEST(ServiceDaemon, AcorndExitsOnShutdownRequest) {
  const TempDir dir;
  const std::string sock = dir.path() + "/sock";
  const CliRun run = run_cli(
      ACORND_BIN,
      {"--unix", sock, "--state-dir", dir.path() + "/state", "--workers", "1"},
      "listening on " + sock, [&sock](pid_t) {
        Client client = Client::connect_unix(sock);
        EXPECT_TRUE(std::holds_alternative<OkReply>(
            client.call(RegisterWlan{1, kDeployment})));
        EXPECT_TRUE(
            std::holds_alternative<OkReply>(client.call(ClientJoin{1, 0})));
        EXPECT_TRUE(std::holds_alternative<OkReply>(client.call(Shutdown{})));
      });
  ASSERT_TRUE(WIFEXITED(run.status)) << run.output;
  EXPECT_EQ(WEXITSTATUS(run.status), 0) << run.output;
}

// The replay example parses its numeric flags the same way: a bad value
// exits 2 naming the flag, instead of a wrapped-around fleet size that
// never finishes, an uncaught exception, or a silent 0.
TEST(ServiceDaemon, ReplayDaemonRejectsBadFlagValues) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--wlans", "-1"},     {"--wlans", "0"},     {"--clients", "abc"},
      {"--aps", "2x"},       {"--horizon", "inf"}, {"--rate", "0"},
      {"--seed", "-3"},      {"--workers", "abc"}, {"--epoch-every", "-5"},
      {"--workers", "0"},
  };
  for (const auto& [flag, value] : bad) {
    SCOPED_TRACE(flag + " '" + value + "'");
    const CliRun run = run_cli(REPLAY_DAEMON_BIN, {flag, value});
    ASSERT_TRUE(WIFEXITED(run.status)) << run.output;
    EXPECT_EQ(WEXITSTATUS(run.status), 2) << run.output;
    EXPECT_NE(run.output.find("invalid value '" + value + "' for " + flag),
              std::string::npos)
        << run.output;
  }
}

}  // namespace
}  // namespace acorn::service
