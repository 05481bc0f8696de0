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
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/client.hpp"

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

struct CliRun {
  int status = 0;  // waitpid status
  std::string output;  // stdout + stderr
};

// Run the built acornd with `args`. Once `stop_marker` appears in its
// output the process gets SIGTERM; one still running after 10 s gets
// SIGKILL (a wrongly accepted flag value would leave a daemon running).
CliRun run_acornd(const std::vector<std::string>& args,
                  const std::string& stop_marker = "") {
  // argv is built before fork: the child may only exec.
  std::vector<char*> argv{const_cast<char*>(ACORND_BIN)};
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
    ::execv(ACORND_BIN, argv.data());
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
    if (n <= 0) break;  // EOF: acornd exited
    run.output.append(buf, static_cast<std::size_t>(n));
    if (!stopping && !stop_marker.empty() &&
        run.output.find(stop_marker) != std::string::npos) {
      ::kill(pid, SIGTERM);
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
      {"--workers", "5000"},
  };
  for (const auto& [flag, value] : bad) {
    SCOPED_TRACE(flag + " '" + value + "'");
    const CliRun run = run_acornd({"--unix", sock, flag, value});
    ASSERT_TRUE(WIFEXITED(run.status)) << run.output;
    EXPECT_EQ(WEXITSTATUS(run.status), 2) << run.output;
    EXPECT_NE(run.output.find("invalid value '" + value + "' for " + flag),
              std::string::npos)
        << run.output;
  }

  // Values at the edges of every range are still accepted: the daemon
  // starts, and SIGTERM shuts it down cleanly.
  const CliRun ok = run_acornd(
      {"--unix", sock, "--tcp", "0", "--epoch-s", "0", "--hysteresis", "1",
       "--wal-flush-us", "4294967295", "--wal-segment-bytes", "0",
       "--workers", "0"},
      "listening on " + sock);
  ASSERT_TRUE(WIFEXITED(ok.status)) << ok.output;
  EXPECT_EQ(WEXITSTATUS(ok.status), 0) << ok.output;
}

}  // namespace
}  // namespace acorn::service
