// acornd — the online multi-WLAN controller daemon.
//
// Usage:
//   acornd --unix /run/acorn.sock [--tcp PORT] [--state-dir DIR]
//          [--epoch-s SECONDS] [--hysteresis FACTOR] [--wal-flush-us N]
//          [--wal-segment-bytes N] [--workers M] [--follow ENDPOINT]
//          [--log]
//
// Runs until SIGINT/SIGTERM or a Shutdown request arrives on the wire;
// either way every shard drains its queue and writes a final snapshot
// before the process exits. A malformed or out-of-range flag value
// exits with status 2 before anything starts.

#include <pthread.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <stdexcept>
#include <string>

#include "service/client.hpp"
#include "service/daemon.hpp"
#include "util/flags.hpp"

namespace {

using acorn::util::flag_value;

constexpr const char* kProg = "acornd";

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--unix PATH] [--tcp PORT] [--state-dir DIR]\n"
               "          [--epoch-s SECONDS] [--hysteresis FACTOR]\n"
               "          [--wal-flush-us N] [--wal-segment-bytes N]\n"
               "          [--workers M] [--follow ENDPOINT] [--log]\n"
               "\n"
               "At least one of --unix / --tcp is required.\n"
               "  --unix PATH        listen on a Unix domain socket\n"
               "  --tcp PORT         listen on 127.0.0.1:PORT (0 = ephemeral,\n"
               "                     chosen port is printed on startup)\n"
               "  --state-dir DIR    persist per-WLAN snapshots + a shared\n"
               "                     event log and recover them on startup\n"
               "  --epoch-s SECONDS  reconfiguration period (default 1.0;\n"
               "                     0 = only on force-reconfigure)\n"
               "  --hysteresis F     width-switch advantage factor "
               "(default 1.05)\n"
               "  --wal-flush-us N   WAL group-commit bound in microseconds:\n"
               "                     max time a record may sit unflushed "
               "under\n"
               "                     backlog (default 200; 0 = sync per "
               "event)\n"
               "  --wal-segment-bytes N  event-log segment rotation size\n"
               "                     (default 67108864)\n"
               "  --workers M        shard workers shared by every WLAN,\n"
               "                     1 to 4096 (default: hardware "
               "threads)\n"
               "  --follow ENDPOINT  run as a warm standby replicating the\n"
               "                     leader at unix:/path or host:port\n"
               "  --log              per-epoch and periodic stats on stderr\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  acorn::service::DaemonConfig config;
  config.log = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&] {
      return acorn::util::next_flag_value(kProg, argc, argv, i);
    };
    if (arg == "--unix") {
      config.unix_path = value();
    } else if (arg == "--tcp") {
      config.tcp = true;
      config.tcp_port = static_cast<std::uint16_t>(flag_value<long long>(
          kProg, "--tcp", value(), 0, 65535, "a port number in [0, 65535]"));
    } else if (arg == "--state-dir") {
      config.state_dir = value();
    } else if (arg == "--epoch-s") {
      // The period is added to steady_clock::now(); half the clock's
      // range leaves room for any uptime.
      const double max_epoch_s =
          std::chrono::duration<double>(
              std::chrono::steady_clock::duration::max())
              .count() /
          2;
      config.epoch_s = flag_value<double>(
          kProg, "--epoch-s", value(), 0.0, max_epoch_s,
          "a finite number of seconds >= 0 that fits the steady clock");
    } else if (arg == "--hysteresis") {
      config.width_hysteresis = flag_value<double>(
          kProg, "--hysteresis", value(), 1.0,
          std::numeric_limits<double>::max(), "a finite factor >= 1");
    } else if (arg == "--wal-flush-us") {
      config.wal_flush_us = static_cast<std::uint32_t>(flag_value<long long>(
          kProg, "--wal-flush-us", value(), 0,
          std::numeric_limits<std::uint32_t>::max(),
          "microseconds in [0, 4294967295]"));
    } else if (arg == "--wal-segment-bytes") {
      config.wal_segment_bytes =
          static_cast<std::uint64_t>(flag_value<long long>(
              kProg, "--wal-segment-bytes", value(), 0,
              std::numeric_limits<long long>::max(),
              "a non-negative byte count"));
    } else if (arg == "--workers") {
      // Each worker is a thread; 4096 is far past any useful count.
      config.workers = static_cast<int>(flag_value<long long>(
          kProg, "--workers", value(), 1, 4096, "a worker count in [1, 4096]"));
    } else if (arg == "--follow") {
      config.follow = value();
      try {
        acorn::service::Client::parse_endpoint(config.follow);
      } catch (const std::invalid_argument&) {
        acorn::util::bad_flag_value(
            kProg, "--follow", config.follow.c_str(),
            "unix:PATH or HOST:PORT with PORT in [1, 65535]");
      }
    } else if (arg == "--log") {
      config.log = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], arg.c_str());
      return usage(argv[0]);
    }
  }
  if (!config.tcp && config.unix_path.empty()) return usage(argv[0]);

  // Block the stop signals before start() spawns any thread, so every
  // thread inherits the mask and main alone collects them below. No
  // handler runs; a signal that arrives early stays pending.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  signal(SIGPIPE, SIG_IGN);

  acorn::service::Daemon daemon(config);
  try {
    daemon.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acornd: startup failed: %s\n", e.what());
    return 1;
  }

  if (config.tcp) {
    std::fprintf(stderr, "acornd: listening on 127.0.0.1:%d\n",
                 daemon.tcp_port());
  }
  if (!config.unix_path.empty()) {
    std::fprintf(stderr, "acornd: listening on %s\n",
                 config.unix_path.c_str());
  }

  // The tick also ends main after a Shutdown request stops the loop.
  const timespec tick{0, 100'000'000};
  while (daemon.running()) {
    if (sigtimedwait(&stop_signals, nullptr, &tick) > 0) {
      daemon.request_stop();
    }
  }
  daemon.wait();
  return 0;
}
