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

#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>

#include "service/daemon.hpp"

namespace {

acorn::service::Daemon* g_daemon = nullptr;

void on_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_stop();
}

[[noreturn]] void bad_value(const char* flag, const char* text,
                            const char* expected) {
  std::fprintf(stderr, "acornd: invalid value '%s' for %s: expected %s\n",
               text, flag, expected);
  std::exit(2);
}

/// The whole of `text` as an integer in [lo, hi], or exit 2.
long long parse_int(const char* flag, const char* text, long long lo,
                    long long hi, const char* expected) {
  const char* end = text + std::strlen(text);
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    bad_value(flag, text, expected);
  }
  return v;
}

/// The whole of `text` as a finite double in [lo, hi], or exit 2.
double parse_double(const char* flag, const char* text, double lo,
                    double hi, const char* expected) {
  const char* end = text + std::strlen(text);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < lo ||
      v > hi) {
    bad_value(flag, text, expected);
  }
  return v;
}

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
               "  --workers M        shard execution: M pooled workers "
               "shared\n"
               "                     by every WLAN (default: hardware "
               "threads;\n"
               "                     0 = one dedicated thread per WLAN)\n"
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
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--unix") {
      config.unix_path = value();
    } else if (arg == "--tcp") {
      config.tcp = true;
      config.tcp_port = static_cast<std::uint16_t>(parse_int(
          "--tcp", value(), 0, 65535, "a port number in [0, 65535]"));
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
      config.epoch_s = parse_double(
          "--epoch-s", value(), 0.0, max_epoch_s,
          "a finite number of seconds >= 0 that fits the steady clock");
    } else if (arg == "--hysteresis") {
      config.width_hysteresis =
          parse_double("--hysteresis", value(), 1.0,
                       std::numeric_limits<double>::max(),
                       "a finite factor >= 1");
    } else if (arg == "--wal-flush-us") {
      config.wal_flush_us = static_cast<std::uint32_t>(
          parse_int("--wal-flush-us", value(), 0,
                    std::numeric_limits<std::uint32_t>::max(),
                    "microseconds in [0, 4294967295]"));
    } else if (arg == "--wal-segment-bytes") {
      config.wal_segment_bytes = static_cast<std::uint64_t>(
          parse_int("--wal-segment-bytes", value(), 0,
                    std::numeric_limits<long long>::max(),
                    "a non-negative byte count"));
    } else if (arg == "--workers") {
      // Each worker is a thread; 4096 is far past any useful count.
      config.workers = static_cast<int>(parse_int(
          "--workers", value(), 0, 4096, "a worker count in [0, 4096]"));
    } else if (arg == "--follow") {
      config.follow = value();
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

  acorn::service::Daemon daemon(config);
  try {
    daemon.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acornd: startup failed: %s\n", e.what());
    return 1;
  }

  g_daemon = &daemon;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);

  if (config.tcp) {
    std::fprintf(stderr, "acornd: listening on 127.0.0.1:%d\n",
                 daemon.tcp_port());
  }
  if (!config.unix_path.empty()) {
    std::fprintf(stderr, "acornd: listening on %s\n",
                 config.unix_path.c_str());
  }

  daemon.wait();
  g_daemon = nullptr;
  return 0;
}
