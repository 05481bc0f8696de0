// Shared helpers for the experiment benches: banner printing, the canned
// deployments of the paper's evaluation section, a tiny command-line
// parser (--threads N, --smoke) and one JSON-lines row writer behind the
// BENCH_baseband.json, BENCH_network.json and BENCH_service.json
// emitters, so the perf trajectory is tracked across changes.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>

#include "sim/scenario.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace acorn::bench {

inline constexpr std::uint64_t kDefaultSeed = 0xAC0121;

/// Options shared by the baseband benches. `--threads N` sets the packet
/// driver's thread count (0 = hardware concurrency); `--smoke` shrinks
/// packet counts so the bench doubles as a CTest perf_smoke target.
struct BenchOptions {
  int threads = 1;
  bool smoke = false;
};

/// Set once parse_options saw --smoke: every row this run emits is
/// stamped `"scale":"smoke"` instead of `"full"`.
inline bool g_smoke_scale = false;

/// A missing, malformed or out-of-range --threads value exits 2 naming
/// the flag.
inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
      g_smoke_scale = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opts.threads = static_cast<int>(util::flag_value<long long>(
          argv[0], "--threads", util::next_flag_value(argv[0], argc, argv, i),
          0, 4096, "a thread count in [0, 4096]"));
    }
  }
  return opts;
}

/// Monotonic stopwatch for the throughput records.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// CPU time of the calling thread, in seconds.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// `text` without anything that would break a JSON string (quotes,
/// backslashes, control bytes) and without edge spaces.
inline std::string json_safe(const std::string& text) {
  std::string clean;
  for (const char ch : text) {
    if (ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20) {
      continue;
    }
    clean += ch;
  }
  const std::size_t b = clean.find_first_not_of(' ');
  if (b == std::string::npos) return std::string();
  return clean.substr(b, clean.find_last_not_of(' ') - b + 1);
}

/// Hardware context stamped into every emitted JSON row, so records
/// taken on a 1-core box are distinguishable from multi-core runs
/// without hand-maintained row relabelling (the old `*_determinism_1core`
/// convention).
struct HwContext {
  int hw_threads = 0;
  std::string cpu;  // "model name" from /proc/cpuinfo; empty if unreadable
};

inline const HwContext& hw_context() {
  static const HwContext ctx = [] {
    HwContext c;
    c.hw_threads = static_cast<int>(std::thread::hardware_concurrency());
    std::FILE* f = std::fopen("/proc/cpuinfo", "r");
    if (f != nullptr) {
      char line[256];
      while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "model name", 10) != 0) continue;
        const char* colon = std::strchr(line, ':');
        if (colon != nullptr) c.cpu = json_safe(colon + 1);
        break;
      }
      std::fclose(f);
    }
    return c;
  }();
  return ctx;
}

/// Append one JSON row: the bench and case names and the label, then
/// `fields` (empty or starting with ','), then the provenance of the run:
/// the recording hardware (`hw_threads`, `cpu`), the source revision
/// (`revision`, from ACORN_BENCH_REVISION; left out when that is unset)
/// and the bench scale (`scale`: `smoke` under --smoke, else `full`).
/// The row goes to the file ACORN_BENCH_JSON names, else to
/// `default_path` — but a --smoke run writes only to the former, so a
/// smoke run from the source tree leaves the tracked rows alone. The
/// label is `label_override`, else ACORN_BENCH_LABEL, else `smoke` for
/// a --smoke run and `current` for a full one.
inline void emit_row(const char* default_path, const std::string& bench,
                     const std::string& case_name, const char* label_override,
                     const std::string& fields) {
  const char* path = std::getenv("ACORN_BENCH_JSON");
  if (path == nullptr && g_smoke_scale) {
    static bool noted = false;
    if (!noted) {
      std::printf("smoke run with ACORN_BENCH_JSON unset: no rows written\n");
      noted = true;
    }
    return;
  }
  std::FILE* f = std::fopen(path != nullptr ? path : default_path, "a");
  if (f == nullptr) return;
  const char* label = label_override != nullptr
                          ? label_override
                          : std::getenv("ACORN_BENCH_LABEL");
  if (label == nullptr) label = g_smoke_scale ? "smoke" : "current";
  const HwContext& hw = hw_context();
  const char* revision = std::getenv("ACORN_BENCH_REVISION");
  const std::string revision_field =
      revision != nullptr ? ",\"revision\":\"" + json_safe(revision) + "\""
                          : std::string();
  std::fprintf(f,
               "{\"bench\":\"%s\",\"case\":\"%s\",\"label\":\"%s\"%s"
               ",\"hw_threads\":%d,\"cpu\":\"%s\"%s,\"scale\":\"%s\"}\n",
               bench.c_str(), case_name.c_str(), label, fields.c_str(),
               hw.hw_threads, hw.cpu.c_str(), revision_field.c_str(),
               g_smoke_scale ? "smoke" : "full");
  std::fclose(f);
}

/// A row of BENCH_baseband.json. `samples` counts complex baseband
/// samples pushed through the chain, so msamples_per_sec tracks the
/// sample-level work independent of packet size. `extra_json` must be
/// empty or start with ','.
inline void emit_throughput(const std::string& bench,
                            const std::string& case_name, double seconds,
                            std::int64_t packets, std::int64_t samples,
                            int threads,
                            const std::string& extra_json = std::string()) {
  const double pps = seconds > 0.0 ? static_cast<double>(packets) / seconds
                                   : 0.0;
  const double msps = seconds > 0.0
                          ? static_cast<double>(samples) / seconds / 1e6
                          : 0.0;
  char fields[256];
  std::snprintf(fields, sizeof(fields),
                ",\"threads\":%d,\"packets\":%lld,\"seconds\":%.9f,"
                "\"packets_per_sec\":%.1f,\"msamples_per_sec\":%.3f",
                threads, static_cast<long long>(packets), seconds, pps, msps);
  emit_row("BENCH_baseband.json", bench, case_name, nullptr,
           fields + extra_json);
}

/// A row of BENCH_network.json for the network-layer scenario sweeps:
/// `evals` counts full-network Wlan evaluations pushed through the
/// engine. The label is usually passed explicitly ("seed" for the
/// reference evaluator rows, "after" for the flat engine) because one
/// bench run times both implementations. `extra_json` must be empty or
/// start with ','.
inline void emit_evals(const std::string& bench,
                       const std::string& case_name, double seconds,
                       std::int64_t evals, int threads,
                       const char* label_override = nullptr,
                       const std::string& extra_json = std::string()) {
  const double eps = seconds > 0.0 ? static_cast<double>(evals) / seconds
                                   : 0.0;
  char fields[192];
  std::snprintf(fields, sizeof(fields),
                ",\"threads\":%d,\"evals\":%lld,\"seconds\":%.9f,"
                "\"evals_per_sec\":%.1f",
                threads, static_cast<long long>(evals), seconds, eps);
  emit_row("BENCH_network.json", bench, case_name, label_override,
           fields + extra_json);
}

/// A row of BENCH_service.json for the acornd protocol benches: `events`
/// counts request frames fully round-tripped (sent, dispatched,
/// replied). `extra_json` lets a caller attach bench-specific fields
/// (fleet size, worker count, epoch percentiles); it must be empty or
/// start with ','.
inline void emit_events(const std::string& bench,
                        const std::string& case_name, double seconds,
                        std::int64_t events,
                        const char* label_override = nullptr,
                        const std::string& extra_json = std::string()) {
  const double eps = seconds > 0.0 ? static_cast<double>(events) / seconds
                                   : 0.0;
  char fields[160];
  std::snprintf(fields, sizeof(fields),
                ",\"events\":%lld,\"seconds\":%.9f,\"events_per_sec\":%.1f",
                static_cast<long long>(events), seconds, eps);
  emit_row("BENCH_service.json", bench, case_name, label_override,
           fields + extra_json);
}

inline void banner(const std::string& experiment,
                   const std::string& paper_claim,
                   std::uint64_t seed = kDefaultSeed) {
  std::printf("\n==================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("seed: %llu\n", static_cast<unsigned long long>(seed));
  std::printf("==================================================\n");
}

inline std::string mbps(double bps, int precision = 2) {
  return util::TextTable::num(bps / 1e6, precision);
}

/// The paper's Topology 1: AP0 serves poor clients, AP1 good ones,
/// cells isolated from each other.
inline sim::ScenarioBuilder topology1() {
  sim::ScenarioBuilder b;
  b.cells = {
      sim::CellSpec{{sim::kPoorLinkLoss, sim::kPoorLinkLoss + 0.2}},
      sim::CellSpec{{sim::kGoodLinkLoss, sim::kGoodLinkLoss + 2.0}}};
  return b;
}

/// The paper's Topology 2: five APs mixing good, marginal and poor cells.
inline sim::ScenarioBuilder topology2() {
  sim::ScenarioBuilder b;
  b.cells = {
      sim::CellSpec{{sim::kGoodLinkLoss, sim::kGoodLinkLoss + 2.0}},
      sim::CellSpec{{sim::kGoodLinkLoss + 1.0}},
      sim::CellSpec{{sim::kGoodLinkLoss + 3.0}},
      sim::CellSpec{{sim::kPoorLinkLoss, sim::kPoorLinkLoss + 0.2}},
      sim::CellSpec{{sim::kWeakLinkLoss}},
  };
  return b;
}

/// The Fig. 11 dense deployment: three mutually contending APs, one good
/// client and two poor ones.
inline sim::ScenarioBuilder dense3() {
  sim::ScenarioBuilder b;
  b.cells = {sim::CellSpec{{sim::kGoodLinkLoss}},
             sim::CellSpec{{sim::kPoorLinkLoss}},
             sim::CellSpec{{sim::kPoorLinkLoss + 0.5}}};
  b.ap_ap_loss_db = 85.0;
  return b;
}

}  // namespace acorn::bench
