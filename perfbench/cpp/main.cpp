// perfbench: runs one round of one benchmark workload in this process and
// prints one JSON line (the raw report). run.py starts several rounds per
// run, each in a fresh process, combines them, checks the outputs against
// the recorded expectations and prints the benchmark's result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//   perfbench --workload NAME --check --workdir DIR
//   perfbench --canary
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"

namespace perfbench {

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << names_[static_cast<std::size_t>(s.name)] << ' ' << s.item << ' '
        << s.start_ns << ' ' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

// Counts and ratios every traced run reports, so that each workload
// prints the same names; a layer idle in the workload reads 0.
void fill_layer_defaults(Report& report) {
  static const char* const kZeros[][2] = {
      {"service.events", "count"},
      {"service.errors", "count"},
      {"service.wal.syncs", "count"},
      {"service.wal.events_per_sync", "events/sync"},
      {"core.epochs", "count"},
      {"core.alloc.evaluations", "count"},
      {"core.decisions", "count"},
      {"core.oracle.cell_hit_ratio", "ratio"},
      {"core.oracle.share_hit_ratio", "ratio"},
      {"core.alloc.batch_full_ratio", "ratio"},
      {"baselines.kai.evaluations", "count"},
      {"baseband.bit_errors", "count"},
      {"baseband.packet_errors", "count"},
  };
  for (const auto& row : kZeros) {
    if (report.layers.count(row[0]) == 0) {
      report.layers[row[0]] = Metric{0.0, row[1], 0, true};
    }
  }
}

// Pin the workload, and every thread it starts, to the last CPU it may
// use (run.py gives each round a single CPU, in turn). On a shared VM,
// threads that hand work to each other across vCPUs wait for wake-up
// interrupts the host can delay by milliseconds; that showed as 12-17%
// steal and threefold swings in durable throughput. On one CPU the same
// handoffs are local context switches, and the process CPU clock counts
// only the time the program held that CPU. The last CPU rather than the
// first when several are allowed: CPU 0 takes most device interrupts.
bool pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return ::sched_setaffinity(0, sizeof(one), &one) == 0;
    }
  }
  return false;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ',';
    first = false;
    out += "\"" + json_escape(name) + "\":{\"value\":" +
           json_number(metric.value) + ",\"unit\":\"" +
           json_escape(metric.unit) +
           "\",\"samples\":" + std::to_string(metric.samples) +
           ",\"exact\":" + (metric.exact ? "true" : "false") + "}";
  }
  return out + "}";
}

std::string json_list(const std::vector<std::int64_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(v[i]);
  }
  return out + "]";
}

void print_report(const Options& opt, const Report& r, double rss_mb) {
  const perfbench::Timing& t = r.timing;
  std::string out = "{\"workload\":\"" + json_escape(opt.workload) +
                    "\",\"seed\":" + std::to_string(opt.seed) +
                    ",\"trace\":" + (opt.trace ? "1" : "0") +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"" + json_escape(r.failures[i]) + "\"";
  }
  out += "],\"setup_s\":" + json_number(t.setup_s) +
         ",\"setup_wall_s\":" + json_number(t.setup_wall_s) +
         ",\"part_units\":" + json_list(t.part_units) +
         ",\"part_cpu_ns\":" + json_list(t.part_cpu_ns) +
         ",\"part_wall_ns\":" + json_list(t.part_wall_ns) +
         ",\"latency_p50_us\":" + json_number(perfbench::quantile(t.item_us, 0.50)) +
         ",\"latency_p99_us\":" + json_number(perfbench::quantile(t.item_us, 0.99)) +
         ",\"items\":" + std::to_string(t.item_us.size()) +
         ",\"peak_rss_mb\":" + json_number(rss_mb) +
         ",\"layers\":" + metrics_json(r.layers) +
         ",\"info\":" + metrics_json(r.info) + ",\"checks\":{";
  bool first = true;
  for (const auto& [name, value] : r.checks) {
    if (!first) out += ',';
    first = false;
    out += "\"" + json_escape(name) + "\":\"" + json_escape(value) + "\"";
  }
  out += "}";
  if (t.independent_items) {
    std::string items;
    for (const double us : t.item_us) {
      items += (items.empty() ? "" : ",") + json_number(us);
    }
    out += ",\"item_us\":[" + items + "]";
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--state-root DIR]\n"
               "       perfbench --workload NAME --check --workdir DIR\n"
               "       perfbench --canary\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string workdir;
  bool canary = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--workdir") {
      workdir = value();
    } else if (arg == "--state-root") {
      opt.state_root = value();
    } else if (arg == "--canary") {
      canary = true;
    } else if (arg == "--check") {
      check = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }

  if (canary) {
    const auto [alu_ms, mem_ns] = perfbench::host_canary();
    std::printf("{\"alu_ms\":%s,\"mem_ns\":%s}\n", json_number(alu_ms).c_str(),
                json_number(mem_ns).c_str());
    return 0;
  }
  if (!(opt.seconds > 0.0) || opt.seconds > 120.0) {
    usage("--seconds must be in (0, 120]");
  }
  if (!workdir.empty() && ::chdir(workdir.c_str()) != 0) {
    std::perror("perfbench: chdir to --workdir");
    return 2;
  }
  if (!pin_to_one_cpu()) {
    std::perror("perfbench: sched_setaffinity");
    return 2;
  }

  struct Workload {
    const char* name;
    Report (*run)(const Options&, perfbench::Tracer*);
    void (*check)(Report&);
  };
  static const Workload kWorkloads[] = {
      {"wlan_durable", perfbench::run_wlan_durable,
       perfbench::check_wlan_durable},
      {"fleet_churn", perfbench::run_fleet_churn, perfbench::check_fleet_churn},
      {"offline_gap", perfbench::run_offline_gap, perfbench::check_offline_gap},
      {"baseband_coded", perfbench::run_baseband_coded,
       perfbench::check_baseband_coded},
  };
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage(("unknown workload " + opt.workload).c_str());

  try {
    Report report;
    perfbench::Tracer tracer;
    if (check) {
      workload->check(report);
    } else {
      report = workload->run(opt, opt.trace ? &tracer : nullptr);
    }
    const double rss_mb = perfbench::peak_rss_mb();
    if (opt.trace && !check) {
      fill_layer_defaults(report);
      const std::string path = "spans_" + opt.workload + ".txt";
      if (!tracer.write(path)) {
        report.fail("could not write span file " + path);
      }
      perfbench::set_metric(report.info, "trace.spans",
                            static_cast<double>(tracer.size()), "count", 1);
    }
    for (const std::string& f : report.failures) {
      std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
    }
    print_report(opt, report, rss_mb);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
}
