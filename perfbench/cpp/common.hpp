// Shared plumbing of the benchmark runner: clocks, sample statistics, the
// in-memory span recorder of the traced mode, and the report every
// workload fills in and main.cpp prints as one JSON line.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), in nanoseconds.
inline std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time of the calling thread, in nanoseconds.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// A point in time, or an interval, on both clocks the benchmark reads.
struct Stamp {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;

  static Stamp now() { return Stamp{now_ns(), process_cpu_ns()}; }
};

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// hits / (hits + misses), 0 when nothing was looked up.
inline double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

/// FNV-1a over raw bytes: a compact fingerprint for recorded outputs.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_value(const T& v, std::uint64_t h) {
  return fnv1a(&v, sizeof(v), h);
}

/// In-memory span recorder of the traced mode. Every span adds to its
/// name's total; the raw (name, item, start, end) records are kept up to
/// kMaxSpans (6 MiB) and written out when the run ends.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 1u << 18;

  struct Span {
    int name = 0;
    std::uint32_t item = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  int name_id(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    names_.push_back(name);
    totals_.push_back(0);
    return static_cast<int>(names_.size() - 1);
  }

  void record(int name, std::uint32_t item, std::int64_t start_ns,
              std::int64_t end_ns) {
    totals_[static_cast<std::size_t>(name)] += end_ns - start_ns;
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Span{name, item, start_ns, end_ns});
    } else {
      ++dropped_;
    }
  }

  /// Sum of span durations of one name, in nanoseconds.
  std::int64_t total_ns(const std::string& name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return totals_[i];
    }
    return 0;
  }

  std::size_t size() const { return spans_.size() + dropped_; }

  /// One `name item start_ns end_ns` line per kept span.
  bool write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::int64_t> totals_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// Times one call when a tracer is attached; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int name, std::uint32_t item)
      : tracer_(tracer), name_(name), item_(item),
        start_(tracer != nullptr ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->record(name_, item_, start_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int name_;
  std::uint32_t item_;
  std::int64_t start_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
  /// A count that every round of a run must repeat exactly (run.py
  /// checks it across rounds).
  bool exact = false;
};

/// What one round timed. A run is several rounds, each in a fresh
/// process on the same inputs, so part k of one round does the same work
/// as part k of every other round. The round's process and every thread
/// it starts share one CPU, so the process CPU clock leaves out the time
/// the host or another process held that CPU. Tenants that share the
/// host's caches still slow a round down, and never speed it up, so
/// run.py keeps the fastest repetition of the same work over the rounds.
struct Timing {
  static constexpr std::size_t kParts = 16;

  /// Everything before the first timed item, warm-up slice included, on
  /// the CPU clock (`setup_s`) and on the wall clock.
  double setup_s = 0.0;
  double setup_wall_s = 0.0;
  /// Work units of each part and its duration on both clocks. Part k is
  /// items [k * n / parts, (k + 1) * n / parts) of the n timed items.
  std::vector<std::int64_t> part_units;
  std::vector<std::int64_t> part_cpu_ns;
  std::vector<std::int64_t> part_wall_ns;
  /// CPU-clock latency of every timed item (request, scenario or call) in
  /// input order, in microseconds.
  std::vector<double> item_us;
  /// Offline items are calls of their own, whose time does not depend on
  /// the items around them, unlike pipelined requests. Their latencies go
  /// into the report, so that run.py can keep each call's fastest time.
  bool independent_items = false;

  /// `done[i]` is the time on both clocks from the first timed item's
  /// start to the i-th completion (ascending); each completion is
  /// `units_each` units.
  void set_parts(const std::vector<Stamp>& done, std::int64_t units_each) {
    const std::size_t n = done.size();
    const std::size_t parts = std::min(kParts, n);
    part_units.clear();
    part_cpu_ns.clear();
    part_wall_ns.clear();
    for (std::size_t k = 0; k < parts; ++k) {
      const std::size_t a = k * n / parts;
      const std::size_t b = (k + 1) * n / parts;
      const Stamp from = a == 0 ? Stamp{} : done[a - 1];
      part_units.push_back(static_cast<std::int64_t>(b - a) * units_each);
      part_cpu_ns.push_back(done[b - 1].cpu_ns - from.cpu_ns);
      part_wall_ns.push_back(done[b - 1].wall_ns - from.wall_ns);
    }
  }

  /// Set-up ran from `t0` until now.
  void set_setup(const Stamp& t0) {
    const Stamp t1 = Stamp::now();
    setup_s = static_cast<double>(t1.cpu_ns - t0.cpu_ns) / 1e9;
    setup_wall_s = static_cast<double>(t1.wall_ns - t0.wall_ns) / 1e9;
  }

  std::int64_t units() const {
    std::int64_t u = 0;
    for (const std::int64_t x : part_units) u += x;
    return u;
  }
  std::int64_t wall_ns() const {
    std::int64_t t = 0;
    for (const std::int64_t x : part_wall_ns) t += x;
    return t;
  }
};

/// What one workload round hands back to main.cpp.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// First few failure descriptions (stderr and the raw report).
  std::vector<std::string> failures;
  Timing timing;
  std::map<std::string, Metric> layers;
  /// Outputs compared against the recorded expectations by run.py.
  std::map<std::string, std::string> checks;
  /// Extra figures printed beside the metrics (never gated).
  std::map<std::string, Metric> info;

  void fail(const std::string& what, std::int64_t n = 1) {
    failed += n;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Run-wide settings parsed from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Nominal length of the round's timed section: its work is this many
  /// seconds at the workload's nominal rate, so every round of every run
  /// with the same value does the same work.
  double seconds = 1.0;
  bool trace = false;
  /// wlan_durable: existing directory to hold the WAL instead of a
  /// private tmpfs mount (refused unless it is tmpfs).
  std::string state_root;
};

/// Timed items of a round of `seconds` at `rate_per_s` items per second.
inline std::size_t items_for(double seconds, double rate_per_s) {
  return std::max(Timing::kParts,
                  static_cast<std::size_t>(seconds * rate_per_s));
}

// Workloads (online.cpp, offline.cpp): one round each.
Report run_wlan_durable(const Options& opt, Tracer* tracer);
Report run_fleet_churn(const Options& opt, Tracer* tracer);
Report run_offline_gap(const Options& opt, Tracer* tracer);
Report run_baseband_coded(const Options& opt, Tracer* tracer);

/// Recorded-expectation check cases (fixed inputs, independent of
/// --seed), run by run.py in a process of their own.
void check_wlan_durable(Report& report);
void check_fleet_churn(Report& report);
void check_offline_gap(Report& report);
void check_baseband_coded(Report& report);

// Probes (probe.cpp).
/// Median time of building fresh 20 and 40 MHz phy::RateTables, in ms.
double rate_table_ms();
/// Fixed ALU loop and memory-latency chase: host drift canary.
std::pair<double, double> host_canary();

inline void set_metric(std::map<std::string, Metric>& m,
                       const std::string& name, double value,
                       const std::string& unit, std::int64_t samples) {
  m[name] = Metric{value, unit, samples};
}

/// A count the round's inputs fix, which every round must repeat.
inline void set_count(std::map<std::string, Metric>& m,
                      const std::string& name, double value,
                      std::int64_t samples) {
  m[name] = Metric{value, "count", samples, true};
}

/// tracing.overhead_pct: traced minus untraced time per unit of work.
inline void set_overhead(std::map<std::string, Metric>& m,
                         const Timing& untraced, std::int64_t traced_ns,
                         std::int64_t traced_units) {
  const double u = static_cast<double>(untraced.wall_ns()) /
                   static_cast<double>(untraced.units());
  const double t =
      static_cast<double>(traced_ns) / static_cast<double>(traced_units);
  set_metric(m, "tracing.overhead_pct", 100.0 * (t - u) / u, "%",
             traced_units);
}

}  // namespace perfbench
