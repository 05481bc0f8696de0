// Built-in observability for acornd: a lock-free log2 latency histogram
// and the daemon-wide event counters. Everything is std::atomic with
// relaxed ordering — the counters are statistics, not synchronization,
// and the event loop must never stall on them.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <vector>

namespace acorn::service {

/// Log2-bucketed latency histogram: bucket i counts samples whose
/// microsecond value v satisfies 2^i <= v+1 < 2^(i+1) (bucket 0 holds
/// sub-microsecond completions). 32 buckets cover ~1 hour.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  void record(std::chrono::steady_clock::duration d) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(d)
                        .count();
    record_us(us < 0 ? 0 : static_cast<std::uint64_t>(us));
  }

  void record_us(std::uint64_t us) {
    const int bucket = 63 - std::countl_zero(us | 1);
    buckets_[static_cast<std::size_t>(
                 bucket >= static_cast<int>(kBuckets)
                     ? static_cast<int>(kBuckets) - 1
                     : bucket)]
        .fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<std::uint64_t> snapshot() const {
    std::vector<std::uint64_t> out(kBuckets);
    for (std::size_t i = 0; i < kBuckets; ++i) {
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Approximate p-quantile (p in [0, 1]) in microseconds from a log2
/// histogram snapshot: the upper edge of the bucket holding the
/// quantile sample, 0 when the histogram is empty. Good to a factor of
/// two — enough for the fleet dashboards and --log lines it feeds.
inline double latency_percentile_us(const std::vector<std::uint64_t>& buckets,
                                    double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  const double target = p * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (static_cast<double>(seen) >= target) {
      return static_cast<double>(1ull << (i + 1));
    }
  }
  return static_cast<double>(1ull << buckets.size());
}

/// Daemon-wide counters; shard-local counters (epochs, switches, oracle
/// hits) live in the shards and are aggregated at stats time.
struct ServiceMetrics {
  std::atomic<std::uint64_t> frames_rx{0};
  std::atomic<std::uint64_t> events_total{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  LatencyHistogram request_latency;
  /// Wall time of completed reconfiguration epochs across all shards
  /// (every pooled worker records into the same histogram).
  LatencyHistogram epoch_latency;
  /// Group-commit observability, fed by every SyncCoordinator commit:
  /// how many fsyncs hit the device, how many logged events each one
  /// acknowledged, and how long the write+sync took.
  std::atomic<std::uint64_t> wal_syncs{0};
  std::atomic<std::uint64_t> wal_coalesced_events{0};
  /// Distribution of events-acknowledged-per-fsync (the coalescing
  /// factor; recorded via record_us with the batch size as the value).
  LatencyHistogram wal_batch_events;
  /// Wall time of each WAL write+fdatasync.
  LatencyHistogram wal_sync_latency;
};

}  // namespace acorn::service
