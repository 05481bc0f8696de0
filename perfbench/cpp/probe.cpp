// Small probes shared by the workloads: the phy layer's table build and
// the host-drift canary run.py times before and after every workload.
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common.hpp"
#include "phy/link.hpp"
#include "phy/rate_table.hpp"

namespace perfbench {

using namespace acorn;

namespace {

void build_rate_tables() {
  const phy::LinkModel link;
  const phy::RateTable narrow(link, phy::ChannelWidth::k20MHz,
                              phy::GuardInterval::kLong800ns);
  const phy::RateTable wide(link, phy::ChannelWidth::k40MHz,
                            phy::GuardInterval::kLong800ns);
  if (narrow.segments().empty() || wide.segments().empty()) {
    throw std::runtime_error("empty rate table");
  }
}

}  // namespace

double rate_table_ms() {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = now_ns();
    build_rate_tables();
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return median(ms);
}

std::pair<double, double> host_canary() {
  // ALU: a fixed xorshift chain the compiler cannot fold away.
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double alu_ms = static_cast<double>(now_ns() - t0) / 1e6;

  // Memory latency: a dependent chase through one random 16 MiB cycle
  // (Sattolo's shuffle with a fixed LCG, so every host chases the same
  // cycle).
  constexpr std::size_t kSlots = 2u << 20;
  std::vector<std::uint64_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0);
  std::uint64_t lcg = 12345;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t j = static_cast<std::size_t>((lcg >> 33) % i);
    std::swap(next[i], next[j]);
  }
  constexpr int kSteps = 1'000'000;
  std::uint64_t p = 0;
  const std::int64_t t1 = now_ns();
  for (int i = 0; i < kSteps; ++i) p = next[p];
  const double mem_ns = static_cast<double>(now_ns() - t1) / kSteps;
  // Fold both chains into the result so neither loop is dead code.
  return {alu_ms + static_cast<double>((x ^ p) & 1u) * 1e-9, mem_ns};
}

}  // namespace perfbench
