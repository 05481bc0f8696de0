// Bit-identity property suite for the batched candidate scan.
//
// The contract under test: CachedOracle::total_bps_batch and the
// batch-scanning ChannelAllocator::allocate overload produce EXACTLY the
// doubles the one-candidate-at-a-time path produces — same winner
// sequence, same trajectory, same final assignment — at any slice of
// the candidates, across all four sinr_interference x
// weighted_contention model combos and on degenerate networks. The
// batched totals also equal the object-at-a-time reference evaluator's.
// Equality is ==, never near.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "core/allocation.hpp"
#include "core/oracle_cache.hpp"
#include "sim/wlan_reference.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

// Global allocation counter for the zero-allocation test. Overriding
// operator new here affects this test binary only.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// std::stable_sort's temporary buffer comes from the nothrow forms.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

// GCC flags free() on operator-new memory once these are inlined; here
// operator new is malloc, so the pairing is right.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace acorn::core {
namespace {

using testutil::CellSpec;
using testutil::ScenarioBuilder;

// Random deployment spanning isolated, contending and hidden-interferer
// regimes (same shape as the oracle-cache suite, one AP larger).
ScenarioBuilder random_builder(util::Rng& rng, bool sinr, bool weighted) {
  ScenarioBuilder b;
  const int n_aps = static_cast<int>(rng.uniform_int(1, 6));
  for (int a = 0; a < n_aps; ++a) {
    CellSpec spec;
    const int n_clients = static_cast<int>(rng.uniform_int(0, 3));
    for (int c = 0; c < n_clients; ++c) {
      spec.client_losses_db.push_back(rng.uniform(78.0, 112.0));
    }
    b.cells.push_back(spec);
  }
  b.ap_ap_loss_db = rng.uniform(80.0, 140.0);
  b.cross_loss_db = rng.uniform(95.0, 140.0);
  b.config.sinr_interference = sinr;
  b.config.weighted_contention = weighted;
  return b;
}

net::Association random_association(const ScenarioBuilder& b,
                                    util::Rng& rng) {
  net::Association assoc = b.intended_association();
  const int n_aps = static_cast<int>(b.cells.size());
  for (int& owner : assoc) {
    const double roll = rng.uniform();
    if (roll < 0.15) {
      owner = net::kUnassociated;
    } else if (roll < 0.35) {
      owner = static_cast<int>(rng.uniform_int(0, n_aps - 1));
    }
  }
  return assoc;
}

// The per-candidate reference loop: one total_bps call per candidate.
ThroughputOracle per_candidate(const CachedOracle& oracle) {
  return [&oracle](const net::Association&,
                   const net::ChannelAssignment& f) {
    return oracle.total_bps(f);
  };
}

void expect_identical(const AllocationResult& want,
                      const AllocationResult& got) {
  ASSERT_EQ(want.assignment.size(), got.assignment.size());
  for (std::size_t i = 0; i < want.assignment.size(); ++i) {
    EXPECT_EQ(want.assignment[i], got.assignment[i]);
  }
  EXPECT_EQ(want.evaluations, got.evaluations);
  EXPECT_EQ(want.switches, got.switches);
  ASSERT_EQ(want.trajectory_bps.size(), got.trajectory_bps.size());
  for (std::size_t i = 0; i < want.trajectory_bps.size(); ++i) {
    // Exact: the batched scan must commit the same winner at the same
    // throughput on every step.
    EXPECT_EQ(want.trajectory_bps[i], got.trajectory_bps[i]) << "step " << i;
  }
  EXPECT_EQ(want.final_bps, got.final_bps);
}

TEST(BatchScan, TotalBpsBatchBitIdenticalToSerialFlips) {
  util::Rng rng(0xBA7C4);
  const net::ChannelPlan plan(6);
  const std::vector<net::Channel> colors = plan.all_channels();
  int checked = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const bool sinr = (trial % 2) == 1;
    const bool weighted = (trial / 2 % 2) == 1;
    const ScenarioBuilder b = random_builder(rng, sinr, weighted);
    const sim::Wlan wlan = b.build();
    const net::Association assoc = random_association(b, rng);
    const int n_aps = wlan.topology().num_aps();
    const ChannelAllocator alloc{plan};
    const net::ChannelAssignment base =
        alloc.random_assignment(n_aps, rng);

    // Every (AP, color) flip, including no-op flips to the current
    // channel (the batch path must special-case them to the base value).
    std::vector<FlipCandidate> flips;
    for (int ap = 0; ap < n_aps; ++ap) {
      for (const net::Channel& c : colors) {
        flips.push_back(FlipCandidate{ap, c});
      }
    }
    const CachedOracle oracle(wlan, assoc);
    std::vector<double> batched(flips.size(), -1.0);
    oracle.total_bps_batch(base, flips, batched);
    // The same flips in consecutive slices, each slice size on a fresh
    // oracle, the way the allocator's scan feeds them.
    const std::size_t slice_sizes[] = {1, 7, 16};
    std::vector<std::vector<double>> sliced;
    for (const std::size_t slice : slice_sizes) {
      const CachedOracle fresh(wlan, assoc);
      std::vector<double>& got = sliced.emplace_back(flips.size(), -1.0);
      for (std::size_t begin = 0; begin < flips.size(); begin += slice) {
        const std::size_t count = std::min(slice, flips.size() - begin);
        fresh.total_bps_batch(
            base, std::span<const FlipCandidate>(flips).subspan(begin, count),
            std::span<double>(got).subspan(begin, count));
      }
    }

    // Independent oracle for the serial reference, so no state the batch
    // call may have created can leak into it.
    const CachedOracle ref(wlan, assoc);
    for (std::size_t j = 0; j < flips.size(); ++j) {
      net::ChannelAssignment flipped = base;
      flipped[static_cast<std::size_t>(flips[j].ap)] = flips[j].channel;
      const double want = ref.total_bps(flipped);
      EXPECT_EQ(want, batched[j])
          << "trial " << trial << " flip " << j << " (sinr=" << sinr
          << " weighted=" << weighted << ")";
      // The oracle is unweighted UDP, so its total is the reference
      // evaluator's aggregate goodput, summed in the same cell order.
      EXPECT_EQ(sim::reference::evaluate(wlan, assoc, flipped)
                    .total_goodput_bps,
                batched[j])
          << "reference evaluator, trial " << trial << " flip " << j;
      for (std::size_t k = 0; k < sliced.size(); ++k) {
        EXPECT_EQ(want, sliced[k][j])
            << "slices of " << slice_sizes[k] << ", flip " << j;
      }
      ++checked;
    }
    const OracleCacheStats stats = oracle.stats();
    EXPECT_EQ(stats.batch_calls, 1u);
    EXPECT_EQ(stats.batch_candidates, flips.size());
  }
  // Make sure the loop actually exercised a meaningful corpus.
  EXPECT_GT(checked, 500);
}

// One model combination of the multi-base suites: sinr x weighted x
// client weights x transport, from the low four bits of `combo`.
struct Model {
  bool sinr;
  bool weighted;
  bool client_weights;
  mac::TrafficType traffic;
};

Model model_of(int combo) {
  return Model{(combo & 1) != 0, (combo & 2) != 0, (combo & 4) != 0,
               (combo & 8) != 0 ? mac::TrafficType::kTcp
                                : mac::TrafficType::kUdp};
}

// A deployment with at least two APs under one model combination.
struct MemoCase {
  ScenarioBuilder builder;
  sim::Wlan wlan;
  net::Association assoc;
  std::vector<double> weights;
  mac::TrafficType traffic;

  MemoCase(util::Rng& rng, const Model& m)
      : builder(two_or_more_aps(rng, m)),
        wlan(builder.build()),
        assoc(random_association(builder, rng)),
        traffic(m.traffic) {
    if (m.client_weights) {
      for (int c = 0; c < wlan.topology().num_clients(); ++c) {
        weights.push_back(c % 3 == 0 ? 0.0 : rng.uniform(0.1, 1.0));
      }
    }
  }

  static ScenarioBuilder two_or_more_aps(util::Rng& rng, const Model& m) {
    ScenarioBuilder b = random_builder(rng, m.sinr, m.weighted);
    while (b.cells.size() < 2) b = random_builder(rng, m.sinr, m.weighted);
    return b;
  }
};

// A base sequence that revisits earlier bases out of order and mixes in
// multi-AP jumps: a few random anchors, then each step either returns to
// an anchor or to an earlier step, or perturbs one with 1..n random APs.
std::vector<net::ChannelAssignment> base_sequence(
    util::Rng& rng, int n_aps, const std::vector<net::Channel>& colors,
    int length) {
  const auto color = [&] {
    return colors[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(colors.size()) - 1))];
  };
  std::vector<net::ChannelAssignment> seq;
  for (int i = 0; i < 3; ++i) {
    net::ChannelAssignment a(static_cast<std::size_t>(n_aps), colors.front());
    for (net::Channel& ch : a) ch = color();
    seq.push_back(a);
  }
  while (static_cast<int>(seq.size()) < length) {
    net::ChannelAssignment a = seq[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seq.size()) - 1))];
    if (rng.uniform() < 0.6) {
      const int changes = static_cast<int>(rng.uniform_int(1, n_aps));
      for (int c = 0; c < changes; ++c) {
        a[static_cast<std::size_t>(rng.uniform_int(0, n_aps - 1))] = color();
      }
    }
    seq.push_back(a);
  }
  return seq;
}

std::vector<FlipCandidate> all_flips(int n_aps,
                                     const std::vector<net::Channel>& colors) {
  std::vector<FlipCandidate> flips;
  for (int ap = 0; ap < n_aps; ++ap) {
    for (const net::Channel& c : colors) flips.push_back(FlipCandidate{ap, c});
  }
  return flips;
}

// Serial scores of every flip of `base` from an oracle that has never
// seen a batch.
std::vector<double> serial_scores(const MemoCase& mc,
                                  const net::ChannelAssignment& base,
                                  const std::vector<FlipCandidate>& flips) {
  const CachedOracle ref(mc.wlan, mc.assoc, mc.traffic, mc.weights);
  std::vector<double> want;
  for (const FlipCandidate& f : flips) {
    net::ChannelAssignment flipped = base;
    flipped[static_cast<std::size_t>(f.ap)] = f.channel;
    want.push_back(ref.total_bps(flipped));
  }
  return want;
}

TEST(BatchScan, ScanCacheMemoServesLaterBasesBitIdentically) {
  // One oracle scores a base sequence that revisits contexts out of
  // order; every batch must equal a fresh oracle's serial calls, and a
  // base rebuilt after others must be served wholly by the scan-cache
  // memo (no full base-cell evaluation).
  util::Rng rng(0x5CA7);
  const net::ChannelPlan plan(4);
  const std::vector<net::Channel> colors = plan.all_channels();
  int revisits = 0;
  for (int combo = 0; combo < 16; ++combo) {
    const MemoCase mc(rng, model_of(combo));
    const int n_aps = mc.wlan.topology().num_aps();
    const std::vector<FlipCandidate> flips = all_flips(n_aps, colors);
    const CachedOracle oracle(mc.wlan, mc.assoc, mc.traffic, mc.weights);
    const std::vector<net::ChannelAssignment> seq =
        base_sequence(rng, n_aps, colors, 14);
    for (std::size_t step = 0; step < seq.size(); ++step) {
      const bool seen_before =
          std::find(seq.begin(), seq.begin() + static_cast<long>(step),
                    seq[step]) != seq.begin() + static_cast<long>(step);
      const bool same_as_last = step > 0 && seq[step] == seq[step - 1];
      const std::uint64_t full_before = oracle.stats().cell_evals;
      std::vector<double> got(flips.size(), -1.0);
      oracle.total_bps_batch(seq[step], flips, got);
      const std::vector<double> want = serial_scores(mc, seq[step], flips);
      for (std::size_t j = 0; j < flips.size(); ++j) {
        ASSERT_EQ(want[j], got[j]) << "combo " << combo << " step " << step
                                   << " flip " << j;
      }
      if (seen_before && !same_as_last) {
        EXPECT_EQ(oracle.stats().cell_evals, full_before)
            << "combo " << combo << " step " << step;
        ++revisits;
      }
    }
    EXPECT_EQ(oracle.stats().batch_calls, seq.size());
  }
  EXPECT_GT(revisits, 16);
}

TEST(BatchScan, ScanCacheMemoSharedAcrossThreads) {
  // 2-4 threads share one oracle, each scoring its own base sequence
  // (different bases at the same time, revisits included) against
  // serial references computed up front.
  util::Rng rng(0x7EAD);
  const net::ChannelPlan plan(4);
  const std::vector<net::Channel> colors = plan.all_channels();
  for (int combo = 0; combo < 16; ++combo) {
    const MemoCase mc(rng, model_of(combo));
    const int n_aps = mc.wlan.topology().num_aps();
    const std::vector<FlipCandidate> flips = all_flips(n_aps, colors);
    const int n_threads = 2 + combo % 3;
    std::vector<std::vector<net::ChannelAssignment>> seqs;
    std::vector<std::vector<std::vector<double>>> want;
    for (int t = 0; t < n_threads; ++t) {
      seqs.push_back(base_sequence(rng, n_aps, colors, 8));
      want.emplace_back();
      for (const net::ChannelAssignment& base : seqs.back()) {
        want.back().push_back(serial_scores(mc, base, flips));
      }
    }
    const CachedOracle oracle(mc.wlan, mc.assoc, mc.traffic, mc.weights);
    std::vector<std::vector<std::vector<double>>> got(
        static_cast<std::size_t>(n_threads));
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t] {
        const auto ti = static_cast<std::size_t>(t);
        for (const net::ChannelAssignment& base : seqs[ti]) {
          std::vector<double> out(flips.size(), -1.0);
          oracle.total_bps_batch(base, flips, out);
          got[ti].push_back(std::move(out));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < n_threads; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      ASSERT_EQ(got[ti].size(), want[ti].size());
      for (std::size_t b = 0; b < want[ti].size(); ++b) {
        for (std::size_t j = 0; j < flips.size(); ++j) {
          ASSERT_EQ(want[ti][b][j], got[ti][b][j])
              << "combo " << combo << " thread " << t << " base " << b
              << " flip " << j;
        }
      }
    }
    EXPECT_EQ(oracle.stats().batch_calls,
              static_cast<std::uint64_t>(n_threads) * 8u);
  }
}

TEST(BatchScanAllocation, WarmCallOnUnchangedBaseIsAllocationFree) {
  // Once a base, its memo entries and the thread's scratch are warm,
  // scoring the same flips again, or the base itself through total_bps,
  // allocates nothing, in every model combination.
  util::Rng rng(0xA11C);
  const net::ChannelPlan plan(4);
  const std::vector<net::Channel> colors = plan.all_channels();
  for (int combo = 0; combo < 16; ++combo) {
    const MemoCase mc(rng, model_of(combo));
    const int n_aps = mc.wlan.topology().num_aps();
    const std::vector<FlipCandidate> flips = all_flips(n_aps, colors);
    const ChannelAllocator alloc{plan};
    const net::ChannelAssignment base = alloc.random_assignment(n_aps, rng);
    const CachedOracle oracle(mc.wlan, mc.assoc, mc.traffic, mc.weights);
    std::vector<double> out(flips.size(), -1.0);
    // The first call fills the memo, the second replays it.
    oracle.total_bps_batch(base, flips, out);
    oracle.total_bps_batch(base, flips, out);
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 4; ++i) {
      oracle.total_bps_batch(base, flips, out);
    }
    // total_bps on the same assignment finds that base built.
    const double total = oracle.total_bps(base);
    const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << "combo " << combo;
    // AP 0's flips come first, in color order; the one to its own color
    // scores the base itself.
    EXPECT_EQ(total, out[static_cast<std::size_t>(
                         std::ranges::find(colors, base[0]) - colors.begin())]);
  }
}

TEST(BatchScan, AllocateIdenticalToPerCandidateLoop) {
  util::Rng rng(0xA110C);
  const net::ChannelPlan plan(6);
  for (int trial = 0; trial < 12; ++trial) {
    const bool sinr = (trial % 2) == 1;
    const bool weighted = (trial / 2 % 2) == 1;
    const ScenarioBuilder b = random_builder(rng, sinr, weighted);
    const sim::Wlan wlan = b.build();
    const net::Association assoc = random_association(b, rng);
    const int n_aps = wlan.topology().num_aps();

    const ChannelAllocator alloc{plan};
    const net::ChannelAssignment initial = alloc.random_assignment(n_aps, rng);
    const CachedOracle oracle(wlan, assoc);
    const AllocationResult want =
        alloc.allocate(wlan, assoc, initial, per_candidate(oracle));

    const CachedOracle fresh(wlan, assoc);
    const AllocationResult got = alloc.allocate(wlan, assoc, initial, fresh);
    expect_identical(want, got);
    // The batched scan must actually have engaged (unless the run had
    // nothing to scan, which random non-empty deployments never hit).
    if (want.evaluations > 1) {
      EXPECT_GT(fresh.stats().batch_calls, 0u);
    }
  }
}

TEST(BatchScan, DefaultAllocatePathUsesBatchedScan) {
  // The no-oracle allocate() overload routes through a CachedOracle and
  // the batched scan — and must still match the exact evaluator called
  // once per candidate.
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const ChannelAllocator alloc{net::ChannelPlan(8)};
  util::Rng rng(7);
  const net::ChannelAssignment initial = alloc.random_assignment(2, rng);
  const AllocationResult batched = alloc.allocate(wlan, assoc, initial);

  const AllocationResult want = alloc.allocate(
      wlan, assoc, initial,
      [&wlan](const net::Association& a, const net::ChannelAssignment& f) {
        return wlan.evaluate(a, f).total_goodput_bps;
      });
  expect_identical(want, batched);
}

TEST(BatchScan, DegenerateZeroGoodputNetworks) {
  // Nobody associated: total goodput is exactly 0 for every assignment;
  // the scan must terminate with zero switches, identically on both
  // paths. Then the same with clients present but links so poor every
  // cell pins to the PER cap (tiny but nonzero goodput).
  util::Rng rng(0xDE6E);
  const net::ChannelPlan plan(6);
  for (const double loss : {1e9, 190.0}) {
    ScenarioBuilder b;
    b.cells = {CellSpec{{loss}}, CellSpec{{loss, loss}}, CellSpec{{}}};
    b.config.sinr_interference = true;
    const sim::Wlan wlan = b.build();
    net::Association assoc = b.intended_association();
    if (loss == 1e9) {
      for (int& owner : assoc) owner = net::kUnassociated;
    }
    const ChannelAllocator alloc{plan};
    const net::ChannelAssignment initial = alloc.random_assignment(3, rng);
    const CachedOracle o1(wlan, assoc);
    const CachedOracle o2(wlan, assoc);
    const AllocationResult want =
        alloc.allocate(wlan, assoc, initial, per_candidate(o1));
    const AllocationResult got = alloc.allocate(wlan, assoc, initial, o2);
    expect_identical(want, got);
  }
}

TEST(BatchScan, RejectsMismatchedInputs) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const sim::Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const CachedOracle oracle(wlan, assoc);
  const net::ChannelAssignment base = {net::Channel::basic(0),
                                       net::Channel::basic(1)};
  const std::vector<FlipCandidate> flips = {
      FlipCandidate{0, net::Channel::basic(2)}};
  std::vector<double> out(2, 0.0);
  EXPECT_THROW(oracle.total_bps_batch(base, flips, out),
               std::invalid_argument);
  out.resize(1);
  const std::vector<FlipCandidate> bad_ap = {
      FlipCandidate{9, net::Channel::basic(2)}};
  EXPECT_THROW(oracle.total_bps_batch(base, bad_ap, out),
               std::invalid_argument);

  // Oracle bound to a different association is rejected by allocate.
  net::Association other = assoc;
  for (int& owner : other) owner = net::kUnassociated;
  const CachedOracle mismatched(wlan, other);
  const ChannelAllocator alloc{net::ChannelPlan(4)};
  EXPECT_THROW(alloc.allocate(wlan, assoc, base, mismatched),
               std::invalid_argument);
}

}  // namespace
}  // namespace acorn::core
