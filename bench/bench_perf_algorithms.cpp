// Runtime cost of the building blocks (google-benchmark): the FFT, the
// sample-level BERMAC packet chain, link-model PER evaluation, beacon
// construction, Algorithm 1 association, Algorithm 2 allocation, and a
// full auto-configuration pass. Establishes that ACORN's control plane
// is cheap enough to run at the paper's 30-minute period (it is
// microseconds-to-milliseconds).
#include <benchmark/benchmark.h>

#include "baseband/bermac.hpp"
#include "baseband/fft.hpp"
#include "common.hpp"
#include "core/controller.hpp"
#include "phy/rate_control.hpp"
#include "sim/mgmt.hpp"

using namespace acorn;

namespace {

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<baseband::Cx> data(n);
  for (auto& x : data) x = baseband::Cx(rng.normal(), rng.normal());
  for (auto _ : state) {
    baseband::fft_in_place(data);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Fft)->Arg(64)->Arg(128)->Arg(1024);

void BM_BermacPacket(benchmark::State& state) {
  baseband::BermacConfig cfg;
  cfg.width = state.range(0) == 20 ? phy::ChannelWidth::k20MHz
                                   : phy::ChannelWidth::k40MHz;
  cfg.packets = 1;
  cfg.packet_bytes = 1500;
  cfg.tx_dbm = 10.0;
  cfg.path_loss_db = 90.0;
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_bermac(cfg, rng).bit_errors);
  }
}
BENCHMARK(BM_BermacPacket)->Arg(20)->Arg(40);

void BM_LinkPer(benchmark::State& state) {
  const phy::LinkModel link;
  double snr = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(link.per(phy::mcs(7), snr));
    snr = snr > 30.0 ? 5.0 : snr + 0.01;
  }
}
BENCHMARK(BM_LinkPer);

void BM_BestRate(benchmark::State& state) {
  const phy::LinkModel link;
  double snr = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        best_rate(link, phy::ChannelWidth::k40MHz, snr).mcs_index);
    snr = snr > 30.0 ? 5.0 : snr + 0.01;
  }
}
BENCHMARK(BM_BestRate);

void BM_Beacon(benchmark::State& state) {
  const sim::ScenarioBuilder b = bench::topology2();
  const sim::Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const net::InterferenceGraph graph(wlan.topology(), wlan.budget(), assoc,
                                     wlan.config().interference);
  net::ChannelAssignment ch;
  for (int i = 0; i < 5; ++i) ch.push_back(net::Channel::basic(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::make_beacon(wlan, graph, assoc, ch, 0).atd_s_per_bit);
  }
}
BENCHMARK(BM_Beacon);

void BM_Association(benchmark::State& state) {
  sim::ScenarioBuilder b = bench::topology2();
  b.cross_loss_db = 96.0;  // everyone hears everyone
  const sim::Wlan wlan = b.build();
  const core::UserAssociation ua;
  net::Association assoc = b.intended_association();
  assoc[0] = net::kUnassociated;
  net::ChannelAssignment ch;
  for (int i = 0; i < 5; ++i) ch.push_back(net::Channel::basic(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ua.select_ap(wlan, assoc, ch, 0));
  }
}
BENCHMARK(BM_Association);

// Algorithm 2 with the incremental cached oracle (the default): the
// interference graph and client lists are built once per allocate() run
// and per-cell results are memoized across candidate trials.
void BM_Allocation(benchmark::State& state) {
  const sim::ScenarioBuilder b = bench::topology2();
  const sim::Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const core::ChannelAllocator alloc{
      net::ChannelPlan(static_cast<int>(state.range(0)))};
  util::Rng rng(3);
  const net::ChannelAssignment start = alloc.random_assignment(5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        alloc.allocate(wlan, assoc, start).final_bps);
  }
}
BENCHMARK(BM_Allocation)->Arg(4)->Arg(12);

// The uncached path (one full Wlan::evaluate per candidate) for
// comparison; results are bit-identical, only the speed differs.
void BM_AllocationUncached(benchmark::State& state) {
  const sim::ScenarioBuilder b = bench::topology2();
  const sim::Wlan wlan = b.build();
  const net::Association assoc = b.intended_association();
  const core::ChannelAllocator alloc{
      net::ChannelPlan(static_cast<int>(state.range(0)))};
  const core::ThroughputOracle exact =
      [&wlan](const net::Association& a, const net::ChannelAssignment& f) {
        return wlan.evaluate(a, f).total_goodput_bps;
      };
  util::Rng rng(3);
  const net::ChannelAssignment start = alloc.random_assignment(5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        alloc.allocate(wlan, assoc, start, exact).final_bps);
  }
}
BENCHMARK(BM_AllocationUncached)->Arg(4)->Arg(12);

void BM_FullConfigure(benchmark::State& state) {
  const sim::ScenarioBuilder b = bench::topology2();
  const sim::Wlan wlan = b.build();
  const core::AcornController acorn;
  util::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        acorn.configure(wlan, rng).evaluation.total_goodput_bps);
  }
}
BENCHMARK(BM_FullConfigure);

}  // namespace

BENCHMARK_MAIN();
