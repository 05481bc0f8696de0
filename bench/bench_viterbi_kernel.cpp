// Decoder-only microbench for the butterfly Viterbi trellis kernel:
// the SIMD forward pass, the scalar butterfly and the kept
// pre-butterfly reference decoder (acorn_reference) over one coded
// 1500-byte packet, plus the full decode path (levels + forward +
// traceback) for hard and soft inputs. Each case keeps the fastest of a
// fixed number of decodes on the thread CPU clock, and the cases take
// turns, so each one's decodes span the whole run. Throughput is
// reported in trellis steps (coded bit pairs) per second — the `samples`
// field of the JSON record counts steps here, not baseband samples, and
// `packets` is the one decode the fastest time covers.
#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "baseband/convolutional.hpp"
#include "baseband/viterbi_kernel.hpp"
#include "baseband/viterbi_reference.hpp"
#include "common.hpp"
#include "util/table.hpp"

using namespace acorn;
using baseband::ConvolutionalCode;

namespace {

struct Case {
  const char* name;
  int reps;
  std::function<void()> decode;
  double seconds = std::numeric_limits<double>::infinity();  // fastest
};

void report(util::TextTable& t, const Case& c, std::size_t steps,
            double ref_msteps) {
  const double msteps = static_cast<double>(steps) / c.seconds / 1e6;
  t.add_row({c.name, util::TextTable::num(msteps, 1),
             util::TextTable::num(msteps / ref_msteps, 1)});
  bench::emit_throughput(
      "bench_viterbi_kernel", c.name, c.seconds, 1,
      static_cast<std::int64_t>(steps), 1,
      ",\"method\":\"fastest_thread_cpu\",\"reps\":" +
          std::to_string(c.reps));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_options(argc, argv);
  bench::banner("Viterbi trellis kernel: butterfly/SIMD vs reference",
                "coded chain decodes as fast as the uncoded chain moves "
                "bits");
  std::printf("SIMD kernel active: %s\n",
              baseband::viterbi::simd_active() ? "yes" : "no (scalar)");

  const int reps = opts.smoke ? 10 : 1000;
  const std::size_t payload = 12000;  // 1500-byte packet
  const ConvolutionalCode code;
  std::mt19937_64 gen(bench::kDefaultSeed);
  std::vector<std::uint8_t> bits(payload);
  for (auto& b : bits) b = static_cast<std::uint8_t>(gen() & 1);
  const auto coded = code.encode(bits, true);
  const std::size_t steps = coded.size() / 2;

  // Lightly noisy hard stream and matching soft LLRs.
  auto noisy = coded;
  std::bernoulli_distribution flip(0.04);
  for (auto& b : noisy) {
    if (flip(gen)) b ^= 1;
  }
  std::normal_distribution<double> noise(0.0, 1.0);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = (coded[i] ? -4.0 : 4.0) + noise(gen);
  }

  std::vector<std::uint8_t> out(payload);
  baseband::ViterbiWorkspace ws;
  std::vector<std::int16_t> levels(coded.size());
  std::vector<std::uint64_t> decisions(steps);
  std::array<std::int16_t, baseband::viterbi::kNumStates> metric;
  baseband::viterbi::levels_from_hard(noisy, levels.data());

  // The reference decoders take ~30x longer per decode; fewer of their
  // decodes still give a stable minimum.
  std::vector<Case> cases = {
      {"forward", reps,
       [&] {
         baseband::viterbi::forward(levels.data(), steps, decisions.data(),
                                    metric.data());
       }},
      {"forward_scalar", reps,
       [&] {
         baseband::viterbi::forward_scalar(levels.data(), steps,
                                           decisions.data(), metric.data());
       }},
      {"decode_hard", reps, [&] { code.decode_into(noisy, out, ws); }},
      {"decode_soft", reps, [&] { code.decode_soft_into(llrs, out, ws); }},
      {"reference_hard", reps / 10,
       [&] { (void)baseband::reference::viterbi_decode(noisy); }},
      {"reference_soft", reps / 10,
       [&] { (void)baseband::reference::viterbi_decode_soft(llrs); }},
  };

  // Warm up (sizes the workspace, faults the pages).
  code.decode_into(noisy, out, ws);
  code.decode_soft_into(llrs, out, ws);

  // Round r times one decode of every case due in it, so that each
  // case's fastest decode is drawn from the whole run (~2 s), not from
  // one stretch of it that a neighbour on the host may have slowed.
  for (int r = 0; r < reps; ++r) {
    for (Case& c : cases) {
      if (r % (reps / c.reps) != 0) continue;
      const double start = bench::thread_cpu_seconds();
      c.decode();
      c.seconds = std::min(c.seconds, bench::thread_cpu_seconds() - start);
    }
  }

  const double ref_msteps =
      static_cast<double>(steps) / cases[4].seconds / 1e6;  // reference_hard
  util::TextTable t({"case", "Msteps/s", "x vs reference_hard"});
  for (const Case& c : cases) report(t, c, steps, ref_msteps);
  std::printf("%s\n", t.to_string().c_str());
  std::printf("(1 step = 1 trellis stage = 2 coded bits; %zu steps per "
              "%zu-bit packet; fastest of %d decodes, %d for the "
              "reference, on the thread CPU clock)\n",
              steps, payload, reps, reps / 10);
  // The timed kernel and reference must agree on the stream: hard
  // decoding through the kernel is bit-exact.
  const bool identical = code.decode(noisy, true) ==
                         baseband::reference::viterbi_decode(noisy, true);
  std::printf("kernel hard decode bit-identical to reference: %s\n",
              identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
