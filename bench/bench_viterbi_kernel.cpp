// Decoder-only microbench for the butterfly Viterbi trellis kernel:
// the SIMD forward pass, the scalar butterfly fallback and the kept
// pre-butterfly reference decoder (acorn_reference) over the same coded
// stream, plus the full decode path (levels + forward + traceback) for
// hard and soft inputs. Throughput is reported in trellis steps (coded
// bit pairs) per second — the `samples` field of the JSON record counts
// steps here, not baseband samples.
#include <array>
#include <cstdio>
#include <random>
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
  double seconds = 0.0;
  std::int64_t decodes = 0;
  std::int64_t steps = 0;
};

void report(util::TextTable& t, const Case& c, double ref_msteps) {
  const double msteps = static_cast<double>(c.steps) / c.seconds / 1e6;
  t.add_row({c.name, util::TextTable::num(msteps, 1),
             util::TextTable::num(msteps / ref_msteps, 1)});
  bench::emit_throughput("bench_viterbi_kernel", c.name, c.seconds,
                         c.decodes, c.steps, 1);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_options(argc, argv);
  bench::banner("Viterbi trellis kernel: butterfly/SIMD vs reference",
                "coded chain decodes as fast as the uncoded chain moves "
                "bits");
  std::printf("SIMD kernel active: %s\n",
              baseband::viterbi::simd_active() ? "yes" : "no (scalar)");

  const int iters = opts.smoke ? 40 : 2000;
  const std::size_t payload = 1200;  // 150-byte packet
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

  Case forward_simd{"forward"};
  Case forward_scalar{"forward_scalar"};
  Case decode_hard{"decode_hard"};
  Case decode_soft{"decode_soft"};
  Case ref_hard{"reference_hard"};
  Case ref_soft{"reference_soft"};

  // Warm up (sizes the workspace, faults the pages).
  code.decode_into(noisy, out, ws);
  code.decode_soft_into(llrs, out, ws);

  {
    const bench::Stopwatch sw;
    for (int i = 0; i < iters; ++i) {
      baseband::viterbi::forward(levels.data(), steps, decisions.data(),
                                 metric.data());
    }
    forward_simd.seconds = sw.seconds();
  }
  {
    const bench::Stopwatch sw;
    for (int i = 0; i < iters; ++i) {
      baseband::viterbi::forward_scalar(levels.data(), steps,
                                        decisions.data(), metric.data());
    }
    forward_scalar.seconds = sw.seconds();
  }
  {
    const bench::Stopwatch sw;
    for (int i = 0; i < iters; ++i) code.decode_into(noisy, out, ws);
    decode_hard.seconds = sw.seconds();
  }
  {
    const bench::Stopwatch sw;
    for (int i = 0; i < iters; ++i) code.decode_soft_into(llrs, out, ws);
    decode_soft.seconds = sw.seconds();
  }
  // The reference decoder is slow; keep its share of the runtime small.
  const int ref_iters = std::max(1, iters / 10);
  {
    const bench::Stopwatch sw;
    for (int i = 0; i < ref_iters; ++i) {
      (void)baseband::reference::viterbi_decode(noisy);
    }
    ref_hard.seconds = sw.seconds();
  }
  {
    const bench::Stopwatch sw;
    for (int i = 0; i < ref_iters; ++i) {
      (void)baseband::reference::viterbi_decode_soft(llrs);
    }
    ref_soft.seconds = sw.seconds();
  }

  for (Case* c : {&forward_simd, &forward_scalar, &decode_hard,
                  &decode_soft}) {
    c->decodes = iters;
    c->steps = static_cast<std::int64_t>(steps) * iters;
  }
  for (Case* c : {&ref_hard, &ref_soft}) {
    c->decodes = ref_iters;
    c->steps = static_cast<std::int64_t>(steps) * ref_iters;
  }

  const double ref_msteps =
      static_cast<double>(ref_hard.steps) / ref_hard.seconds / 1e6;
  util::TextTable t({"case", "Msteps/s", "x vs reference_hard"});
  for (const Case* c : {&forward_simd, &forward_scalar, &decode_hard,
                        &decode_soft, &ref_hard, &ref_soft}) {
    report(t, *c, ref_msteps);
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("(1 step = 1 trellis stage = 2 coded bits; %zu steps per "
              "%zu-bit packet)\n",
              steps, payload);
  // The timed kernel and reference must agree on the stream: hard
  // decoding through the kernel is bit-exact.
  const bool identical = code.decode(noisy, true) ==
                         baseband::reference::viterbi_decode(noisy, true);
  std::printf("kernel hard decode bit-identical to reference: %s\n",
              identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
