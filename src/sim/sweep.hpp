// Deterministic parallel scenario-sweep driver for the network layer:
// whole scenarios (random topology + configuration search, a table-3
// trial, a fig-10 comparison point) through an evaluation function, on
// util::parallel_for (util/parallel.hpp), the same fan-out the baseband
// packet loops use.
//
// The determinism contract that makes `num_threads` a pure performance
// knob: scenario `i` always computes with `Rng::derive_stream(seed, i)`
// — a pure function of (seed, i), independent of which worker runs it
// or in what order — and writes only its own slot, and the results come
// back in index order, so any fold over them is bit-identical for any
// thread count, including the serial path. Scenarios are the unit of
// parallelism: Algorithm 2 and Kai's search run serially inside each.
// tests/test_sim_sweep.cpp asserts bit-identical output at 1 vs 2 vs 5
// threads on full evaluate/allocate scenarios.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace acorn::sim {

struct SweepOptions {
  std::uint64_t seed = 0;
  /// 0 = one worker per hardware thread; 1 = run on the calling thread.
  int num_threads = 1;
};

/// Run `body(rng, i)` for every scenario index i in [0, num_scenarios)
/// and return the results in index order. `body` receives a freshly
/// derived `util::Rng` stream for its index and must not touch shared
/// mutable state (it may read shared immutable state such as a Wlan or a
/// NetSnapshot). The result type must be default-constructible and
/// movable. The first exception thrown by any scenario stops the sweep
/// and is rethrown on the calling thread.
template <typename Body>
auto sweep_scenarios(std::size_t num_scenarios, const SweepOptions& options,
                     Body&& body)
    -> std::vector<std::invoke_result_t<Body&, util::Rng&, std::size_t>> {
  using Result = std::invoke_result_t<Body&, util::Rng&, std::size_t>;
  static_assert(std::is_default_constructible_v<Result>,
                "sweep result slots are preallocated");
  std::vector<Result> results(num_scenarios);
  util::parallel_for(
      num_scenarios, options.num_threads, [] { return 0; },
      [&](int, std::size_t i) {
        util::Rng rng = util::Rng::derive_stream(options.seed, i);
        results[i] = body(rng, i);
      });
  return results;
}

}  // namespace acorn::sim
