// util::resolve_threads and util::parallel_for's one-thread path. The
// fan-out itself is exercised by the suites of its callers, the baseband
// packet loops and sim::sweep_scenarios: bit-identity at several thread
// counts and exception propagation.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>

namespace acorn::util {
namespace {

TEST(Parallel, ResolveThreads) {
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(4), 4);
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_GE(resolve_threads(-3), 1);
}

TEST(Parallel, OneThreadRunsInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  int contexts = 0;
  parallel_for(
      5, 1, [&] { return ++contexts; },
      [&](int, std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
      });
  EXPECT_EQ(contexts, 1);
}

}  // namespace
}  // namespace acorn::util
