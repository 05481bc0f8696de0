// The one per-call fan-out: index-parallel loops whose iterations are
// independent (packets through a PHY chain, scenarios through a sweep).
//
// The contract that makes a thread count a pure performance knob:
// workers pull indices from a shared atomic counter, and iteration `i`
// writes only its own preallocated slot. Randomness is derived from the
// index, never from the worker (util::Rng::derive_stream), and the
// caller reduces the slots in index order afterwards, so every result is
// bit-identical for any thread count, including the serial path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace acorn::util {

/// Map a user-facing thread count (0 or negative = one per hardware
/// thread) to a concrete one.
inline int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Run `body(ctx, i)` for every index i in [0, n). Each worker gets its
/// own context from `make_ctx()` (per-worker scratch), so `body` must
/// only touch its context and the slot index `i` owns. `make_ctx` is
/// invoked from worker threads and must be safe to call concurrently (it
/// only reads shared immutable state). With `threads` resolving to 1, or
/// n <= 1, everything runs inline on the calling thread. The first
/// exception thrown by any worker stops the loop and is rethrown on the
/// calling thread.
template <typename MakeCtx, typename Body>
void parallel_for(std::size_t n, int threads, MakeCtx&& make_ctx,
                  Body&& body) {
  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(resolve_threads(threads)),
                            std::max<std::size_t>(n, 1)));
  if (workers <= 1) {
    auto ctx = make_ctx();
    for (std::size_t i = 0; i < n; ++i) body(ctx, i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;

  const auto worker = [&]() {
    try {
      auto ctx = make_ctx();
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        body(ctx, i);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace acorn::util
