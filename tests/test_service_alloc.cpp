// Allocation contract of acornd's steady-state event path: once warm, an
// SNR or load update costs the daemon no heap allocation — durable or
// not, pipelined or one at a time — and the blocking Client none at all.
// A binary of its own, because it replaces the global operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <variant>

#include "service/client.hpp"
#include "service/daemon.hpp"

// Every allocation of the process, and those of the calling thread:
// the difference is what the daemon's threads allocated.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
thread_local std::uint64_t t_alloc_count = 0;

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  ++t_alloc_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  ++t_alloc_count;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  ++t_alloc_count;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}

// GCC flags free() on operator-new memory once these are inlined; here
// operator new is malloc, so the pairing is right.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace acorn::service {
namespace {

// The bench_service_events floor: 3 APs, 8 clients.
constexpr const char* kDeployment = R"(channels 12
seed 7
ap 10 10
ap 50 10
ap 30 40
client 12 12
client 14  8
client 48 14
client 52  9
client 28 38
client 35 42
client 30 25
client 45 30
)";

constexpr std::size_t kWarmup = 5000;
constexpr std::size_t kMeasured = 10000;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/acorn_alloc_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Event i of the update stream: SNR and load updates alternate, and the
// first 48 cover every (AP, client) link and every client, so the warm-up
// has created every map entry the stream touches.
Message update(std::size_t i) {
  const auto k = static_cast<std::uint32_t>(i / 2);
  if (i % 2 == 0) {
    return SnrUpdate{1, k % 3, (k / 3) % 8,
                     80.0 + static_cast<double>(i % 17)};
  }
  return LoadUpdate{1, k % 8, 0.1 + 0.05 * static_cast<double>(i % 13)};
}

struct Allocations {
  std::uint64_t daemon = 0;
  std::uint64_t client = 0;
  std::size_t bad_replies = 0;
};

// Send updates [first, first + n) keeping up to `depth` in flight, and
// count the allocations made meanwhile.
Allocations pump(Client& client, std::size_t first, std::size_t n,
                 std::size_t depth) {
  Allocations out;
  const std::uint64_t all0 = g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t mine0 = t_alloc_count;
  std::size_t sent = 0;
  for (std::size_t received = 0; received < n; ++received) {
    while (sent < n && sent - received < depth) {
      client.send(update(first + sent));
      ++sent;
    }
    if (!std::holds_alternative<OkReply>(client.recv().msg)) {
      ++out.bad_replies;
    }
  }
  out.client = t_alloc_count - mine0;
  out.daemon =
      g_alloc_count.load(std::memory_order_relaxed) - all0 - out.client;
  return out;
}

void expect_allocation_free(bool durable, std::size_t depth) {
  SCOPED_TRACE(std::string(durable ? "durable" : "non-durable") +
               ", depth " + std::to_string(depth));
  const TempDir dir;
  DaemonConfig config;
  config.unix_path = dir.path() + "/sock";
  if (durable) config.state_dir = dir.path() + "/state";
  config.epoch_s = 0.0;
  config.workers = 1;
  Daemon daemon(config);
  daemon.start();
  Client client = Client::connect_unix(config.unix_path);
  ASSERT_TRUE(std::holds_alternative<OkReply>(
      client.call(RegisterWlan{1, kDeployment})));

  const Allocations warm = pump(client, 0, kWarmup, depth);
  const Allocations run = pump(client, kWarmup, kMeasured, depth);
  EXPECT_EQ(warm.bad_replies + run.bad_replies, 0u);
  const double per_event =
      static_cast<double>(run.daemon) / static_cast<double>(kMeasured);
  std::printf("%llu daemon-side and %llu client allocations over %zu "
              "events (warm-up: %.3f and %.3f per event)\n",
              static_cast<unsigned long long>(run.daemon),
              static_cast<unsigned long long>(run.client), kMeasured,
              static_cast<double>(warm.daemon) / kWarmup,
              static_cast<double>(warm.client) / kWarmup);
  EXPECT_LT(per_event, 0.05) << run.daemon << " daemon-side allocations over "
                             << kMeasured << " events";
  EXPECT_EQ(run.client, 0u) << "Client::send/recv allocated";
  daemon.stop();
}

TEST(ServiceAlloc, PipelinedUpdatesAllocateNothing) {
  expect_allocation_free(/*durable=*/false, 64);
}

TEST(ServiceAlloc, PipelinedDurableUpdatesAllocateNothing) {
  expect_allocation_free(/*durable=*/true, 64);
}

TEST(ServiceAlloc, SerialUpdatesAllocateNothing) {
  expect_allocation_free(/*durable=*/false, 1);
}

TEST(ServiceAlloc, SerialDurableUpdatesAllocateNothing) {
  expect_allocation_free(/*durable=*/true, 1);
}

}  // namespace
}  // namespace acorn::service
