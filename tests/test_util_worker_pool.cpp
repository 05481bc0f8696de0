// Scheduling semantics of util::PooledExecutor (the
// N-shards-over-M-workers executor acornd runs on).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/worker_pool.hpp"

namespace acorn::util {
namespace {

/// Counting task: each run_pass() consumes the pending count and
/// returns the preloaded wake hint.
class CountingTask : public PooledExecutor::Task {
 public:
  using Clock = PooledExecutor::Clock;

  explicit CountingTask(Clock::time_point wake = Clock::time_point::max())
      : wake_(wake) {}

  int passes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return passes_;
  }

  void wait_for_passes(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return passes_ >= n; });
  }

  void set_wake(Clock::time_point wake) {
    const std::lock_guard<std::mutex> lock(mutex_);
    wake_ = wake;
  }

  void block_next_pass() {
    const std::lock_guard<std::mutex> lock(mutex_);
    block_ = true;
  }

  void release_pass() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      block_ = false;
    }
    cv_.notify_all();
  }

 private:
  Clock::time_point run_pass() override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++passes_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !block_; });
    return wake_;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  int passes_ = 0;
  bool block_ = false;
  Clock::time_point wake_;
};

TEST(PooledExecutor, AttachRunsFirstPassAndNotifySchedulesMore) {
  PooledExecutor exec(2);
  CountingTask task;  // idles until notified
  exec.attach(task);
  task.wait_for_passes(1);
  exec.notify(task);
  task.wait_for_passes(2);
  exec.notify(task);
  task.wait_for_passes(3);
  exec.detach(task);
  EXPECT_EQ(task.passes(), 3);
}

TEST(PooledExecutor, MinRequeuesUntilTaskGoesIdle) {
  PooledExecutor exec(1);
  CountingTask task(CountingTask::Clock::time_point::min());
  exec.attach(task);
  task.wait_for_passes(5);  // self-requeues with no further notifies
  task.set_wake(CountingTask::Clock::time_point::max());
  const int settled = task.passes();
  exec.detach(task);
  EXPECT_GE(task.passes(), settled);
}

TEST(PooledExecutor, TimerDeadlineFiresWithoutNotify) {
  PooledExecutor exec(1);
  CountingTask task(CountingTask::Clock::now() +
                    std::chrono::milliseconds(30));
  exec.attach(task);
  task.wait_for_passes(1);
  task.set_wake(CountingTask::Clock::time_point::max());
  task.wait_for_passes(2);  // only the timer can have requeued it
  exec.detach(task);
  EXPECT_GE(task.passes(), 2);
}

TEST(PooledExecutor, NotifyDuringPassTriggersFollowupPass) {
  PooledExecutor exec(2);
  CountingTask task;
  task.block_next_pass();
  exec.attach(task);
  task.wait_for_passes(1);   // worker is parked inside run_pass()
  exec.notify(task);         // marks the running task dirty
  task.release_pass();
  task.wait_for_passes(2);   // dirty flag forced a second pass
  exec.detach(task);
  EXPECT_GE(task.passes(), 2);
}

TEST(PooledExecutor, DetachBlocksUntilPassFinishes) {
  PooledExecutor exec(2);
  CountingTask task;
  task.block_next_pass();
  exec.attach(task);
  task.wait_for_passes(1);
  std::atomic<bool> detached{false};
  std::thread detacher([&] {
    exec.detach(task);
    detached.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(detached.load());  // still inside run_pass()
  task.release_pass();
  detacher.join();
  EXPECT_TRUE(detached.load());
  exec.notify(task);  // no-op after detach
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(task.passes(), 1);
}

TEST(PooledExecutor, DetachedTaskCanReattach) {
  PooledExecutor exec(1);
  CountingTask task;
  exec.attach(task);
  task.wait_for_passes(1);
  exec.detach(task);
  exec.attach(task);
  task.wait_for_passes(2);
  exec.detach(task);
  EXPECT_GE(task.passes(), 2);
}

TEST(PooledExecutor, ManyTasksOverFewWorkersAllRun) {
  PooledExecutor exec(2);
  std::vector<std::unique_ptr<CountingTask>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.push_back(std::make_unique<CountingTask>());
    exec.attach(*tasks.back());
  }
  for (auto& t : tasks) t->wait_for_passes(1);
  for (auto& t : tasks) exec.notify(*t);
  for (auto& t : tasks) t->wait_for_passes(2);
  for (auto& t : tasks) exec.detach(*t);
  for (auto& t : tasks) EXPECT_GE(t->passes(), 2);
}

}  // namespace
}  // namespace acorn::util
