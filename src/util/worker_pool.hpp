// PooledExecutor, acornd's shard executor. Independent index loops run
// on util::parallel_for (util/parallel.hpp) instead.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace acorn::util {

/// Cooperative N-tasks-over-M-workers executor: many long-lived tasks
/// (acornd's WLAN shards) multiplexed over a small fixed worker set,
/// instead of one dedicated thread per task.
///
/// Each task is a state machine the executor drives through
///
///   kIdle -> kReady -> kRunning -> (kRunningDirty -> kReady | kIdle)
///
/// notify() marks new work: an idle task is enqueued, a running one is
/// flagged dirty so its current pass is followed by another. A worker
/// pops a ready task and calls run_pass() with no executor lock held;
/// run_pass() returns when the task next wants the CPU — time_point::min()
/// to requeue immediately (backlog left), time_point::max() to sleep
/// until the next notify(), anything else to arm a timer. Exactly one
/// worker runs a given task at a time, and the handoff between passes is
/// synchronized through the executor mutex, so task-local state needs no
/// locking of its own (the single-writer invariant shards rely on).
///
/// Timers are central: one timer thread owns a min-heap of
/// (deadline, generation, task) entries — the "timer wheel" that replaces
/// per-shard wait_until()s — and requeues a task when its deadline
/// arrives. Every notify()/detach()/re-arm bumps the task's generation,
/// so superseded heap entries are discarded lazily when they surface
/// instead of being searched for.
class PooledExecutor {
 public:
  using Clock = std::chrono::steady_clock;

  /// One schedulable entity. Derive, implement run_pass(), attach().
  class Task {
   public:
    virtual ~Task() = default;

   private:
    friend class PooledExecutor;
    /// One scheduling pass; called by exactly one worker at a time.
    /// Returns when the task next wants to run: Clock::time_point::min()
    /// = requeue now, Clock::time_point::max() = idle until notify(),
    /// otherwise = wake at that deadline.
    virtual Clock::time_point run_pass() = 0;

    enum class State : std::uint8_t { kIdle, kReady, kRunning,
                                      kRunningDirty };
    State state_ = State::kIdle;
    bool attached_ = false;
    /// Generation of the newest timer arm; heap entries carrying an
    /// older generation are dead.
    std::uint64_t timer_gen_ = 0;
  };

  /// Spawns `workers` run_pass() workers plus the timer thread.
  explicit PooledExecutor(int workers);
  ~PooledExecutor();

  PooledExecutor(const PooledExecutor&) = delete;
  PooledExecutor& operator=(const PooledExecutor&) = delete;

  int workers() const { return workers_; }

  /// Register the task and schedule an immediate first pass (which arms
  /// the task's own timer from its return value).
  void attach(Task& task);
  /// Unregister: blocks until no worker is inside the task's run_pass(),
  /// cancels its timer, drops it from the ready queue. After detach the
  /// task is never run again (notify() becomes a no-op) until
  /// re-attached; safe to destroy or to drain inline.
  void detach(Task& task);
  /// New work arrived for the task.
  void notify(Task& task);

 private:
  struct TimerEntry {
    Clock::time_point deadline;
    std::uint64_t gen = 0;
    Task* task = nullptr;
    bool operator>(const TimerEntry& o) const {
      return deadline > o.deadline;
    }
  };

  void worker_loop();
  void timer_loop();
  void enqueue_locked(Task& task);
  void arm_timer_locked(Task& task, Clock::time_point deadline);

  const int workers_;
  std::mutex mutex_;
  std::condition_variable ready_cv_;   // workers wait here
  std::condition_variable timer_cv_;   // timer thread waits here
  std::condition_variable quiesce_cv_; // detach() waits for kRunning*
  /// Ready tasks, FIFO from ready_head_. The consumed prefix is dropped
  /// once it is half the vector, so steady scheduling reuses one
  /// allocation (a deque would take a node every 64 pushes).
  std::vector<Task*> ready_;
  std::size_t ready_head_ = 0;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
  std::thread timer_thread_;
};

}  // namespace acorn::util
