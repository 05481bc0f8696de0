#include "util/worker_pool.hpp"

#include <algorithm>

namespace acorn::util {

PooledExecutor::PooledExecutor(int workers)
    : workers_(workers < 1 ? 1 : workers) {
  threads_.reserve(static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
  timer_thread_ = std::thread([this] { timer_loop(); });
}

PooledExecutor::~PooledExecutor() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  ready_cv_.notify_all();
  timer_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  timer_thread_.join();
}

void PooledExecutor::enqueue_locked(Task& task) {
  task.state_ = Task::State::kReady;
  ready_.push_back(&task);
  ready_cv_.notify_one();
}

void PooledExecutor::arm_timer_locked(Task& task, Clock::time_point deadline) {
  timers_.push(TimerEntry{deadline, ++task.timer_gen_, &task});
  timer_cv_.notify_one();
}

void PooledExecutor::attach(Task& task) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (task.attached_ || stop_) return;
  task.attached_ = true;
  // First pass now: it drains anything submitted before attach and arms
  // the task's timer from run_pass()'s return value.
  enqueue_locked(task);
}

void PooledExecutor::detach(Task& task) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!task.attached_) return;
  task.attached_ = false;
  ++task.timer_gen_;  // kill any armed timer entry
  if (task.state_ == Task::State::kReady) {
    ready_.erase(std::remove(ready_.begin() +
                                 static_cast<std::ptrdiff_t>(ready_head_),
                             ready_.end(), &task),
                 ready_.end());
    task.state_ = Task::State::kIdle;
  }
  // A worker mid-pass finishes its pass, sees attached_ == false, parks
  // the task idle and signals; after that no worker can reach it.
  quiesce_cv_.wait(lock, [&] {
    return task.state_ == Task::State::kIdle;
  });
}

void PooledExecutor::notify(Task& task) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!task.attached_ || stop_) return;
  switch (task.state_) {
    case Task::State::kIdle:
      ++task.timer_gen_;  // supersede the armed timer, if any
      enqueue_locked(task);
      break;
    case Task::State::kRunning:
      // The pass under way may already have missed this work: run
      // another one when it returns, whatever deadline it reports.
      task.state_ = Task::State::kRunningDirty;
      break;
    case Task::State::kReady:
    case Task::State::kRunningDirty:
      break;  // a pass is already due
  }
}

void PooledExecutor::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    ready_cv_.wait(lock,
                   [&] { return stop_ || ready_head_ < ready_.size(); });
    if (stop_) return;
    Task* task = ready_[ready_head_++];
    if (2 * ready_head_ >= ready_.size()) {
      ready_.erase(ready_.begin(),
                   ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_));
      ready_head_ = 0;
    }
    task->state_ = Task::State::kRunning;
    lock.unlock();
    const Clock::time_point next = task->run_pass();
    lock.lock();
    const bool dirty = task->state_ == Task::State::kRunningDirty;
    if (!task->attached_) {
      // detach() is waiting for this pass to end.
      task->state_ = Task::State::kIdle;
      quiesce_cv_.notify_all();
    } else if (dirty || next == Clock::time_point::min()) {
      // More work (a notify raced the pass, or the pass yielded with
      // backlog left): back of the queue, fair to the other shards.
      enqueue_locked(*task);
    } else {
      task->state_ = Task::State::kIdle;
      if (next != Clock::time_point::max()) arm_timer_locked(*task, next);
    }
  }
}

void PooledExecutor::timer_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    // Dead entries (superseded by a later arm, a notify, or a detach)
    // are discarded here, lazily, instead of being dug out of the heap
    // at invalidation time.
    while (!timers_.empty() &&
           timers_.top().gen != timers_.top().task->timer_gen_) {
      timers_.pop();
    }
    if (timers_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const TimerEntry top = timers_.top();
    if (Clock::now() < top.deadline) {
      timer_cv_.wait_until(lock, top.deadline);
      continue;  // re-validate: the heap may have changed while waiting
    }
    timers_.pop();
    Task& task = *top.task;
    if (task.attached_ && task.state_ == Task::State::kIdle) {
      enqueue_locked(task);
    }
  }
}

}  // namespace acorn::util
