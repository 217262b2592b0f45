#ifndef LSMLAB_UTIL_THREAD_POOL_H_
#define LSMLAB_UTIL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lsmlab {

/// Fixed-size background worker pool used for flushes and compactions
/// (tutorial §2.2.5). Tasks have three priorities: flushes run at kHigh
/// (flush-first scheduling prevents write stalls), subcompaction shards at
/// kMedium (an admitted compaction should finish before new ones start),
/// and whole compaction jobs at kLow.
class ThreadPool {
 public:
  enum class Priority { kHigh, kMedium, kLow };

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`. Never blocks.
  void Schedule(std::function<void()> task, Priority priority = Priority::kLow)
      EXCLUDES(mu_);

  /// Runs one queued task of exactly `priority` on the calling thread, if
  /// any is queued. Lets a task that blocks on other queued work (e.g. a
  /// compaction waiting for its subcompaction shards) help drain the queue
  /// instead of deadlocking when every worker is occupied.
  bool TryRunTask(Priority priority) EXCLUDES(mu_);

  /// Blocks until all queued and running tasks have finished.
  void WaitForIdle() EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);
  std::deque<std::function<void()>>* QueueFor(Priority priority)
      REQUIRES(mu_);
  bool AllQueuesEmpty() const REQUIRES(mu_);

  mutable Mutex mu_{LockRank::kThreadPool, "thread_pool.mu"};
  CondVar work_cv_;
  CondVar idle_cv_;
  std::deque<std::function<void()>> high_queue_ GUARDED_BY(mu_);
  std::deque<std::function<void()>> medium_queue_ GUARDED_BY(mu_);
  std::deque<std::function<void()>> low_queue_ GUARDED_BY(mu_);
  int running_ GUARDED_BY(mu_) = 0;
  bool shutting_down_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  // Written only by ctor/dtor.
};

}  // namespace lsmlab

#endif  // LSMLAB_UTIL_THREAD_POOL_H_
