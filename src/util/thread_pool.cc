#include "util/thread_pool.h"

#include <cassert>

namespace lsmlab {

ThreadPool::ThreadPool(int num_threads) {
  assert(num_threads >= 1);
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  work_cv_.SignalAll();
  for (auto& t : threads_) {
    t.join();
  }
}

std::deque<std::function<void()>>* ThreadPool::QueueFor(Priority priority) {
  switch (priority) {
    case Priority::kHigh:
      return &high_queue_;
    case Priority::kMedium:
      return &medium_queue_;
    case Priority::kLow:
      return &low_queue_;
  }
  return &low_queue_;
}

bool ThreadPool::AllQueuesEmpty() const {
  return high_queue_.empty() && medium_queue_.empty() && low_queue_.empty();
}

void ThreadPool::Schedule(std::function<void()> task, Priority priority) {
  {
    MutexLock lock(&mu_);
    if (shutting_down_) {
      return;
    }
    QueueFor(priority)->push_back(std::move(task));
  }
  work_cv_.Signal();
}

bool ThreadPool::TryRunTask(Priority priority) {
  std::function<void()> task;
  {
    MutexLock lock(&mu_);
    auto* queue = QueueFor(priority);
    if (queue->empty()) {
      return false;
    }
    task = std::move(queue->front());
    queue->pop_front();
    ++running_;
  }
  task();
  {
    MutexLock lock(&mu_);
    --running_;
    if (AllQueuesEmpty() && running_ == 0) {
      idle_cv_.SignalAll();
    }
  }
  return true;
}

void ThreadPool::WaitForIdle() {
  MutexLock lock(&mu_);
  while (!(AllQueuesEmpty() && running_ == 0)) {
    idle_cv_.Wait(mu_);
  }
}

void ThreadPool::WorkerLoop() {
  mu_.Lock();
  while (true) {
    while (!shutting_down_ && AllQueuesEmpty()) {
      work_cv_.Wait(mu_);
    }
    if (shutting_down_ && AllQueuesEmpty()) {
      mu_.Unlock();
      return;
    }
    std::function<void()> task;
    if (!high_queue_.empty()) {
      task = std::move(high_queue_.front());
      high_queue_.pop_front();
    } else if (!medium_queue_.empty()) {
      task = std::move(medium_queue_.front());
      medium_queue_.pop_front();
    } else {
      task = std::move(low_queue_.front());
      low_queue_.pop_front();
    }
    ++running_;
    mu_.Unlock();
    task();
    mu_.Lock();
    --running_;
    if (AllQueuesEmpty() && running_ == 0) {
      idle_cv_.SignalAll();
    }
  }
}

}  // namespace lsmlab
