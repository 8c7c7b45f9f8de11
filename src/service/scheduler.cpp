#include "service/scheduler.h"

#include <utility>

namespace satfr::service {

JobScheduler::JobScheduler(const SchedulerOptions& options) {
  int workers = options.num_workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (workers < 1) workers = 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

JobScheduler::~JobScheduler() {
  // Destroyed outside the lock: a dropped job's captures may be heavy.
  std::map<JobKey, JobFn, RunsFirst> dropped;
  {
    mc::MutexLock lock(mutex_);
    shutdown_ = true;
    dropped.swap(queue_);
    cv_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
}

void JobScheduler::Submit(JobFn fn, int priority) {
  mc::MutexLock lock(mutex_);
  queue_.emplace(JobKey{priority, submitted_++}, std::move(fn));
  // All, not one: WaitIdle callers sleep on the same condition variable,
  // and a notify_one could wake one of them instead of a worker.
  cv_.notify_all();
}

void JobScheduler::WaitIdle() {
  mc::MutexLock lock(mutex_);
  while (!queue_.empty() || running_ > 0) cv_.wait(mutex_);
}

SchedulerStats JobScheduler::stats() const {
  mc::MutexLock lock(mutex_);
  SchedulerStats stats;
  stats.submitted = submitted_;
  stats.completed = completed_;
  return stats;
}

void JobScheduler::WorkerLoop() {
  for (;;) {
    JobFn fn;
    {
      mc::MutexLock lock(mutex_);
      while (!shutdown_ && queue_.empty()) cv_.wait(mutex_);
      if (shutdown_) return;
      fn = std::move(queue_.extract(queue_.begin()).mapped());
      ++running_;
    }
    fn();
    fn = nullptr;  // release captured payload (graphs, callbacks) early
    mc::MutexLock lock(mutex_);
    --running_;
    ++completed_;
    if (running_ == 0 && queue_.empty()) cv_.notify_all();
  }
}

}  // namespace satfr::service
