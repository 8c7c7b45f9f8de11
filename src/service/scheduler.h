// Thread-pool job scheduler for the routing service (DESIGN.md §15).
//
// N worker threads share one queue, ordered by priority (highest first)
// and then by submission order. One mutex guards the queue and the
// idle/running counts; one condition variable wakes idle workers and
// WaitIdle callers, and every wait re-tests its condition under that
// mutex, so a submission or completion can never slip past a sleeper.
//
// The pool knows nothing of cancellation: a job that must be cancellable
// carries its own stop flag (RoutingService tickets do, and hand it to the
// solver as `DetailedRouteOptions::stop`).
#ifndef SATFR_SERVICE_SCHEDULER_H_
#define SATFR_SERVICE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "mc/annotations.h"
#include "mc/shim.h"

namespace satfr::service {

struct SchedulerOptions {
  /// Worker thread count; <= 0 means std::thread::hardware_concurrency()
  /// (minimum 1).
  int num_workers = 0;
};

struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Always 0: the pool has one shared queue and nothing to steal. Kept
  /// only because perfbench/src/service_load.cpp reads it.
  std::uint64_t steals = 0;
};

class JobScheduler {
 public:
  using JobFn = std::function<void()>;

  explicit JobScheduler(const SchedulerOptions& options = {});
  /// Drops the jobs still queued, then joins the workers (jobs already
  /// running are waited for).
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues `fn`. A higher `priority` runs before any lower one still
  /// queued, on whichever worker is free first; equal priorities run in
  /// submission order.
  void Submit(JobFn fn, int priority = 0);

  /// Blocks until the queue is empty and no job is running.
  void WaitIdle();

  int num_workers() const { return static_cast<int>(workers_.size()); }
  SchedulerStats stats() const;

 private:
  struct JobKey {
    int priority = 0;
    std::uint64_t seq = 0;
  };
  struct RunsFirst {
    bool operator()(const JobKey& a, const JobKey& b) const {
      return a.priority != b.priority ? a.priority > b.priority
                                      : a.seq < b.seq;
    }
  };

  void WorkerLoop();

  mutable mc::Mutex mutex_;
  std::condition_variable_any cv_;
  std::map<JobKey, JobFn, RunsFirst> queue_ SATFR_GUARDED_BY(mutex_);
  std::uint64_t submitted_ SATFR_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ SATFR_GUARDED_BY(mutex_) = 0;
  int running_ SATFR_GUARDED_BY(mutex_) = 0;
  bool shutdown_ SATFR_GUARDED_BY(mutex_) = false;

  std::vector<std::thread> workers_;
};

}  // namespace satfr::service

#endif  // SATFR_SERVICE_SCHEDULER_H_
