#include "serve/admission.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/string_util.h"

namespace vwsdk {

AdmissionQueue::AdmissionQueue(int max_inflight, int max_queue)
    : max_inflight_(max_inflight), max_queue_(max_queue) {
  VWSDK_REQUIRE(max_inflight >= 1,
                cat("max_inflight must be >= 1 (got ", max_inflight, ")"));
  VWSDK_REQUIRE(max_queue >= 0,
                cat("max_queue must be >= 0 (got ", max_queue, ")"));
  wake_ = std::vector<CondVar>(static_cast<std::size_t>(max_inflight));
  workers_.reserve(static_cast<std::size_t>(max_inflight));
  const MutexLock lock(mutex_);
  for (int i = 0; i < max_inflight; ++i) {
    idle_workers_.push_back(i);
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

AdmissionQueue::~AdmissionQueue() { drain(); }

bool AdmissionQueue::try_submit(std::function<void()> task,
                                std::function<void()> reply) {
  int worker = -1;
  {
    const MutexLock lock(mutex_);
    const int outstanding = static_cast<int>(queue_.size()) + busy_;
    if (draining_ || outstanding >= max_inflight_ + max_queue_) {
      ++rejected_;
      return false;
    }
    ++accepted_;
    queue_.push({std::move(task), std::move(reply)});
    if (!idle_workers_.empty()) {
      worker = idle_workers_.back();
      idle_workers_.pop_back();
    }
  }
  if (worker >= 0) {
    wake_[static_cast<std::size_t>(worker)].notify_one();
  }
  return true;
}

void AdmissionQueue::drain() {
  {
    const MutexLock lock(mutex_);
    draining_ = true;
    // Explicit predicate loop (not a wait-with-lambda) so the guarded
    // reads stay visible to the thread-safety analysis.
    while (!queue_.empty() || busy_ != 0) {
      idle_.wait(mutex_);
    }
  }
  for (CondVar& wake : wake_) {
    wake.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

AdmissionStats AdmissionQueue::stats() const {
  const MutexLock lock(mutex_);
  AdmissionStats stats;
  stats.busy = busy_;
  stats.queued = static_cast<int>(queue_.size());
  stats.accepted = accepted_;
  stats.rejected = rejected_;
  return stats;
}

void AdmissionQueue::worker_loop(int id) {
  CondVar& wake = wake_[static_cast<std::size_t>(id)];
  while (true) {
    Job job;
    {
      const MutexLock lock(mutex_);
      // A worker on the idle stack runs nothing until a submit pops it; a
      // popped one, or one just done with more work queued, takes a task.
      while (queue_.empty() || std::ranges::count(idle_workers_, id) != 0) {
        if (draining_ && queue_.empty()) {
          return;  // draining and nothing left to run
        }
        if (std::ranges::count(idle_workers_, id) == 0) {
          idle_workers_.push_back(id);  // popped, but the task went first
        }
        wake.wait(mutex_);
      }
      job = std::move(queue_.front());
      queue_.pop();
      ++busy_;
    }
    job.task();  // the task catches its own exceptions (server.cpp); a
                 // throw here would terminate, which the wrapper prevents
    {
      // Idle again, on top of the stack, in the same critical section
      // that drops busy_: a submit that sees busy_ == 0 wakes this worker.
      const MutexLock lock(mutex_);
      --busy_;
      if (queue_.empty()) {
        idle_workers_.push_back(id);
      }
    }
    idle_.notify_all();
    if (job.reply) {
      // Idle again (on the stack unless work is queued): a request the
      // reply lets a client send pops this worker, which takes it once
      // the reply returns.
      job.reply();
    }
  }
}

}  // namespace vwsdk
