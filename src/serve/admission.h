#pragma once

/// @file admission.h
/// Bounded admission control for `vwsdk serve`: a fixed crew of request
/// workers plus a bounded waiting queue.  A request beyond both bounds
/// is *rejected immediately* (try_submit returns false and the server
/// answers `overloaded`) rather than queued without limit or blocked --
/// the daemon stays responsive no matter how fast a client writes.
///
/// A worker runs its whole request, for `verify` the plan build and
/// crossbar execution too; only mapping searches and the reference
/// convolution fan out into their own pools.  Keeping the pools separate
/// preserves the pool's non-reentrancy contract (common/thread_pool.h).
///
/// A submit wakes the most recently idle worker (LIFO).  Each worker
/// thread has its own glibc malloc arena, which keeps freed memory below
/// the trim threshold; FIFO wake-ups would leave a verify's working set
/// resident in every worker's arena, LIFO keeps one arena warm.  A task
/// may come with a reply (the server's response write), which the worker
/// runs only after it is back on the idle stack: the client cannot send
/// its next request before the worker that will take it is idle again.

#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"

namespace vwsdk {

/// A snapshot of the queue's counters.
struct AdmissionStats {
  int busy = 0;           ///< workers currently running a request
  int queued = 0;         ///< accepted requests waiting for a worker
  Count accepted = 0;     ///< requests admitted since startup
  Count rejected = 0;     ///< requests refused as overloaded
};

/// The bounded request executor: at most `max_inflight` requests run at
/// once and at most `max_queue` more wait; everything beyond is
/// rejected at submit time.
class AdmissionQueue {
 public:
  /// Start `max_inflight` worker threads (>= 1) over a waiting queue of
  /// `max_queue` slots (>= 0).
  AdmissionQueue(int max_inflight, int max_queue);

  /// Drains: finishes every accepted task, then joins the workers.
  ~AdmissionQueue();

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admit `task` if capacity allows: true and the task will run; false
  /// and the task was refused (never partially started).  After drain()
  /// every submit is refused.  A non-empty `reply` runs on the same
  /// worker after `task`, once the worker is idle again (no longer
  /// counted in `busy`); drain() still waits for it.
  bool try_submit(std::function<void()> task,
                  std::function<void()> reply = nullptr)
      VWSDK_EXCLUDES(mutex_);

  /// Stop admitting, run every already-accepted task to completion, and
  /// join the workers.  Idempotent; safe to call concurrently with
  /// submits (they are refused once draining begins).
  void drain() VWSDK_EXCLUDES(mutex_);

  /// Current counters (busy/queued are instantaneous, the totals
  /// monotonic); one consistent snapshot under a single lock hold.
  AdmissionStats stats() const VWSDK_EXCLUDES(mutex_);

 private:
  void worker_loop(int id) VWSDK_EXCLUDES(mutex_);

  const int max_inflight_;
  const int max_queue_;
  std::vector<std::thread> workers_;
  /// One wake-up per worker, so a submit can pick which worker runs.
  std::vector<CondVar> wake_;
  /// An admitted task and its reply.
  struct Job {
    std::function<void()> task;
    std::function<void()> reply;
  };

  std::queue<Job> queue_ VWSDK_GUARDED_BY(mutex_);
  /// Idle worker ids, the most recently idle on top (back).
  std::vector<int> idle_workers_ VWSDK_GUARDED_BY(mutex_);
  mutable Mutex mutex_;
  CondVar idle_;
  int busy_ VWSDK_GUARDED_BY(mutex_) = 0;
  Count accepted_ VWSDK_GUARDED_BY(mutex_) = 0;
  Count rejected_ VWSDK_GUARDED_BY(mutex_) = 0;
  bool draining_ VWSDK_GUARDED_BY(mutex_) = false;
};

}  // namespace vwsdk
