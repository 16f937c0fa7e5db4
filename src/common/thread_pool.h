#pragma once

/// @file thread_pool.h
/// The one crew of worker threads, with no dependencies beyond the
/// standard library.  It runs two kinds of work:
///
///  * *Admitted tasks* (`try_submit()`): the serve daemon's requests.
///    At most `max_inflight` run at once and at most `max_queue` more
///    wait, in FIFO order; a task beyond both bounds, or one offered
///    after `drain()` began, is refused at once rather than queued or
///    blocked.  A task must catch its own exceptions: one that escapes
///    terminates the process.
///  * *Helper jobs* of `parallel_chunks()`, the bulk primitive every
///    fan-out uses: it splits an index range into contiguous chunks that
///    the pool's workers *and the calling thread* claim from a shared
///    cursor, and blocks until all complete (rethrowing the first chunk
///    exception).  Because the caller works through the chunks itself,
///    helpers are optional work: a call never waits on a helper that has
///    not started, a chunk or an admitted task may call parallel_chunks
///    on the same pool (even a pool of one thread), and concurrent
///    callers never wait behind each other's chunks with nothing to do.
///    Helper jobs are never bounded or refused and never show in
///    `stats()`.
///
/// Scheduling.  A worker that becomes free takes an admissible task
/// before a helper job, and a helper stops claiming chunks while an
/// admissible task waits for a worker.  Idle workers wait on a stack,
/// each on its own condition variable, and new work wakes the most
/// recently idle one (LIFO): every worker thread allocates from its own
/// glibc malloc arena, and rotating a sequential client over all
/// workers would leave a request-sized working set resident in each.
/// A worker that finishes an admitted task returns to the *top* of the
/// stack in the same critical section that drops the running count,
/// then runs the task's reply (the server's response write), so the
/// client's next request finds the worker that served the previous one.
/// A worker that ran only helper work, or was woken for work another
/// worker took, returns to the *bottom*.
///
/// A `ThreadPool*` that is nullptr means "run on the calling thread";
/// only the service facade (serve/service.h) owns a pool.

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"

namespace vwsdk {

/// A snapshot of the pool's admission counters; helper jobs never
/// count.
struct AdmissionStats {
  int busy = 0;           ///< admitted tasks currently running
  int queued = 0;         ///< admitted tasks waiting for a worker
  Count accepted = 0;     ///< tasks admitted since startup
  Count rejected = 0;     ///< tasks refused (bounds or drain)
};

/// Fixed-size worker pool: bounded admitted tasks plus unbounded
/// parallel_chunks helpers on the same workers.
class ThreadPool {
 public:
  /// Start `threads` workers (`threads <= 0` means
  /// default_thread_count()).  At most `max_inflight` (>= 1) admitted
  /// tasks run at once, and never more than size(); at most
  /// `max_queue` (>= 0) more wait.  The bounds matter only to
  /// try_submit().
  explicit ThreadPool(int threads = 0, int max_inflight = 1,
                      int max_queue = 0);

  /// drain(), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  int size() const { return static_cast<int>(workers_.size()); }

  /// Admit `task` if the bounds allow: true and the task will run;
  /// false and it was refused (never partially started).  After drain()
  /// began every task is refused.  A non-empty `reply` runs on the same
  /// worker after `task`, once the worker is idle again (no longer
  /// counted in `busy`); drain() still waits for it.  Neither may throw.
  bool try_submit(std::function<void()> task,
                  std::function<void()> reply = nullptr)
      VWSDK_EXCLUDES(mutex_);

  /// Stop admitting, then wait until every admitted task and its reply
  /// have finished.  Idempotent; safe to call concurrently with
  /// try_submit (refused once draining begins) and with
  /// parallel_chunks (never refused).
  void drain() VWSDK_EXCLUDES(mutex_);

  /// Current counters (busy/queued are instantaneous, the totals
  /// monotonic); one consistent snapshot under a single lock hold.
  AdmissionStats stats() const VWSDK_EXCLUDES(mutex_);

  /// `VWSDK_THREADS` env var if set to a positive integer, else
  /// hardware_concurrency(); clamped to [1, 256].  An unparseable or
  /// non-positive value falls back to the hardware count and logs one
  /// warning per distinct bad value, naming it and the fallback.
  static int default_thread_count();

  /// `requested > 0` passes through (clamped to 256); otherwise
  /// default_thread_count().
  static int resolve_thread_count(int requested);

 private:
  friend void parallel_chunks(ThreadPool*, Count,
                              const std::function<void(Count, Count)>&);

  struct ChunkRun;  ///< one parallel_chunks call (thread_pool.cpp)

  enum class WorkerState : char {
    kIdle,      ///< on the idle stack, waiting to be popped
    kReserved,  ///< popped by try_submit: takes the next admitted task
    kFree,      ///< running, or popped for helper work
  };

  /// An admitted task and its reply.
  struct Job {
    std::function<void()> task;
    std::function<void()> reply;
  };

  /// Queue `copies` helper jobs for `run` and wake as many idle workers.
  void post_helpers(const std::shared_ptr<ChunkRun>& run, Count copies)
      VWSDK_EXCLUDES(mutex_);
  /// Drop the helper jobs for `run` that no worker has started.
  void withdraw_helpers(const std::shared_ptr<ChunkRun>& run)
      VWSDK_EXCLUDES(mutex_);
  void worker_loop(int id) VWSDK_EXCLUDES(mutex_);
  /// An admitted task that no woken worker is already coming for may
  /// start now.
  bool unclaimed_task() const VWSDK_REQUIRES(mutex_);
  /// Copy unclaimed_task() into task_waiting_; call after changing it.
  void publish_task_waiting() VWSDK_REQUIRES(mutex_);
  /// Pop the most recently idle worker, mark it `next` and wake it;
  /// false when none is idle.
  bool wake_idle(WorkerState next) VWSDK_REQUIRES(mutex_);

  const int max_inflight_;
  const int max_queue_;
  std::vector<std::thread> workers_;
  /// One wake-up per worker, so new work can pick which worker runs it.
  std::vector<CondVar> wake_;
  std::deque<Job> admitted_ VWSDK_GUARDED_BY(mutex_);
  std::deque<std::shared_ptr<ChunkRun>> helpers_ VWSDK_GUARDED_BY(mutex_);
  /// Idle worker ids, the most recently idle on top (back).
  std::deque<int> idle_workers_ VWSDK_GUARDED_BY(mutex_);
  std::vector<WorkerState> state_ VWSDK_GUARDED_BY(mutex_);  ///< per worker
  int reserved_ VWSDK_GUARDED_BY(mutex_) = 0;  ///< workers in kReserved
  /// unclaimed_task(), readable without the lock: helpers stop claiming
  /// chunks while it is true, so the task finds a worker sooner.
  std::atomic<bool> task_waiting_{false};
  mutable Mutex mutex_;
  CondVar finished_;  ///< an admitted task and its reply finished
  int running_ VWSDK_GUARDED_BY(mutex_) = 0;
  /// Admitted tasks whose reply has not finished yet (drain waits).
  Count unfinished_ VWSDK_GUARDED_BY(mutex_) = 0;
  Count accepted_ VWSDK_GUARDED_BY(mutex_) = 0;
  Count rejected_ VWSDK_GUARDED_BY(mutex_) = 0;
  bool draining_ VWSDK_GUARDED_BY(mutex_) = false;
  bool stopping_ VWSDK_GUARDED_BY(mutex_) = false;
};

/// Run `fn(begin, end)` over [0, n) split into contiguous chunks, which
/// the calling thread and the workers of `pool` claim in index order;
/// blocks until every chunk finishes.  The first chunk exception (in
/// chunk order) is rethrown after all chunks complete.  A nullptr `pool`
/// runs `fn(0, n)` on the calling thread.  Safe to call from inside a
/// chunk or an admitted task running on the same pool.
void parallel_chunks(ThreadPool* pool, Count n,
                     const std::function<void(Count begin, Count end)>& fn);

}  // namespace vwsdk
