#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "common/error.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace vwsdk {

namespace {

constexpr int kMaxThreads = 256;

int clamp_threads(long long value) {
  return static_cast<int>(
      std::clamp<long long>(value, 1, kMaxThreads));
}

// The warn-once cache lives at namespace scope (not function-local
// statics) so the guarded_by relation between the mutex and the set is
// expressible to the thread-safety analysis.
Mutex g_bad_threads_mutex;
std::set<std::string> g_bad_threads_warned
    VWSDK_GUARDED_BY(g_bad_threads_mutex);

// A mis-typed VWSDK_THREADS should degrade, not abort a mapping run --
// but it must not degrade *silently* either, or a fat-fingered value
// quietly changes every wall time.  Warn once per distinct bad value
// (default_thread_count is called per pool construction; repeating the
// warning every time would drown the log).
void warn_bad_threads_env(const char* value, int fallback) {
  {
    const MutexLock lock(g_bad_threads_mutex);
    if (!g_bad_threads_warned.insert(value).second) {
      return;
    }
  }
  // Log outside the lock: the sink is user code and must not run under
  // this cache's mutex (leaf-lock discipline, docs/CONCURRENCY.md).
  log_warn("VWSDK_THREADS=\"", value,
           "\" is not a positive integer; using ", fallback,
           " worker thread(s) instead");
}

}  // namespace

int ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware = clamp_threads(hw == 0 ? 1 : static_cast<long long>(hw));
  if (const char* env = std::getenv("VWSDK_THREADS")) {
    try {
      const long long parsed = parse_count(env);
      if (parsed > 0) {
        return clamp_threads(parsed);
      }
      warn_bad_threads_env(env, hardware);  // "0"
    } catch (const InvalidArgument&) {
      // Garbage, a sign, or overflow: parse_count rejects them all.
      warn_bad_threads_env(env, hardware);
    }
  }
  return hardware;
}

int ThreadPool::resolve_thread_count(int requested) {
  if (requested > 0) {
    return clamp_threads(requested);
  }
  return default_thread_count();
}

/// The shared state of one parallel_chunks call.  Helper jobs hold it
/// by shared_ptr, so a helper that started just before the call
/// withdrew the rest still finds a valid cursor; `fn` is touched only
/// for a claimed chunk, and the caller does not return before every
/// claimed chunk finished.
struct ThreadPool::ChunkRun {
  ChunkRun(const std::function<void(Count, Count)>& body, Count total,
           Count width)
      : fn(&body),
        n(total),
        chunk(width),
        chunks(ceil_div(total, width)),
        first_failed(chunks) {}

  /// Claim chunks in index order and run them until none is left, or
  /// until `stop` (when given) reads true before the next claim.
  void work(const std::atomic<bool>* stop = nullptr) VWSDK_EXCLUDES(mutex) {
    while (stop == nullptr || !stop->load(std::memory_order_relaxed)) {
      const Count index = next.fetch_add(1);
      if (index >= chunks) {
        return;
      }
      const Count begin = index * chunk;
      std::exception_ptr error;
      try {
        (*fn)(begin, std::min(begin + chunk, n));
      } catch (...) {
        error = std::current_exception();
      }
      bool last = false;
      {
        const MutexLock lock(mutex);
        if (error && index < first_failed) {
          first_failed = index;
          first_error = error;
        }
        last = ++finished == chunks;
      }
      if (last) {
        done.notify_one();
      }
    }
  }

  /// Block until every chunk has finished; the first failed chunk's
  /// exception, or null.
  std::exception_ptr wait() VWSDK_EXCLUDES(mutex) {
    const MutexLock lock(mutex);
    while (finished < chunks) {
      done.wait(mutex);
    }
    return first_error;
  }

  const std::function<void(Count, Count)>* fn;
  const Count n;
  const Count chunk;
  const Count chunks;
  std::atomic<Count> next{0};
  Mutex mutex;
  CondVar done;
  Count finished VWSDK_GUARDED_BY(mutex) = 0;
  Count first_failed VWSDK_GUARDED_BY(mutex);  ///< chunks = none failed
  std::exception_ptr first_error VWSDK_GUARDED_BY(mutex);
};

ThreadPool::ThreadPool(int threads, int max_inflight, int max_queue)
    : max_inflight_(max_inflight), max_queue_(max_queue) {
  VWSDK_REQUIRE(max_inflight >= 1,
                cat("max_inflight must be >= 1 (got ", max_inflight, ")"));
  VWSDK_REQUIRE(max_queue >= 0,
                cat("max_queue must be >= 0 (got ", max_queue, ")"));
  const int count = resolve_thread_count(threads);
  wake_ = std::vector<CondVar>(static_cast<std::size_t>(count));
  workers_.reserve(static_cast<std::size_t>(count));
  const MutexLock lock(mutex_);
  state_.assign(static_cast<std::size_t>(count), WorkerState::kIdle);
  for (int i = 0; i < count; ++i) {
    idle_workers_.push_back(i);
    workers_.emplace_back([this, i]() { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  drain();
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  for (CondVar& wake : wake_) {
    wake.notify_all();
  }
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

bool ThreadPool::try_submit(std::function<void()> task,
                            std::function<void()> reply) {
  const MutexLock lock(mutex_);
  const int outstanding = static_cast<int>(admitted_.size()) + running_;
  if (draining_ || outstanding >= max_inflight_ + max_queue_) {
    ++rejected_;
    return false;
  }
  ++accepted_;
  ++unfinished_;
  admitted_.push_back({std::move(task), std::move(reply)});
  // Wake a worker only for a task that may start now; a later one is
  // taken by the worker whose task finishing makes it admissible.
  if (outstanding < max_inflight_) {
    wake_idle(WorkerState::kReserved);
  }
  publish_task_waiting();
  return true;
}

void ThreadPool::drain() {
  const MutexLock lock(mutex_);
  draining_ = true;
  // Explicit predicate loop (not a wait-with-lambda) so the guarded
  // reads stay visible to the thread-safety analysis.
  while (unfinished_ != 0) {
    finished_.wait(mutex_);
  }
}

AdmissionStats ThreadPool::stats() const {
  const MutexLock lock(mutex_);
  AdmissionStats stats;
  stats.busy = running_;
  stats.queued = static_cast<int>(admitted_.size());
  stats.accepted = accepted_;
  stats.rejected = rejected_;
  return stats;
}

void ThreadPool::post_helpers(const std::shared_ptr<ChunkRun>& run,
                              Count copies) {
  const MutexLock lock(mutex_);
  helpers_.insert(helpers_.end(), static_cast<std::size_t>(copies), run);
  for (Count c = 0; c < copies; ++c) {
    if (!wake_idle(WorkerState::kFree)) {
      break;
    }
  }
}

void ThreadPool::withdraw_helpers(const std::shared_ptr<ChunkRun>& run) {
  const MutexLock lock(mutex_);
  std::erase(helpers_, run);
}

bool ThreadPool::unclaimed_task() const {
  return static_cast<int>(admitted_.size()) > reserved_ &&
         running_ + reserved_ < max_inflight_;
}

void ThreadPool::publish_task_waiting() {
  task_waiting_.store(unclaimed_task(), std::memory_order_relaxed);
}

bool ThreadPool::wake_idle(WorkerState next) {
  if (idle_workers_.empty()) {
    return false;
  }
  const auto worker = static_cast<std::size_t>(idle_workers_.back());
  idle_workers_.pop_back();
  state_[worker] = next;
  if (next == WorkerState::kReserved) {
    ++reserved_;
  }
  wake_[worker].notify_one();
  return true;
}

void ThreadPool::worker_loop(int id) {
  const auto self = static_cast<std::size_t>(id);
  CondVar& wakeup = wake_[self];
  for (;;) {
    Job job;
    std::shared_ptr<ChunkRun> helper;
    {
      const MutexLock lock(mutex_);
      // A worker on the idle stack takes nothing until new work pops
      // it.  One popped by try_submit takes a task; a free one takes a
      // task no reserved worker is coming for, then a helper job, and
      // otherwise returns to the bottom of the stack.
      for (;;) {
        if (state_[self] == WorkerState::kReserved) {
          --reserved_;  // its task is now unclaimed and taken just below
          state_[self] = WorkerState::kFree;
        }
        if (state_[self] == WorkerState::kFree) {
          if (unclaimed_task()) {
            job = std::move(admitted_.front());
            admitted_.pop_front();
            ++running_;
            publish_task_waiting();
            break;
          }
          if (!helpers_.empty()) {
            helper = std::move(helpers_.front());
            helpers_.pop_front();
            break;
          }
          state_[self] = WorkerState::kIdle;
          idle_workers_.push_front(id);  // helping keeps no arena warm
        }
        if (stopping_) {
          return;  // drained, and no parallel_chunks call is left
        }
        wakeup.wait(mutex_);
      }
    }
    if (helper) {
      // A helper is optional work: it stops claiming chunks while an
      // admitted task waits for a worker, and the caller runs the rest.
      helper->work(&task_waiting_);
      continue;
    }
    job.task();  // the task catches its own exceptions (server.cpp); a
                 // throw here would terminate
    {
      // Idle again, on top of the stack, in the same critical section
      // that drops running_: work offered after this wakes this worker.
      const MutexLock lock(mutex_);
      --running_;
      publish_task_waiting();
      if (!unclaimed_task() && helpers_.empty()) {
        state_[self] = WorkerState::kIdle;
        idle_workers_.push_back(id);
      }
    }
    if (job.reply) {
      // Already idle: a request the reply lets a client send pops this
      // worker, which takes it once the reply returns.
      job.reply();
    }
    const MutexLock lock(mutex_);
    if (--unfinished_ == 0) {
      finished_.notify_all();
    }
  }
}

void parallel_chunks(ThreadPool* pool, Count n,
                     const std::function<void(Count, Count)>& fn) {
  if (n <= 0) {
    return;
  }
  if (pool == nullptr) {
    fn(0, n);
    return;
  }
  // Several chunks per worker keeps uneven chunk costs from leaving
  // threads idle at the tail of the range.
  const Count target_chunks = std::min<Count>(n, Count{pool->size()} * 4);
  const auto run = std::make_shared<ThreadPool::ChunkRun>(
      fn, n, ceil_div(n, target_chunks));
  // The caller takes chunks too, so at most chunks - 1 helpers can help.
  const Count helpers = std::min<Count>(pool->size(), run->chunks - 1);
  try {
    pool->post_helpers(run, helpers);
  } catch (...) {
    // Posting failed (e.g. bad_alloc): the caller runs every chunk the
    // helpers already posted do not take.
  }
  run->work();
  // Every chunk is claimed: helpers that have not started would find
  // nothing left, and queued they would keep a finished worker off the
  // top of the idle stack.
  pool->withdraw_helpers(run);
  if (const std::exception_ptr error = run->wait()) {
    std::rethrow_exception(error);
  }
}

}  // namespace vwsdk
