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

ThreadPool::ThreadPool(int threads) {
  const int count = resolve_thread_count(threads);
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    const MutexLock lock(mutex_);
    VWSDK_ASSERT(!stopping_, "submit() on a stopping ThreadPool");
    queue_.push(std::move(job));
  }
  ready_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      const MutexLock lock(mutex_);
      // Explicit predicate loop (not a wait-with-lambda): the guarded
      // reads stay in this locked scope where the analysis sees them.
      while (!stopping_ && queue_.empty()) {
        ready_.wait(mutex_);
      }
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      job = std::move(queue_.front());
      queue_.pop();
    }
    job();  // packaged_task captures exceptions into its future
  }
}

namespace {

/// The shared state of one parallel_chunks call.  Helper tasks hold it
/// by shared_ptr, so a helper that only starts after the call returned
/// still finds a valid cursor; `fn` is touched only for a claimed chunk,
/// and the caller does not return before every claimed chunk finished.
struct ChunkRun {
  ChunkRun(const std::function<void(Count, Count)>& body, Count total,
           Count width)
      : fn(&body),
        n(total),
        chunk(width),
        chunks(ceil_div(total, width)),
        first_failed(chunks) {}

  /// Claim chunks in index order and run them until none is left.
  void work() VWSDK_EXCLUDES(mutex) {
    for (Count index = next.fetch_add(1); index < chunks;
         index = next.fetch_add(1)) {
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

}  // namespace

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
  const auto run =
      std::make_shared<ChunkRun>(fn, n, ceil_div(n, target_chunks));
  // The caller takes chunks too, so at most chunks - 1 helpers can help.
  const Count helpers = std::min<Count>(pool->size(), run->chunks - 1);
  try {
    for (Count h = 0; h < helpers; ++h) {
      (void)pool->submit([run]() { run->work(); });
    }
  } catch (...) {
    // submit() failed partway (e.g. bad_alloc): the caller runs every
    // chunk the helpers already submitted do not take.
  }
  run->work();
  if (const std::exception_ptr error = run->wait()) {
    std::rethrow_exception(error);
  }
}

}  // namespace vwsdk
