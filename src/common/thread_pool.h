#pragma once

/// @file thread_pool.h
/// A fixed-size, futures-based worker pool with no dependencies beyond
/// the standard library.
///
/// Design notes:
///  * Tasks are submitted with `submit()` and return a `std::future`;
///    exceptions thrown by a task propagate through the future.
///  * `submit()` followed by `get()` from inside a task is *not*
///    re-entrant: with every worker occupied, that wait can never be
///    satisfied.
///  * `parallel_chunks()` is the bulk primitive every fan-out uses: it
///    splits an index range into contiguous chunks that the pool's
///    workers *and the calling thread* claim from a shared cursor, and
///    blocks until all complete (rethrowing the first chunk exception).
///    Because the caller works through the chunks itself, it is
///    re-entrant: a chunk may call parallel_chunks on the same pool,
///    and concurrent callers never wait behind each other's chunks
///    with nothing to do.
///  * A `ThreadPool*` that is nullptr means "run on the calling thread";
///    only the service facade (serve/service.h) owns a pool.
///
/// Thread count resolution (`default_thread_count`): the `VWSDK_THREADS`
/// environment variable when set to a positive integer, otherwise
/// `std::thread::hardware_concurrency()`; always clamped to [1, 256].
/// An unparseable or non-positive `VWSDK_THREADS` degrades to the
/// hardware default and logs a one-time warning (per distinct bad
/// value) naming the value and the fallback.

#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"

namespace vwsdk {

/// Fixed-size worker pool executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Start `threads` workers; `threads <= 0` means default_thread_count().
  explicit ThreadPool(int threads = 0);

  /// Drains nothing: joins after finishing all queued tasks.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue `task`; the returned future yields its result (or rethrows
  /// its exception).
  template <typename F>
  auto submit(F task) -> std::future<std::invoke_result_t<F&>> {
    using Result = std::invoke_result_t<F&>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(
        std::move(task));
    std::future<Result> future = packaged->get_future();
    enqueue([packaged]() { (*packaged)(); });
    return future;
  }

  /// `VWSDK_THREADS` env var if set to a positive integer, else
  /// hardware_concurrency(); clamped to [1, 256].
  static int default_thread_count();

  /// `requested > 0` passes through (clamped to 256); otherwise
  /// default_thread_count().
  static int resolve_thread_count(int requested);

 private:
  void enqueue(std::function<void()> job) VWSDK_EXCLUDES(mutex_);
  void worker_loop() VWSDK_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_ VWSDK_GUARDED_BY(mutex_);
  Mutex mutex_;
  CondVar ready_;
  bool stopping_ VWSDK_GUARDED_BY(mutex_) = false;
};

/// Run `fn(begin, end)` over [0, n) split into contiguous chunks, which
/// the calling thread and the workers of `pool` claim in index order;
/// blocks until every chunk finishes.  The first chunk exception (in
/// chunk order) is rethrown after all chunks complete.  A nullptr `pool`
/// runs `fn(0, n)` on the calling thread.  Safe to call from inside a
/// chunk running on the same pool.
void parallel_chunks(ThreadPool* pool, Count n,
                     const std::function<void(Count begin, Count end)>& fn);

}  // namespace vwsdk
