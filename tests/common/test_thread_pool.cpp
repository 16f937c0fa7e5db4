#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"

namespace vwsdk {
namespace {

/// RAII: capture warnings into a vector, restore logger defaults after.
class WarningCapture {
 public:
  WarningCapture() {
    messages_.clear();
    Logger::instance().set_sink([](LogLevel level, const std::string& msg) {
      if (level == LogLevel::kWarn) {
        messages_.push_back(msg);
      }
    });
  }
  ~WarningCapture() {
    Logger::instance().set_sink(nullptr);
    Logger::instance().set_level(LogLevel::kInfo);
  }

  static const std::vector<std::string>& messages() { return messages_; }

 private:
  static std::vector<std::string> messages_;
};

std::vector<std::string> WarningCapture::messages_;

/// RAII: restore the prior VWSDK_THREADS value (the sanitizer CI job
/// exports one globally; clobbering it would change later tests).
class ThreadsEnvGuard {
 public:
  ThreadsEnvGuard() {
    if (const char* prev = std::getenv("VWSDK_THREADS")) {
      had_value_ = true;
      saved_ = prev;
    }
  }
  ~ThreadsEnvGuard() {
    if (had_value_) {
      setenv("VWSDK_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("VWSDK_THREADS");
    }
  }

 private:
  bool had_value_ = false;
  std::string saved_;
};

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults) {
  std::vector<int> results(100, -1);
  ThreadPool pool(4, 4, 96);
  EXPECT_EQ(pool.size(), 4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.try_submit(
        [&results, i]() { results[static_cast<std::size_t>(i)] = i * i; }));
  }
  pool.drain();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPool, SingleWorkerStillCompletesEverything) {
  ThreadPool pool(1, 1, 49);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.try_submit([&count]() { ++count; }));
  }
  pool.drain();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2, 2, 198);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(pool.try_submit([&count]() { ++count; }));
    }
  }  // destructor joins after finishing the queue
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ParallelChunksCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(1000);
  parallel_chunks(&pool, 1000, [&seen](Count begin, Count end) {
    for (Count i = begin; i < end; ++i) {
      ++seen[static_cast<std::size_t>(i)];
    }
  });
  for (const auto& cell : seen) {
    EXPECT_EQ(cell.load(), 1);
  }
}

TEST(ThreadPool, ParallelChunksEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_chunks(&pool, 0, [&called](Count, Count) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelChunksRethrowsTaskException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      parallel_chunks(&pool, 100,
                      [](Count begin, Count) {
                        if (begin == 0) {
                          throw std::runtime_error("chunk failed");
                        }
                      }),
      std::runtime_error);
}

// Fan-outs nested inside the pool's only worker: the outer call runs on
// that worker and each chunk fans out again, so the calls complete only
// because every caller works through its own chunks.  The bounded wait
// turns a regression into a failure instead of a hung test binary.
TEST(ThreadPool, ParallelChunksFromInsideAChunkOfTheSamePoolCompletes) {
  ThreadPool pool(1);
  std::vector<std::atomic<int>> seen(64);
  std::promise<void> finished;
  std::future<void> outer = finished.get_future();
  ASSERT_TRUE(pool.try_submit([&pool, &seen, &finished]() {
    parallel_chunks(&pool, 8, [&pool, &seen](Count begin, Count end) {
      for (Count i = begin; i < end; ++i) {
        parallel_chunks(&pool, 8, [&seen, i](Count from, Count to) {
          for (Count j = from; j < to; ++j) {
            ++seen[static_cast<std::size_t>(i * 8 + j)];
          }
        });
      }
    });
    finished.set_value();
  }));
  if (outer.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    // The stuck threads can be neither joined nor destroyed: report and
    // end the process rather than hang in the pool's destructor.
    std::fputs("nested parallel_chunks deadlocked\n", stderr);
    std::_Exit(1);
  }
  for (const auto& cell : seen) {
    EXPECT_EQ(cell.load(), 1);
  }
}

TEST(ThreadPool, ParallelChunksWithoutPoolRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallel_chunks(nullptr, 10, [&](Count begin, Count end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 10);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ResolveThreadCountClampsAndPassesThrough) {
  EXPECT_EQ(ThreadPool::resolve_thread_count(4), 4);
  EXPECT_EQ(ThreadPool::resolve_thread_count(1), 1);
  EXPECT_EQ(ThreadPool::resolve_thread_count(100000), 256);
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1);
  EXPECT_GE(ThreadPool::resolve_thread_count(-5), 1);
}

TEST(ThreadPool, DefaultThreadCountHonoursEnvVar) {
  ThreadsEnvGuard env_guard;
  ASSERT_EQ(setenv("VWSDK_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3);
  ASSERT_EQ(setenv("VWSDK_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);  // falls back
  ASSERT_EQ(setenv("VWSDK_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);  // degrades, no throw
  ASSERT_EQ(unsetenv("VWSDK_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
}

// The degrade path must not be silent: each distinct bad value warns
// exactly once, naming the value and the fallback.  The bad values here
// must be unique to this test -- the once-per-value memory is
// process-wide, so a value another test already fed through
// default_thread_count would not warn again.
/// A number this process has not handed out before: the warned-about
/// set is process-wide, so a test run again under --gtest_repeat feeds
/// bad values derived from it, never ones already warned about.
int fresh_run() {
  static std::atomic<int> runs{0};
  return ++runs;
}

TEST(ThreadPool, BadEnvValueWarnsOncePerDistinctValue) {
  ThreadsEnvGuard env_guard;
  WarningCapture capture;
  const auto warnings = []() { return WarningCapture::messages().size(); };
  const int run = fresh_run();

  // Unparseable garbage.
  const std::string garbage = "abc" + std::to_string(run);
  ASSERT_EQ(setenv("VWSDK_THREADS", garbage.c_str(), 1), 0);
  const int fallback = ThreadPool::default_thread_count();
  EXPECT_GE(fallback, 1);
  ASSERT_EQ(warnings(), 1u);
  EXPECT_NE(WarningCapture::messages()[0].find(garbage), std::string::npos);
  EXPECT_NE(WarningCapture::messages()[0].find(std::to_string(fallback)),
            std::string::npos);

  // Repeating the same bad value does not warn again.
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  EXPECT_EQ(warnings(), 1u);

  // Non-positive ("0" is already consumed by the env-var test above,
  // so use zero spellings of two or more digits, one per run).
  const std::string zero(static_cast<std::size_t>(run) + 1, '0');
  ASSERT_EQ(setenv("VWSDK_THREADS", zero.c_str(), 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  ASSERT_EQ(warnings(), 2u);
  EXPECT_NE(WarningCapture::messages()[1].find('"' + zero + '"'),
            std::string::npos);

  // Negative (parse_count rejects the sign).
  const std::string negative = "-" + std::to_string(run + 1);
  ASSERT_EQ(setenv("VWSDK_THREADS", negative.c_str(), 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  ASSERT_EQ(warnings(), 3u);
  EXPECT_NE(WarningCapture::messages()[2].find(negative), std::string::npos);

  // Overflow (parse_count rejects values past long long).
  const std::string huge = "99999999999999999999" + std::to_string(run);
  ASSERT_EQ(setenv("VWSDK_THREADS", huge.c_str(), 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  ASSERT_EQ(warnings(), 4u);
  EXPECT_NE(WarningCapture::messages()[3].find(huge), std::string::npos);

  // A good value never warns.
  ASSERT_EQ(setenv("VWSDK_THREADS", "2", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 2);
  EXPECT_EQ(warnings(), 4u);

  // The literal "0" also degrades cleanly.  Its warning count is not
  // asserted: the env-var test above may have already consumed the
  // once-per-value slot for "0" in this process.
  ASSERT_EQ(setenv("VWSDK_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
}

// ---------------------------------------------------------------------
// Contention cases (ctest label `stress`): these hammer the pool's
// locking hard enough for TSan to see real interleavings, not just the
// happy path.
// ---------------------------------------------------------------------

/// Teardown while the queue is still deep: workers are pinned by gate
/// tasks while the main thread piles up hundreds more, then the pool is
/// destroyed the moment the gate opens.  The destructor contract --
/// drain everything, lose nothing -- must hold on every iteration.
TEST(ThreadPoolStress, TeardownWhileQueueDeepDrainsEveryTask) {
  constexpr int kIterations = 10;
  constexpr int kWorkers = 4;
  constexpr int kQueued = 500;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::atomic<int> count{0};
    std::atomic<bool> gate{false};
    {
      ThreadPool pool(kWorkers, kWorkers, kQueued);
      for (int i = 0; i < kWorkers; ++i) {
        ASSERT_TRUE(pool.try_submit([&] {
          while (!gate.load()) {
            std::this_thread::yield();
          }
          ++count;
        }));
      }
      for (int i = 0; i < kQueued; ++i) {
        ASSERT_TRUE(pool.try_submit([&count] { ++count; }));
      }
      gate.store(true);
    }  // destructor runs with (almost) the whole queue still pending
    ASSERT_EQ(count.load(), kWorkers + kQueued)
        << "iteration " << iteration << " dropped queued tasks";
  }
}

/// Many producers racing on try_submit while workers drain: every
/// admitted task runs exactly once.  The bounds admit every task, so
/// none may be refused either.
TEST(ThreadPoolStress, ConcurrentProducersNeverLoseOrDuplicateTasks) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 250;
  ThreadPool pool(4, 4, kProducers * kPerProducer);
  std::vector<std::atomic<int>> runs(kProducers * kPerProducer);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &pool, &runs] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int slot = p * kPerProducer + i;
        EXPECT_TRUE(pool.try_submit(
            [&runs, slot] { ++runs[static_cast<std::size_t>(slot)]; }));
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  pool.drain();
  for (const auto& cell : runs) {
    ASSERT_EQ(cell.load(), 1);
  }
}

/// Many callers fanning out on one small pool at once, as concurrent
/// daemon requests do: every index of every call runs exactly once, and
/// no call waits forever behind another's chunks.
TEST(ThreadPoolStress, ConcurrentCallersShareOnePool) {
  constexpr int kCallers = 8;
  constexpr int kRounds = 20;
  constexpr Count kPerCaller = 500;
  ThreadPool pool(2);
  std::vector<std::atomic<int>> runs(
      static_cast<std::size_t>(kCallers * kPerCaller));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &pool, &runs] {
      for (int round = 0; round < kRounds; ++round) {
        parallel_chunks(&pool, kPerCaller, [&](Count begin, Count end) {
          for (Count i = begin; i < end; ++i) {
            ++runs[static_cast<std::size_t>(c * kPerCaller + i)];
          }
        });
      }
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  for (const auto& cell : runs) {
    ASSERT_EQ(cell.load(), kRounds);  // once per call
  }
}

/// The once-per-value bad-env warning under a thundering herd: N
/// threads racing default_thread_count() on the same fresh bad value
/// must produce exactly one warning (the warned-set insert and the
/// log_warn used to race before the set moved behind vwsdk::Mutex).
TEST(ThreadPoolStress, BadEnvWarnOnceSurvivesThunderingHerd) {
  ThreadsEnvGuard env_guard;
  WarningCapture capture;
  // A bad value no other test and no earlier run uses: the warned-about
  // set is process-wide.
  const std::string herd = "stress-herd-" + std::to_string(fresh_run());
  ASSERT_EQ(setenv("VWSDK_THREADS", herd.c_str(), 1), 0);
  constexpr int kThreads = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [] { EXPECT_GE(ThreadPool::default_thread_count(), 1); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  ASSERT_EQ(WarningCapture::messages().size(), 1u);
  EXPECT_NE(WarningCapture::messages()[0].find(herd), std::string::npos);
}

}  // namespace
}  // namespace vwsdk
