/// @file test_admission.cpp
/// The serve daemon's admission control, which is the bounded
/// try_submit of the one ThreadPool, and the scheduling rules that
/// bound shares with the pool's parallel_chunks helpers.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/thread_pool.h"

namespace vwsdk {
namespace {

/// A latch the tests use to hold workers busy deterministically --
/// no sleeps, so the bounds are exact regardless of scheduling.
class Gate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    opened_.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    opened_.wait(lock, [this] { return open_; });
  }

  /// Wait at most `timeout`; true when the gate opened.
  bool wait_for(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return opened_.wait_for(lock, timeout, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable opened_;
  bool open_ = false;
};

TEST(Admission, RunsEverythingWithinBounds) {
  ThreadPool pool(2, 2, 2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(pool.try_submit([&ran] { ++ran; }));
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(pool.stats().accepted, 4);
  EXPECT_EQ(pool.stats().rejected, 0);
}

TEST(Admission, RejectsBeyondInflightPlusQueue) {
  ThreadPool pool(1, 1, 1);
  Gate gate;
  Gate busy;
  std::atomic<int> ran{0};
  // Occupy the single worker...
  ASSERT_TRUE(pool.try_submit([&] {
    busy.open();
    gate.wait();
    ++ran;
  }));
  busy.wait();  // the worker is now inside the task, not queued
  // ...fill the single queue slot...
  ASSERT_TRUE(pool.try_submit([&ran] { ++ran; }));
  // ...and the third request must be refused, not blocked.
  EXPECT_FALSE(pool.try_submit([&ran] { ++ran; }));
  EXPECT_EQ(pool.stats().rejected, 1);
  EXPECT_EQ(pool.stats().busy, 1);
  EXPECT_EQ(pool.stats().queued, 1);

  gate.open();
  pool.drain();
  // The refused task never ran; the accepted ones all did.
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(pool.stats().accepted, 2);
}

TEST(Admission, DrainFinishesAcceptedWorkThenRefusesSubmits) {
  ThreadPool pool(2, 2, 8);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.try_submit([&ran] { ++ran; }));
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_FALSE(pool.try_submit([&ran] { ++ran; }));
  EXPECT_EQ(ran.load(), 8);
  pool.drain();  // idempotent
}

TEST(Admission, RejectsInvalidBounds) {
  EXPECT_THROW(ThreadPool(1, 0, 1), InvalidArgument);
  EXPECT_THROW(ThreadPool(1, 1, -1), InvalidArgument);
}

TEST(Admission, StatsSettleAfterDrain) {
  ThreadPool pool(4, 4, 4);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(pool.try_submit([] {}));
  }
  pool.drain();
  const AdmissionStats stats = pool.stats();
  EXPECT_EQ(stats.busy, 0);
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.accepted, 6);
}

TEST(Admission, SequentialSubmitsReuseTheMostRecentlyIdleWorker) {
  // LIFO handoff: with one request at a time, the worker that just went
  // idle runs the next one, whatever --max-inflight is, so only one
  // worker's malloc arena stays warm.
  ThreadPool pool(8, 8, 0);
  std::vector<std::thread::id> ran_on;
  for (int i = 0; i < 50; ++i) {
    Gate done;
    ASSERT_TRUE(pool.try_submit([&] {
      ran_on.push_back(std::this_thread::get_id());
      done.open();
    }));
    done.wait();
    while (pool.stats().busy != 0) {
      std::this_thread::yield();
    }
  }
  pool.drain();
  ASSERT_EQ(ran_on.size(), 50u);
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, ran_on.front());
  }
}

TEST(Admission, ReplyRunsAfterTheWorkerIsIdleAgain) {
  // The server writes a response in the reply.  A request the client
  // sends as soon as it reads that response is submitted while the reply
  // still runs; it must go to the replying worker, not to a second one.
  ThreadPool pool(8, 8, 0);
  std::vector<std::thread::id> ran_on;
  Gate done;
  ASSERT_TRUE(pool.try_submit(
      [&] { ran_on.push_back(std::this_thread::get_id()); },
      [&] {
        EXPECT_EQ(pool.stats().busy, 0);
        ASSERT_TRUE(pool.try_submit([&] {
          ran_on.push_back(std::this_thread::get_id());
          done.open();
        }));
      }));
  done.wait();
  pool.drain();
  ASSERT_EQ(ran_on.size(), 2u);
  EXPECT_EQ(ran_on[1], ran_on[0]);
}

TEST(Admission, SequentialFanOutsStayOnOneWorker) {
  // The bottom-of-stack rule: a request's parallel_chunks wakes other
  // workers as helpers, which return *under* the request's worker, so
  // the next request still finds that worker on top.
  ThreadPool pool(8, 8, 0);
  std::vector<std::thread::id> ran_on;
  for (int i = 0; i < 50; ++i) {
    Gate done;
    ASSERT_TRUE(pool.try_submit([&] {
      ran_on.push_back(std::this_thread::get_id());
      std::vector<std::atomic<int>> seen(256);
      parallel_chunks(&pool, 256, [&seen](Count begin, Count end) {
        for (Count k = begin; k < end; ++k) {
          ++seen[static_cast<std::size_t>(k)];
        }
      });
      for (const auto& cell : seen) {
        EXPECT_EQ(cell.load(), 1);
      }
      done.open();
    }));
    done.wait();
    while (pool.stats().busy != 0) {
      std::this_thread::yield();
    }
  }
  pool.drain();
  ASSERT_EQ(ran_on.size(), 50u);
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, ran_on.front());
  }
}

TEST(Admission, InflightBeyondPoolSizeRunsAtMostPoolSize) {
  // --max-inflight 4 on 2 threads: two run, two wait, all four finish.
  ThreadPool pool(2, 4, 0);
  Gate gate;
  std::atomic<int> entered{0};
  std::atomic<int> max_busy{0};
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.try_submit([&] {
      ++entered;
      const int busy = pool.stats().busy;
      int seen = max_busy.load();
      while (busy > seen && !max_busy.compare_exchange_weak(seen, busy)) {
      }
      gate.wait();
      ++ran;
    }));
  }
  while (entered.load() != 2) {
    std::this_thread::yield();
  }
  const AdmissionStats held = pool.stats();
  EXPECT_EQ(held.busy, 2);
  EXPECT_EQ(held.queued, 2);
  gate.open();
  pool.drain();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_LE(max_busy.load(), 2);
  EXPECT_EQ(pool.stats().accepted, 4);
}

TEST(Admission, AdmittedRequestStartsBeforeQueuedHelpers) {
  // One worker, held by a helper of call A; call B's helper job waits
  // behind it, then a request is admitted.  When A's chunks finish, the
  // worker must run the request, then B's helper.  B's caller holds
  // chunk 0 until chunk 1 has run, so only that helper can run chunk 1.
  // A worker that took the helper first would find a request waiting,
  // drop the helper without a chunk, and leave chunk 1 to B's caller
  // once its wait times out.
  ThreadPool pool(1, 1, 0);
  Gate release_a;
  std::atomic<int> a_entered{0};
  Gate b_entered;
  Gate b_chunk1_ran;
  std::mutex log_mutex;
  std::vector<std::string> log;
  const auto note = [&](const std::string& event) {
    std::lock_guard<std::mutex> lock(log_mutex);
    log.push_back(event);
  };

  std::thread a([&] {
    parallel_chunks(&pool, 2, [&](Count, Count) {
      ++a_entered;
      release_a.wait();
    });
  });
  while (a_entered.load() != 2) {  // the caller and the worker are in
    std::this_thread::yield();
  }
  std::thread b([&] {
    const std::thread::id caller = std::this_thread::get_id();
    parallel_chunks(&pool, 2, [&, caller](Count begin, Count) {
      if (begin == 0) {
        b_entered.open();
        (void)b_chunk1_ran.wait_for(std::chrono::seconds(5));
      } else if (std::this_thread::get_id() != caller) {
        note("helper");
        b_chunk1_ran.open();
      }
    });
  });
  b_entered.wait();  // B's helper job is queued behind A's
  ASSERT_TRUE(pool.try_submit([&] { note("request"); }));
  release_a.open();
  a.join();
  b.join();
  pool.drain();
  EXPECT_EQ(log, (std::vector<std::string>{"request", "helper"}));
}

TEST(Admission, HelpersStopClaimingChunksWhileARequestWaits) {
  // One worker runs a request, the other helps call A.  A second
  // request then waits for a worker; the helper must hand its worker
  // over after the chunk in hand, leaving the rest of A to its caller.
  ThreadPool pool(2, 2, 0);
  Gate release_first;
  Gate first_running;
  Gate release_helper;
  Gate release_caller;
  std::atomic<int> claimed{0};
  std::atomic<int> claimed_when_second_ran{-1};
  ASSERT_TRUE(pool.try_submit([&] {
    first_running.open();
    release_first.wait();
  }));
  first_running.wait();
  std::thread a([&] {
    const std::thread::id caller = std::this_thread::get_id();
    parallel_chunks(&pool, 8, [&, caller](Count, Count) {
      const int order = claimed++;
      if (std::this_thread::get_id() == caller) {
        release_caller.wait();
      } else if (order < 2) {
        release_helper.wait();
      }
    });
  });
  while (claimed.load() != 2) {  // the caller and the helper each hold one
    std::this_thread::yield();
  }
  ASSERT_TRUE(pool.try_submit([&] {
    claimed_when_second_ran = claimed.load();
    release_caller.open();
  }));
  release_helper.open();
  a.join();
  release_first.open();
  pool.drain();
  EXPECT_EQ(claimed_when_second_ran.load(), 2);
  EXPECT_EQ(claimed.load(), 8);
}

TEST(Admission, OneThreadPoolAdmittedTaskFansOut) {
  // The task's parallel_chunks queues a helper no worker can take (the
  // only one runs the task), so the task must claim every chunk itself
  // and never wait on that helper.
  ThreadPool pool(1, 1, 0);
  std::vector<std::atomic<int>> seen(100);
  std::promise<void> replied;
  std::future<void> done = replied.get_future();
  ASSERT_TRUE(pool.try_submit(
      [&] {
        parallel_chunks(&pool, 100, [&seen](Count begin, Count end) {
          for (Count k = begin; k < end; ++k) {
            ++seen[static_cast<std::size_t>(k)];
          }
        });
      },
      [&] { replied.set_value(); }));
  if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fputs("fan-out inside a one-thread pool's task deadlocked\n",
               stderr);
    std::_Exit(1);
  }
  pool.drain();
  for (const auto& cell : seen) {
    EXPECT_EQ(cell.load(), 1);
  }
}

// ---------------------------------------------------------------------
// Contention cases (ctest label `stress`).
// ---------------------------------------------------------------------

/// A reject storm: both workers pinned, eight threads hammering
/// try_submit far past the bounds.  Accounting must stay exact under
/// the race -- accepted + rejected equals offered, every accepted task
/// runs exactly once, nothing rejected ever runs.
TEST(AdmissionStress, RejectStormAccountingStaysExact) {
  constexpr int kSubmitters = 8;
  constexpr int kPerSubmitter = 200;
  ThreadPool pool(2, 2, 2);
  Gate gate;
  Gate busy_a;
  Gate busy_b;
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.try_submit([&] {
    busy_a.open();
    gate.wait();
    ++ran;
  }));
  ASSERT_TRUE(pool.try_submit([&] {
    busy_b.open();
    gate.wait();
    ++ran;
  }));
  busy_a.wait();
  busy_b.wait();  // both workers are now inside tasks; only the queue
                  // slots (2) remain for the storm

  std::atomic<int> accepted{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        if (pool.try_submit([&ran] { ++ran; })) {
          ++accepted;
        }
      }
    });
  }
  for (std::thread& submitter : submitters) {
    submitter.join();
  }
  // Workers were pinned throughout, so the storm could land at most the
  // two queue slots.
  EXPECT_LE(accepted.load(), 2);

  gate.open();
  pool.drain();
  const AdmissionStats stats = pool.stats();
  EXPECT_EQ(ran.load(), 2 + accepted.load());
  EXPECT_EQ(stats.accepted, 2 + accepted.load());
  EXPECT_EQ(stats.rejected,
            kSubmitters * kPerSubmitter - accepted.load());
  EXPECT_EQ(stats.busy, 0);
  EXPECT_EQ(stats.queued, 0);
}

/// drain() racing live submitters: whatever try_submit accepted before
/// the drain began must run to completion; everything after is refused;
/// the counters agree with the submitters' own tally.
TEST(AdmissionStress, DrainRacingSubmittersLosesNoAcceptedWork) {
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 500;
  ThreadPool pool(4, 4, 8);
  std::atomic<int> ran{0};
  std::atomic<int> accepted{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        if (pool.try_submit([&ran] { ++ran; })) {
          ++accepted;
        }
      }
    });
  }
  // Drain mid-storm: no synchronization on purpose -- the race with
  // in-flight try_submit calls is the test.
  pool.drain();
  const Count accepted_at_drain = pool.stats().accepted;
  for (std::thread& submitter : submitters) {
    submitter.join();
  }

  const AdmissionStats stats = pool.stats();
  EXPECT_EQ(ran.load(), accepted.load());
  EXPECT_EQ(stats.accepted, accepted.load());
  // drain() set draining_ under the mutex, so nothing was accepted
  // after it began.
  EXPECT_EQ(stats.accepted, accepted_at_drain);
  EXPECT_EQ(stats.accepted + stats.rejected,
            kSubmitters * kPerSubmitter);
  EXPECT_EQ(stats.busy, 0);
  EXPECT_EQ(stats.queued, 0);
  EXPECT_FALSE(pool.try_submit([&ran] { ++ran; }));
}

}  // namespace
}  // namespace vwsdk
