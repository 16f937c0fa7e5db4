#include "serve/admission.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"

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

 private:
  std::mutex mutex_;
  std::condition_variable opened_;
  bool open_ = false;
};

TEST(Admission, RunsEverythingWithinBounds) {
  AdmissionQueue queue(2, 2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(queue.try_submit([&ran] { ++ran; }));
  }
  queue.drain();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(queue.stats().accepted, 4);
  EXPECT_EQ(queue.stats().rejected, 0);
}

TEST(Admission, RejectsBeyondInflightPlusQueue) {
  AdmissionQueue queue(1, 1);
  Gate gate;
  Gate busy;
  std::atomic<int> ran{0};
  // Occupy the single worker...
  ASSERT_TRUE(queue.try_submit([&] {
    busy.open();
    gate.wait();
    ++ran;
  }));
  busy.wait();  // the worker is now inside the task, not queued
  // ...fill the single queue slot...
  ASSERT_TRUE(queue.try_submit([&ran] { ++ran; }));
  // ...and the third request must be refused, not blocked.
  EXPECT_FALSE(queue.try_submit([&ran] { ++ran; }));
  EXPECT_EQ(queue.stats().rejected, 1);
  EXPECT_EQ(queue.stats().busy, 1);
  EXPECT_EQ(queue.stats().queued, 1);

  gate.open();
  queue.drain();
  // The refused task never ran; the accepted ones all did.
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(queue.stats().accepted, 2);
}

TEST(Admission, DrainFinishesAcceptedWorkThenRefusesSubmits) {
  AdmissionQueue queue(2, 8);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(queue.try_submit([&ran] { ++ran; }));
  }
  queue.drain();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_FALSE(queue.try_submit([&ran] { ++ran; }));
  EXPECT_EQ(ran.load(), 8);
  queue.drain();  // idempotent
}

TEST(Admission, RejectsInvalidBounds) {
  EXPECT_THROW(AdmissionQueue(0, 1), InvalidArgument);
  EXPECT_THROW(AdmissionQueue(1, -1), InvalidArgument);
}

TEST(Admission, StatsSettleAfterDrain) {
  AdmissionQueue queue(4, 4);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue.try_submit([] {}));
  }
  queue.drain();
  const AdmissionStats stats = queue.stats();
  EXPECT_EQ(stats.busy, 0);
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.accepted, 6);
}

TEST(Admission, SequentialSubmitsReuseTheMostRecentlyIdleWorker) {
  // LIFO handoff: with one request at a time, the worker that just went
  // idle runs the next one, whatever --max-inflight is, so only one
  // worker's malloc arena stays warm.
  AdmissionQueue queue(8, 0);
  std::vector<std::thread::id> ran_on;
  for (int i = 0; i < 50; ++i) {
    Gate done;
    ASSERT_TRUE(queue.try_submit([&] {
      ran_on.push_back(std::this_thread::get_id());
      done.open();
    }));
    done.wait();
    while (queue.stats().busy != 0) {
      std::this_thread::yield();
    }
  }
  queue.drain();
  ASSERT_EQ(ran_on.size(), 50u);
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, ran_on.front());
  }
}

TEST(Admission, ReplyRunsAfterTheWorkerIsIdleAgain) {
  // The server writes a response in the reply.  A request the client
  // sends as soon as it reads that response is submitted while the reply
  // still runs; it must go to the replying worker, not to a second one.
  AdmissionQueue queue(8, 0);
  std::vector<std::thread::id> ran_on;
  Gate done;
  ASSERT_TRUE(queue.try_submit(
      [&] { ran_on.push_back(std::this_thread::get_id()); },
      [&] {
        EXPECT_EQ(queue.stats().busy, 0);
        ASSERT_TRUE(queue.try_submit([&] {
          ran_on.push_back(std::this_thread::get_id());
          done.open();
        }));
      }));
  done.wait();
  queue.drain();
  ASSERT_EQ(ran_on.size(), 2u);
  EXPECT_EQ(ran_on[1], ran_on[0]);
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
  AdmissionQueue queue(2, 2);
  Gate gate;
  Gate busy_a;
  Gate busy_b;
  std::atomic<int> ran{0};
  ASSERT_TRUE(queue.try_submit([&] {
    busy_a.open();
    gate.wait();
    ++ran;
  }));
  ASSERT_TRUE(queue.try_submit([&] {
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
        if (queue.try_submit([&ran] { ++ran; })) {
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
  queue.drain();
  const AdmissionStats stats = queue.stats();
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
  AdmissionQueue queue(4, 8);
  std::atomic<int> ran{0};
  std::atomic<int> accepted{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        if (queue.try_submit([&ran] { ++ran; })) {
          ++accepted;
        }
      }
    });
  }
  // Drain mid-storm: no synchronization on purpose -- the race with
  // in-flight try_submit calls is the test.
  queue.drain();
  const Count accepted_at_drain = queue.stats().accepted;
  for (std::thread& submitter : submitters) {
    submitter.join();
  }

  const AdmissionStats stats = queue.stats();
  EXPECT_EQ(ran.load(), accepted.load());
  EXPECT_EQ(stats.accepted, accepted.load());
  // drain() set draining_ under the mutex, so nothing was accepted
  // after it began.
  EXPECT_EQ(stats.accepted, accepted_at_drain);
  EXPECT_EQ(stats.accepted + stats.rejected,
            kSubmitters * kPerSubmitter);
  EXPECT_EQ(stats.busy, 0);
  EXPECT_EQ(stats.queued, 0);
  EXPECT_FALSE(queue.try_submit([&ran] { ++ran; }));
}

}  // namespace
}  // namespace vwsdk
