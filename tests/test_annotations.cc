// Runtime semantics of the annotated lock wrappers (common/annotations.h).
// The Clang CI lane proves the COMPILE-time story (see
// tests/test_annotations_negative/); this suite proves the wrappers still
// behave exactly like the std primitives they wrap — mutual exclusion,
// try-lock, reader/writer sharing, condition-variable wakeups, and the
// relockable MutexLock protocol — and runs tier-1 on every compiler.
//
// Guarded state lives in little structs: PB_GUARDED_BY applies to data
// members (on locals Clang ignores the attribute, with a warning the
// -Werror lanes would promote).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/annotations.h"

namespace pb {
namespace {

struct GuardedCounter {
  Mutex mu;
  int value PB_GUARDED_BY(mu) = 0;
};

TEST(MutexTest, ExclusionUnderContention) {
  GuardedCounter c;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&c.mu);
        ++c.value;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MutexLock lock(&c.mu);
  EXPECT_EQ(c.value, kThreads * kIncrements);
}

TEST(MutexTest, TryLockFailsWhileHeldSucceedsAfter) {
  Mutex mu;
  mu.Lock();
  std::atomic<int> observed{-1};
  // TryLock from ANOTHER thread: self-try-lock on a held std::mutex is UB.
  std::thread probe([&] {
    if (mu.TryLock()) {
      observed = 1;
      mu.Unlock();
    } else {
      observed = 0;
    }
  });
  probe.join();
  EXPECT_EQ(observed.load(), 0);
  mu.Unlock();
  std::thread probe2([&] {
    if (mu.TryLock()) {
      observed = 1;
      mu.Unlock();
    } else {
      observed = 0;
    }
  });
  probe2.join();
  EXPECT_EQ(observed.load(), 1);
}

TEST(SharedMutexTest, ReadersShareWriterExcludes) {
  SharedMutex mu;
  // Two readers can hold the lock at once: both must reach the rendezvous
  // while holding shared, which deadlocks if shared access is exclusive.
  std::atomic<int> readers_in{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      ReaderMutexLock lock(&mu);
      readers_in.fetch_add(1);
      while (readers_in.load() < 2) std::this_thread::yield();
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(readers_in.load(), 2);

  // A writer excludes readers: with the writer lock held, TryLockShared
  // from another thread must fail.
  mu.Lock();
  std::atomic<int> shared_got{-1};
  std::thread probe([&] {
    if (mu.TryLockShared()) {
      shared_got = 1;
      mu.UnlockShared();
    } else {
      shared_got = 0;
    }
  });
  probe.join();
  EXPECT_EQ(shared_got.load(), 0);
  mu.Unlock();

  // And a reader excludes writers.
  mu.LockShared();
  std::atomic<int> writer_got{-1};
  std::thread probe2([&] {
    if (mu.TryLock()) {
      writer_got = 1;
      mu.Unlock();
    } else {
      writer_got = 0;
    }
  });
  probe2.join();
  EXPECT_EQ(writer_got.load(), 0);
  mu.UnlockShared();
}

struct Gate {
  Mutex mu;
  CondVar cv;
  bool ready PB_GUARDED_BY(mu) = false;
};

TEST(CondVarTest, WaitWakesOnNotify) {
  Gate gate;
  std::atomic<bool> seen{false};
  std::thread waiter([&] {
    MutexLock lock(&gate.mu);
    while (!gate.ready) gate.cv.Wait(&gate.mu);
    seen = true;
  });
  {
    MutexLock lock(&gate.mu);
    gate.ready = true;
  }
  gate.cv.NotifyOne();
  waiter.join();
  EXPECT_TRUE(seen.load());
}

TEST(CondVarTest, PredicateOverloadHandlesSpuriousWakeups) {
  Mutex mu;
  CondVar cv;
  std::atomic<int> stage{0};  // unguarded: the lambda-predicate use case
  std::thread waiter([&] {
    MutexLock lock(&mu);
    cv.Wait(&mu, [&] { return stage.load() == 2; });
    stage = 3;
  });
  // Notify once at stage 1: the predicate is still false, so the waiter
  // must absorb the wakeup and keep waiting.
  stage = 1;
  cv.NotifyAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_NE(stage.load(), 3);
  stage = 2;
  cv.NotifyAll();
  waiter.join();
  EXPECT_EQ(stage.load(), 3);
}

TEST(CondVarTest, WaitForTimesOutAndReholdsMutex) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  const bool woke = cv.WaitFor(&mu, std::chrono::milliseconds(5));
  EXPECT_FALSE(woke);  // nobody notified
  // The mutex must be re-held after the timeout: a second thread's TryLock
  // fails.
  std::atomic<int> got{-1};
  std::thread probe([&] {
    if (mu.TryLock()) {
      got = 1;
      mu.Unlock();
    } else {
      got = 0;
    }
  });
  probe.join();
  EXPECT_EQ(got.load(), 0);
}

TEST(WriterMutexLockTest, ScopedWriterExcludesAndReleases) {
  SharedMutex mu;
  {
    WriterMutexLock lock(&mu);
    std::atomic<int> got{-1};
    std::thread probe([&] {
      if (mu.TryLockShared()) {
        got = 1;
        mu.UnlockShared();
      } else {
        got = 0;
      }
    });
    probe.join();
    EXPECT_EQ(got.load(), 0);
  }
  // Released on scope exit.
  std::atomic<int> got{-1};
  std::thread probe([&] {
    if (mu.TryLock()) {
      got = 1;
      mu.Unlock();
    } else {
      got = 0;
    }
  });
  probe.join();
  EXPECT_EQ(got.load(), 1);
}

}  // namespace
}  // namespace pb
