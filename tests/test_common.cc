// Unit tests for the common substrate: Status/Result, strings, math, random,
// the thread pool and the LRU cache.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "common/lru_cache.h"
#include "common/math.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace pb {
namespace {

// ----- Status / Result -----------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad knob");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::TypeError("x").code(), StatusCode::kTypeError);
  EXPECT_EQ(Status::Infeasible("x").code(), StatusCode::kInfeasible);
  EXPECT_EQ(Status::Unbounded("x").code(), StatusCode::kUnbounded);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HelperParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> HelperDouble(int v) {
  PB_ASSIGN_OR_RETURN(int x, HelperParsePositive(v));
  return x * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = HelperDouble(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  auto err = HelperDouble(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyTypesWork) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ----- Strings ---------------------------------------------------------------

TEST(StringsTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace("x"), "x");
}

TEST(StringsTest, CaseConversionAndCompare) {
  EXPECT_EQ(AsciiToLower("SeLeCt"), "select");
  EXPECT_EQ(AsciiToUpper("SeLeCt"), "SELECT");
  EXPECT_TRUE(EqualsIgnoreCase("Package", "pAcKaGe"));
  EXPECT_FALSE(EqualsIgnoreCase("Package", "Packages"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, JoinInverseOfSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, FormatDoubleIntegralValues) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(-120.0), "-120");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
}

TEST(StringsTest, LikeMatchBasics) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%llo"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_TRUE(LikeMatch("hello", "%"));
  EXPECT_FALSE(LikeMatch("hello", "h_loo"));
  EXPECT_FALSE(LikeMatch("hello", "hello_"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
}

TEST(StringsTest, LikeMatchBacktracking) {
  // Multiple '%' require backtracking in naive matchers.
  EXPECT_TRUE(LikeMatch("abcabcabc", "%abc%abc"));
  EXPECT_TRUE(LikeMatch("aaaaab", "%a%b"));
  EXPECT_FALSE(LikeMatch("aaaaa", "%b%"));
}

// ----- Math ------------------------------------------------------------------

TEST(MathTest, Log2FactorialSmallValues) {
  EXPECT_DOUBLE_EQ(Log2Factorial(0), 0.0);
  EXPECT_DOUBLE_EQ(Log2Factorial(1), 0.0);
  EXPECT_NEAR(Log2Factorial(4), std::log2(24.0), 1e-9);
}

TEST(MathTest, Log2BinomialMatchesExact) {
  EXPECT_NEAR(Log2Binomial(10, 3), std::log2(120.0), 1e-9);
  EXPECT_NEAR(Log2Binomial(52, 5), std::log2(2598960.0), 1e-6);
  EXPECT_EQ(Log2Binomial(5, 6), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(Log2Binomial(5, -1), -std::numeric_limits<double>::infinity());
}

TEST(MathTest, Log2BinomialSumFullRowIs2PowN) {
  // sum_k C(n,k) = 2^n.
  EXPECT_NEAR(Log2BinomialSum(20, 0, 20), 20.0, 1e-9);
  EXPECT_NEAR(Log2BinomialSum(100, 0, 100), 100.0, 1e-9);
}

TEST(MathTest, Log2BinomialSumClampsRange) {
  EXPECT_NEAR(Log2BinomialSum(10, -5, 100), 10.0, 1e-9);
  EXPECT_EQ(Log2BinomialSum(10, 7, 3),
            -std::numeric_limits<double>::infinity());
}

TEST(MathTest, BinomialOrSaturate) {
  EXPECT_EQ(BinomialOrSaturate(10, 3), 120u);
  EXPECT_EQ(BinomialOrSaturate(0, 0), 1u);
  EXPECT_EQ(BinomialOrSaturate(5, 6), 0u);
  // C(200, 100) overflows uint64: expect saturation.
  EXPECT_EQ(BinomialOrSaturate(200, 100),
            std::numeric_limits<uint64_t>::max());
}

TEST(MathTest, NearlyEqual) {
  EXPECT_TRUE(NearlyEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(NearlyEqual(1.0, 1.1));
}

// ----- Random ----------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(11);
  auto sample = rng.SampleIndices(50, 20);
  std::set<size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 20u);
  for (size_t i : sample) EXPECT_LT(i, 50u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  double t1 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.ElapsedSeconds(), t1);
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) pool.Submit([&sum, i] { sum += i; });
  pool.Wait();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.Submit([&calls] { ++calls; });
  pool.Wait();
  EXPECT_EQ(calls.load(), 1);
  pool.Submit([&calls] { ++calls; });
  pool.Submit([&calls] { ++calls; });
  pool.Wait();
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> calls{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) pool.Submit([&calls] { ++calls; });
  }
  EXPECT_EQ(calls.load(), 50);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

/// A task that parks on a worker until released, with a handshake so the
/// test can be sure a WORKER (not a helping waiter) is the one parked
/// before it proceeds — otherwise the test thread itself could steal the
/// blocker and deadlock on its own release.
struct Blocker {
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;

  std::function<void()> Task() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu);
      started = true;
      cv.notify_all();
      cv.wait(lock, [this] { return release; });
    };
  }
  void AwaitStarted() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return started; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  }
};

TEST(ThreadPoolTest, TryRunOneDrainsQueuedTask) {
  ThreadPool pool(1);
  // Park the lone worker so further submissions must queue.
  Blocker blocker;
  pool.Submit(blocker.Task());
  blocker.AwaitStarted();
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ++ran; });
  // The queued task runs on THIS thread.
  EXPECT_TRUE(pool.TryRunOne());
  EXPECT_EQ(ran.load(), 1);
  EXPECT_FALSE(pool.TryRunOne());  // queue is empty again
  blocker.Release();
  pool.Wait();
}

TEST(TaskGroupTest, WaitScopesToTheGroupNotThePool) {
  ThreadPool pool(2);
  // Group B parks one task on a worker; group A's Wait must still return.
  Blocker blocker;
  TaskGroup b(&pool);
  b.Spawn(blocker.Task());
  blocker.AwaitStarted();
  TaskGroup a(&pool);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 64; ++i) a.Spawn([&sum, i] { sum += i; });
  a.Wait();
  EXPECT_EQ(sum.load(), 64 * 65 / 2);
  blocker.Release();
  b.Wait();
}

TEST(TaskGroupTest, NestedWaitOnSharedPoolDoesNotDeadlock) {
  // A pool task spawns a subgroup into the SAME single-thread pool and
  // waits on it: Wait's work stealing must run the subtasks inline.
  ThreadPool pool(1);
  std::atomic<int> inner_runs{0};
  std::atomic<bool> outer_done{false};
  TaskGroup outer(&pool);
  outer.Spawn([&] {
    TaskGroup inner(&pool);
    for (int i = 0; i < 8; ++i) inner.Spawn([&inner_runs] { ++inner_runs; });
    inner.Wait();
    outer_done = true;
  });
  outer.Wait();
  EXPECT_EQ(inner_runs.load(), 8);
  EXPECT_TRUE(outer_done.load());
}

TEST(TaskGroupTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  TaskGroup group(&pool);
  std::atomic<int> calls{0};
  group.Spawn([&calls] { ++calls; });
  group.Wait();
  EXPECT_EQ(calls.load(), 1);
  for (int i = 0; i < 10; ++i) group.Spawn([&calls] { ++calls; });
  group.Wait();
  EXPECT_EQ(calls.load(), 11);
}

// ----- LruCache --------------------------------------------------------------

TEST(LruCacheTest, PutWithCapacityZeroStoresNothing) {
  LruCache<std::string, int> cache(0);
  cache.Put("a", 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Find("a"), nullptr);
}

TEST(LruCacheTest, FindOrInsertKeepsAtLeastOneEntry) {
  LruCache<std::string, int> cache(0);
  cache["a"] = 1;
  cache["b"] = 2;
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Find("a"), nullptr);
  ASSERT_NE(cache.Find("b"), nullptr);
  EXPECT_EQ(*cache.Find("b"), 2);
}

TEST(LruCacheTest, EvictionDropsOnlyTheCachesReference) {
  LruCache<uint64_t, std::shared_ptr<int>> cache(1);
  std::shared_ptr<int> held = cache[1] = std::make_shared<int>(7);
  EXPECT_EQ(held.use_count(), 2);
  cache[2] = std::make_shared<int>(8);
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(*held, 7);
}

TEST(LruCacheTest, HitsAndOverwritesMarkMostRecentlyUsed) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  ASSERT_NE(cache.Find("a"), nullptr);  // a hit: b is now least recent
  cache.Put("c", 3);
  EXPECT_EQ(cache.Find("b"), nullptr);
  cache.Put("a", 4);  // an overwrite: c is now least recent
  cache["d"];
  EXPECT_EQ(cache.Find("c"), nullptr);
  ASSERT_NE(cache.Find("a"), nullptr);
  EXPECT_EQ(*cache.Find("a"), 4);
  cache["d"] = 5;  // a hit through operator[]: a is now least recent
  cache.Put("e", 6);
  EXPECT_EQ(cache.Find("a"), nullptr);
  ASSERT_NE(cache.Find("d"), nullptr);
  EXPECT_EQ(*cache.Find("d"), 5);
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace pb
