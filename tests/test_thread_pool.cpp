#include "opt/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "opt/cancel.hpp"
#include "test_helpers.hpp"

namespace fraz {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i) futures.push_back(pool.submit([i] { return i * i; }));
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  int expect = 0;
  for (int i = 0; i < 50; ++i) expect += i * i;
  EXPECT_EQ(sum, expect);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, SizeReportsWorkerCount) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  ThreadPool auto_pool(0);
  EXPECT_GE(auto_pool.size(), 1u);
}

TEST(ThreadPool, ActuallyParallel) {
  // Two 40ms sleeps on two workers should finish well under 80ms.
  ThreadPool pool(2);
  const auto start = std::chrono::steady_clock::now();
  auto a = pool.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(40)); });
  auto b = pool.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(40)); });
  a.get();
  b.get();
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 75.0);
}

TEST(ThreadPool, DestructionDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i)
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ++done;
      });
  }  // destructor must wait for queued work
  EXPECT_EQ(done.load(), 20);
}

TEST(ParallelFor, RunsEveryIndexOnceOnTheGivenPoolAndTheCaller) {
  ThreadPool pool(2);
  const std::set<std::thread::id> workers = testhelpers::pool_thread_ids(pool);
  ASSERT_EQ(workers.size(), 2u);
  std::vector<std::thread::id> ran(64);
  std::vector<std::atomic<int>> runs(ran.size());
  parallel_for(pool, ran.size(), 3, [&](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ran[i] = std::this_thread::get_id();
    ++runs[i];
  });
  std::set<std::thread::id> used;
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << i;
    used.insert(ran[i]);
  }
  for (const std::thread::id id : used)
    EXPECT_TRUE(id == std::this_thread::get_id() || workers.count(id) == 1);
  EXPECT_GT(used.size(), 1u);

  // A cap of one thread runs inline on the caller.
  std::set<std::thread::id> inline_ids;
  parallel_for(pool, 8, 1, [&](std::size_t) { inline_ids.insert(std::this_thread::get_id()); });
  EXPECT_EQ(inline_ids, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(CancelToken, SetOnceVisibleEverywhere) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  ThreadPool pool(2);
  auto f = pool.submit([&token] {
    while (!token.cancelled()) std::this_thread::yield();
    return true;
  });
  token.cancel();
  EXPECT_TRUE(f.get());
  EXPECT_TRUE(token.cancelled());
  token.cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

}  // namespace
}  // namespace fraz
