// Scheduler behaviour: the cooperative (help-first) and blocking
// (compensation) join disciplines of paper footnote 4, plus stress.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/api.hpp"

namespace tj::runtime {
namespace {

TEST(SchedulerModes, Names) {
  EXPECT_EQ(to_string(SchedulerMode::Blocking), "blocking");
  EXPECT_EQ(to_string(SchedulerMode::Cooperative), "cooperative");
}

TEST(SchedulerModes, ConfigDefaults) {
  const Config cfg;
  EXPECT_GT(cfg.effective_workers(), 0u);
  Config one;
  one.workers = 3;
  EXPECT_EQ(one.effective_workers(), 3u);
}

TEST(Cooperative, JoinerInlinesQueuedTarget) {
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = SchedulerMode::Cooperative,
             .workers = 1};
  Runtime rt(cfg);
  rt.root([] {
    // Pin the single worker on a spin-waiting blocker (spawned first, and
    // thieves steal oldest first, so the worker can run nothing else
    // meanwhile): every later task stays queued and the root's joins MUST
    // claim them inline. Without the blocker the worker could drain all 64
    // trivial tasks before the first join, making the inline count flaky.
    std::atomic<bool> release{false};
    auto blocker = async([&release] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    std::vector<Future<int>> fs;
    for (int i = 0; i < 64; ++i) fs.push_back(async([i] { return i; }));
    int acc = 0;
    for (auto& f : fs) acc += f.get();
    EXPECT_EQ(acc, 64 * 63 / 2);
    release.store(true, std::memory_order_release);
    blocker.join();
  });
  // All 64 queued tasks were inlined; the blocker itself may add one more
  // if the root's final join claims it before the worker does.
  EXPECT_GE(rt.scheduler().tasks_inlined(), 64u);
}

TEST(Cooperative, InlineClaimPropagatesExceptionAtGet) {
  // Regression: a task body's exception must be captured in the *target*
  // task and rethrown at the joiner's get(), even when the joiner claims
  // and runs the target inline — it must not unwind the joiner's frame from
  // inside the inline run (which would also leave the task un-Done,
  // stranding any other joiner).
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = SchedulerMode::Cooperative,
             .workers = 1};
  Runtime rt(cfg);
  rt.root([] {
    std::atomic<bool> release{false};
    auto blocker = async([&release] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    auto failing = async([]() -> int {
      throw std::runtime_error("inline boom");
    });
    EXPECT_THROW(failing.get(), std::runtime_error);
    // The joiner survived the inline run; the runtime keeps working.
    auto ok = async([] { return 7; });
    EXPECT_EQ(ok.get(), 7);
    release.store(true, std::memory_order_release);
    blocker.join();
  });
  EXPECT_GE(rt.scheduler().tasks_inlined(), 2u);
}

TEST(Cooperative, DeepInlineChainTerminates) {
  // Each task joins its own child: the join target is always claimable, so
  // a single worker must finish via pure inlining.
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = SchedulerMode::Cooperative,
             .workers = 1};
  Runtime rt(cfg);
  std::function<int(int)> nest = [&nest](int depth) -> int {
    if (depth == 0) return 0;
    auto f = async([&nest, depth] { return nest(depth - 1) + 1; });
    return f.get();
  };
  EXPECT_EQ(rt.root([&] { return nest(128); }), 128);
}

TEST(Blocking, CompensationKeepsThePoolBusy) {
  // Workers block in joins; compensation threads must be spawned so queued
  // tasks still execute. With 2 workers and a 3-deep blocking chain, the
  // run can only finish if the pool grows.
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = SchedulerMode::Blocking,
             .workers = 2,
             .max_threads = 64};
  Runtime rt(cfg);
  const int v = rt.root([] {
    auto a = async([] {
      auto b = async([] {
        auto c = async([] {
          auto d = async([] { return 1; });
          return d.get() + 1;
        });
        return c.get() + 1;
      });
      return b.get() + 1;
    });
    return a.get() + 1;
  });
  EXPECT_EQ(v, 5);
  EXPECT_EQ(rt.scheduler().tasks_inlined(), 0u);  // blocking mode never helps
  EXPECT_GE(rt.scheduler().thread_count(), 2u);
}

TEST(Blocking, WideFanoutWithSiblingJoins) {
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = SchedulerMode::Blocking,
             .workers = 4,
             .max_threads = 128};
  Runtime rt(cfg);
  const long v = rt.root([] {
    std::vector<Future<long>> layer1;
    for (int i = 0; i < 16; ++i) layer1.push_back(async([] { return 1L; }));
    std::vector<Future<long>> layer2;
    for (int i = 0; i < 16; ++i) {
      layer2.push_back(async([&layer1, i] {
        // Each layer-2 task joins three older siblings from layer 1.
        return layer1[static_cast<std::size_t>(i)].get() +
               layer1[static_cast<std::size_t>((i + 5) % 16)].get() +
               layer1[static_cast<std::size_t>((i + 11) % 16)].get();
      }));
    }
    long acc = 0;
    for (auto& f : layer2) acc += f.get();
    return acc;
  });
  EXPECT_EQ(v, 48);
}

class BothModes : public ::testing::TestWithParam<SchedulerMode> {};

TEST_P(BothModes, StressManySmallTasks) {
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = GetParam(),
             .workers = 4,
             .max_threads = 256};
  Runtime rt(cfg);
  std::atomic<long> side{0};
  const long v = rt.root([&side] {
    std::vector<Future<long>> fs;
    for (long i = 0; i < 5000; ++i) {
      fs.push_back(async([i, &side] {
        side.fetch_add(1, std::memory_order_relaxed);
        return i % 17;
      }));
    }
    long acc = 0;
    for (auto& f : fs) acc += f.get();
    return acc;
  });
  EXPECT_EQ(side.load(), 5000);
  long expected = 0;
  for (long i = 0; i < 5000; ++i) expected += i % 17;
  EXPECT_EQ(v, expected);
}

TEST_P(BothModes, RecursiveDivideAndConquer) {
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = GetParam(),
             .workers = 4,
             .max_threads = 256};
  Runtime rt(cfg);
  std::function<long(long, long)> sum = [&sum](long lo, long hi) -> long {
    if (hi - lo <= 64) {
      long acc = 0;
      for (long i = lo; i < hi; ++i) acc += i;
      return acc;
    }
    const long mid = lo + (hi - lo) / 2;
    auto l = async([&sum, lo, mid] { return sum(lo, mid); });
    auto r = async([&sum, mid, hi] { return sum(mid, hi); });
    return l.get() + r.get();
  };
  EXPECT_EQ(rt.root([&] { return sum(0, 10000); }), 10000L * 9999 / 2);
}

TEST_P(BothModes, ExecutedPlusInlinedCoversAllTasks) {
  Config cfg{.policy = core::PolicyChoice::None,
             .scheduler = GetParam(),
             .workers = 2};
  Runtime rt(cfg);
  rt.root([] {
    std::vector<Future<int>> fs;
    for (int i = 0; i < 100; ++i) fs.push_back(async([] { return 0; }));
    for (auto& f : fs) f.join();
  });
  EXPECT_EQ(rt.scheduler().tasks_executed(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Modes, BothModes,
                         ::testing::Values(SchedulerMode::Cooperative,
                                           SchedulerMode::Blocking));

}  // namespace
}  // namespace tj::runtime
