// The work-stealing substrate: the Chase–Lev deque on its own (order,
// growth, exactly-once hand-off under concurrent stealing) and the
// scheduler's liveness guarantees that per-thread deques must keep — a task
// queued behind a blocked or dead worker still runs. Every suite name
// starts with "WorkDeque" so `ctest -R WorkDeque` (the CI tsan stage) runs
// exactly this file.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/api.hpp"
#include "runtime/work_deque.hpp"

namespace tj::runtime {
namespace {

struct Item {
  std::atomic<bool> claimed{false};  // taken by a "joiner", entry now stale
  std::atomic<int> taken{0};         // entries handed out for this item
};

TEST(WorkDeque, OwnerIsLifoThievesAreFifoAcrossGrowth) {
  WorkDeque<Item> dq(2);
  std::vector<Item> items(40);
  for (Item& it : items) dq.push(&it);
  EXPECT_GE(dq.capacity(), 40u);
  // Oldest first from the top, newest first from the bottom.
  EXPECT_EQ(dq.steal(), &items[0]);
  EXPECT_EQ(dq.steal(), &items[1]);
  EXPECT_EQ(dq.pop(), &items[39]);
  EXPECT_EQ(dq.pop(), &items[38]);
  for (int i = 2; i < 38; ++i) EXPECT_EQ(dq.steal(), &items[i]);
  EXPECT_EQ(dq.pop(), nullptr);
  EXPECT_EQ(dq.steal(), nullptr);
  // Usable again after running dry.
  dq.push(&items[0]);
  EXPECT_EQ(dq.steal(), &items[0]);
  EXPECT_EQ(dq.pop(), nullptr);
}

// The owner pushes in bursts, pops, and trims (pops claimed entries off its
// bottom, pushing back the first unclaimed one) while three thieves steal,
// starting from a capacity of 4 so the ring grows many times under them.
// Every item must be handed out exactly once.
TEST(WorkDeque, EveryEntryTakenExactlyOnceUnderConcurrentStealing) {
  constexpr int kItems = 60000;
  constexpr int kThieves = 3;
  std::vector<Item> items(kItems);
  WorkDeque<Item> dq(4);
  std::atomic<bool> done{false};
  std::atomic<int> stolen{0};

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (true) {
        const bool finished = done.load(std::memory_order_acquire);
        if (Item* it = dq.steal()) {
          it->taken.fetch_add(1, std::memory_order_relaxed);
          stolen.fetch_add(1, std::memory_order_relaxed);
        } else if (finished) {
          return;
        }
      }
    });
  }

  std::uint64_t rng = 0x243f6a8885a308d3ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  int owner_taken = 0;
  int pushed = 0;
  while (pushed < kItems) {
    const int burst = 1 + static_cast<int>(next() % 300);
    for (int i = 0; i < burst && pushed < kItems; ++i) {
      dq.push(&items[pushed++]);
    }
    // Claim a few recent items the way a joiner's inline claim does.
    for (int i = 0; i < 3; ++i) {
      const int k = pushed - 1 - static_cast<int>(next() % 8);
      if (k >= 0) items[k].claimed.store(true, std::memory_order_relaxed);
    }
    if (next() % 2 == 0) {  // trim
      while (Item* it = dq.pop()) {
        if (!it->claimed.load(std::memory_order_relaxed)) {
          dq.push(it);
          break;
        }
        it->taken.fetch_add(1, std::memory_order_relaxed);
        ++owner_taken;
      }
    } else if (Item* it = dq.pop()) {  // plain LIFO pop
      it->taken.fetch_add(1, std::memory_order_relaxed);
      ++owner_taken;
    }
  }
  while (Item* it = dq.pop()) {
    it->taken.fetch_add(1, std::memory_order_relaxed);
    ++owner_taken;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : thieves) t.join();

  EXPECT_EQ(owner_taken + stolen.load(), kItems);
  int wrong = 0;
  for (const Item& it : items) {
    if (it.taken.load(std::memory_order_relaxed) != 1) ++wrong;
  }
  EXPECT_EQ(wrong, 0) << "items lost or handed out twice";
  EXPECT_GT(stolen.load(), 0);
  EXPECT_GT(dq.capacity(), 4u);
}

// Blocking mode at the max_threads cap: worker A runs X, which spawns Y onto
// A's own deque and blocks joining it; no compensation worker may be added,
// and the only other worker is pinned. Once the pin lifts, that worker must
// find Y in the blocked worker's deque, or X never completes.
TEST(WorkDequeScheduler, BlockedWorkersDequeIsDrainedAtThreadCap) {
  Runtime rt({.policy = core::PolicyChoice::TJ_SP,
              .scheduler = SchedulerMode::Blocking,
              .workers = 2,
              .max_threads = 2});
  const int v = rt.root([&rt] {
    auto release = std::make_shared<std::atomic<bool>>(false);
    auto pin = async([release] {
      while (!release->load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    std::atomic<bool> y_spawned{false};
    auto x = async([&y_spawned] {
      auto y = async([] { return 41; });
      y_spawned.store(true, std::memory_order_release);
      return y.get() + 1;
    });
    while (!y_spawned.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(rt.scheduler().thread_count(), 2u) << "grew past the cap";
    release->store(true, std::memory_order_release);
    pin.join();
    return x.get();
  });
  EXPECT_EQ(v, 42);
  EXPECT_EQ(rt.scheduler().thread_count(), 2u);
}

// Every task boundary kills its worker until the budget is spent, so the
// workers that run the spawners die with the spawners' children still in
// their deques. The replacements adopt those deques; nothing is lost.
TEST(WorkDequeScheduler, WorkerDeathLosesNoQueuedEntries) {
  for (const SchedulerMode mode :
       {SchedulerMode::Cooperative, SchedulerMode::Blocking}) {
    Config cfg{.policy = core::PolicyChoice::TJ_SP,
               .scheduler = mode,
               .workers = 2};
    cfg.fault_plan.seed = 7;
    cfg.fault_plan.worker_death_period = 1;
    cfg.fault_plan.max_worker_deaths = 8;
    Runtime rt(cfg);
    constexpr int kSpawners = 16;
    constexpr int kChildren = 64;
    std::atomic<int> ran{0};
    rt.root([&ran] {
      for (int s = 0; s < kSpawners; ++s) {
        // Never joined: the root must not inline a spawner, and each
        // spawner leaves its children queued when it returns.
        (void)async([&ran] {
          for (int c = 0; c < kChildren; ++c) {
            (void)async([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
          }
        });
      }
    });
    EXPECT_EQ(ran.load(), kSpawners * kChildren) << to_string(mode);
    EXPECT_EQ(rt.fault_stats().worker_deaths, 8u) << to_string(mode);
    // Each death left its thread object behind and added a replacement.
    EXPECT_EQ(rt.scheduler().thread_count(), 2u + 8u) << to_string(mode);
  }
}

// A cooperative joiner's trim pops its bottom entry to look at it and puts
// an unclaimed one back. While the entry is out, a searching worker can
// miss it in its last steal pass and its parking recheck, and park; the
// put-back must then wake it. Here the root, which never runs the put-back
// task itself, waits on a promise only that task fulfils, so a missed wake
// hangs the test. A varying pause before each round sweeps the worker's
// search end across the root's trim.
TEST(WorkDequeScheduler, TrimPutBackWakesAWorkerThatParkedPastIt) {
  Runtime rt({.policy = core::PolicyChoice::TJ_SP,
              .scheduler = SchedulerMode::Cooperative,
              .workers = 1});
  constexpr int kRounds = 20000;
  const int sum = rt.root([] {
    int acc = 0;
    for (int r = 0; r < kRounds; ++r) {
      const auto pause = std::chrono::nanoseconds(100 * (r % 64));
      const auto until = std::chrono::steady_clock::now() + pause;
      while (std::chrono::steady_clock::now() < until) {
      }
      auto p = make_promise<int>();
      auto b = async_owning(p, [p] { p.fulfill(1); });
      auto a = async([] {});
      a.join();  // inlined; the trim then pops a's entry, then b's
      acc += p.get();
      b.join();
    }
    return acc;
  });
  EXPECT_EQ(sum, kRounds);
}

// Runtimes built one after another on the same stack frame share an
// address; the root thread's deque binding must not carry over to the next.
TEST(WorkDequeScheduler, BackToBackRuntimesOnOneStackKeepSeparateDeques) {
  for (int round = 0; round < 20; ++round) {
    Runtime rt({.policy = core::PolicyChoice::TJ_SP,
                .scheduler = round % 2 == 0 ? SchedulerMode::Cooperative
                                            : SchedulerMode::Blocking,
                .workers = 2});
    const int sum = rt.root([] {
      std::vector<Future<int>> fs;
      for (int i = 0; i < 32; ++i) fs.push_back(async([i] { return i; }));
      int acc = 0;
      for (auto& f : fs) acc += f.get();
      return acc;
    });
    EXPECT_EQ(sum, 31 * 32 / 2);
  }
}

}  // namespace
}  // namespace tj::runtime
