// Contention-observatory tests: the profiled lock wrappers' cost contract
// (registry-inert when off, counter-only when uncontended, wait/hold
// histograms when contended), multithreaded wait attribution to the right
// site, the snapshot ordering invariant under concurrent hammering, the
// worker-state board, and the RuntimeSnapshot / telemetry-sample views of
// both. Every suite name starts with "Contention" so `ctest -R Contention`
// (the CI tsan stage) runs exactly this file — the wrappers and the state
// board are the newest always-on concurrency code in the runtime.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/contention.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "runtime/api.hpp"
#include "runtime/introspect.hpp"
#include "runtime/runtime.hpp"

namespace tj {
namespace {

using obs::ContentionEnableGuard;
using obs::ContentionRegistry;
using obs::ProfiledMutex;
using obs::ProfiledSharedMutex;
using obs::SiteSnapshot;
using obs::WorkerSlot;
using obs::WorkerState;
using obs::WorkerStateBoard;

/// Registry lookup by name; sites are process-cumulative, so tests use
/// unique site names and (where needed) diff snapshots.
bool find_site(const std::string& name, SiteSnapshot& out) {
  for (SiteSnapshot& s : ContentionRegistry::instance().snapshot()) {
    if (s.name == name) {
      out = std::move(s);
      return true;
    }
  }
  return false;
}

// --- the cost contract -----------------------------------------------------

TEST(ContentionWrapper, OffIsRegistryInert) {
  ASSERT_FALSE(obs::contention_profiling_enabled())
      << "another retainer is live; the off-contract cannot be tested";
  ProfiledMutex mu("test.inert");
  for (int i = 0; i < 100; ++i) {
    std::scoped_lock lk(mu);
  }
  // No site was interned: the wrapper never touched the registry.
  EXPECT_EQ(mu.site(), nullptr);
  SiteSnapshot snap;
  EXPECT_FALSE(find_site("test.inert", snap));
}

TEST(ContentionWrapper, UncontendedIsCounterOnly) {
  ContentionEnableGuard on(true);
  ProfiledMutex mu("test.uncontended");
  for (int i = 0; i < 50; ++i) {
    std::scoped_lock lk(mu);
  }
  SiteSnapshot snap;
  ASSERT_TRUE(find_site("test.uncontended", snap));
  EXPECT_EQ(snap.uncontended, 50u);
  EXPECT_EQ(snap.contended, 0u);
  EXPECT_EQ(snap.acquisitions, 50u);
  // No clock was read: the wait and hold histograms never recorded.
  EXPECT_EQ(snap.wait.count, 0u);
  EXPECT_EQ(snap.hold.count, 0u);
}

TEST(ContentionWrapper, SitesWithOneNameShareOneSlot) {
  ContentionEnableGuard on(true);
  ProfiledMutex a("test.shared-site");
  ProfiledMutex b("test.shared-site");
  {
    std::scoped_lock lk(a);
  }
  {
    std::scoped_lock lk(b);
  }
  SiteSnapshot snap;
  ASSERT_TRUE(find_site("test.shared-site", snap));
  EXPECT_EQ(snap.acquisitions, 2u);
  EXPECT_EQ(a.site(), b.site());
}

// --- contended attribution -------------------------------------------------

TEST(ContentionWrapper, WaitsLandOnTheContendedSiteOnly) {
  ContentionEnableGuard on(true);
  ProfiledMutex hot("test.hot");
  ProfiledMutex cold("test.cold");

  // Main holds `hot` while 4 threads block on it; `cold` is only ever
  // locked from this thread, so any contention recorded there is a
  // misattribution.
  constexpr int kBlockers = 4;
  std::atomic<int> arrived{0};
  hot.lock();
  std::vector<std::thread> threads;
  threads.reserve(kBlockers);
  for (int i = 0; i < kBlockers; ++i) {
    threads.emplace_back([&] {
      arrived.fetch_add(1);
      std::scoped_lock lk(hot);
    });
  }
  while (arrived.load() != kBlockers) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (int i = 0; i < 20; ++i) {
    std::scoped_lock lk(cold);
  }
  hot.unlock();
  for (std::thread& t : threads) t.join();

  SiteSnapshot h, c;
  ASSERT_TRUE(find_site("test.hot", h));
  ASSERT_TRUE(find_site("test.cold", c));
  EXPECT_EQ(h.acquisitions, 1u + kBlockers);
  EXPECT_GE(h.contended, 1u);  // at least whoever blocked on main's hold
  EXPECT_EQ(h.wait.count, h.contended);  // quiesced: exact
  EXPECT_GT(h.wait.sum_ns, 0u);
  EXPECT_EQ(c.contended, 0u);
  EXPECT_EQ(c.uncontended, 20u);
  EXPECT_EQ(h.uncontended + h.contended, h.acquisitions);
}

TEST(ContentionWrapper, SpinFlagFollowsTheCostContract) {
  ASSERT_FALSE(obs::contention_profiling_enabled())
      << "another retainer is live; the off-contract cannot be tested";
  obs::ProfiledSpinFlag inert("test.spin-inert");
  for (int i = 0; i < 100; ++i) {
    std::scoped_lock lk(inert);
  }
  EXPECT_EQ(inert.site(), nullptr);

  ContentionEnableGuard on(true);
  obs::ProfiledSpinFlag flag("test.spin");
  {
    std::scoped_lock lk(flag);
    EXPECT_TRUE(flag.held());
  }
  EXPECT_FALSE(flag.held());
  // A second holder spins while this thread keeps the flag.
  std::atomic<bool> arrived{false};
  flag.lock();
  std::thread spinner([&] {
    arrived.store(true);
    std::scoped_lock lk(flag);
  });
  while (!arrived.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  flag.unlock();
  spinner.join();

  SiteSnapshot snap;
  ASSERT_TRUE(find_site("test.spin", snap));
  EXPECT_EQ(snap.acquisitions, 3u);
  EXPECT_EQ(snap.uncontended + snap.contended, snap.acquisitions);
  EXPECT_GE(snap.contended, 1u);  // the spinner
  EXPECT_EQ(snap.wait.count, snap.contended);
  EXPECT_GT(snap.wait.sum_ns, 0u);
  EXPECT_EQ(snap.hold.count, 0u);  // spin holds are never timed
}

TEST(ContentionWrapper, LongContendedHoldIsRecordedAtUnlock) {
  ContentionEnableGuard on(true);
  ProfiledMutex mu("test.long-hold");
  std::atomic<bool> locked{false};
  // Thread B's acquisition is contended (A holds the lock when B arrives);
  // B then holds well past kLongHoldNs, which must land in hold_ns.
  mu.lock();
  std::thread b([&] {
    std::scoped_lock lk(mu);  // blocks until A releases -> contended
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  mu.unlock();
  b.join();
  (void)locked;

  SiteSnapshot snap;
  ASSERT_TRUE(find_site("test.long-hold", snap));
  ASSERT_GE(snap.contended, 1u);
  EXPECT_GE(snap.hold.count, 1u);
  EXPECT_GE(snap.hold.max_ns, obs::kLongHoldNs);
}

TEST(ContentionWrapper, SharedMutexCountsSharedAndExclusive) {
  ContentionEnableGuard on(true);
  ProfiledSharedMutex mu("test.rw");
  for (int i = 0; i < 10; ++i) {
    std::shared_lock lk(mu);
  }
  for (int i = 0; i < 3; ++i) {
    std::scoped_lock lk(mu);
  }
  SiteSnapshot snap;
  ASSERT_TRUE(find_site("test.rw", snap));
  EXPECT_EQ(snap.acquisitions, 13u);
  EXPECT_EQ(snap.contended, 0u);
}

// --- the snapshot ordering invariant under fire ----------------------------

TEST(ContentionWrapper, SnapshotInvariantHoldsUnderConcurrentHammering) {
  ContentionEnableGuard on(true);
  ProfiledMutex mu("test.hammer");
  std::atomic<bool> stop{false};
  std::uint64_t guarded = 0;  // plain: proves mutual exclusion under tsan

  std::vector<std::thread> writers;
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::scoped_lock lk(mu);
        ++guarded;
      }
    });
  }
  // Reader thread: at every instant, wait.count <= contended and
  // acquisitions == uncontended + contended (acquisitions is derived at
  // snapshot time from a consistent read order).
  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      SiteSnapshot snap;
      if (find_site("test.hammer", snap)) {
        EXPECT_LE(snap.wait.count, snap.contended);
        EXPECT_EQ(snap.uncontended + snap.contended, snap.acquisitions);
      }
      std::this_thread::yield();
    }
  });
  reader.join();
  stop.store(true);
  std::uint64_t expected = 0;
  for (std::thread& t : writers) t.join();
  {
    std::scoped_lock lk(mu);
    expected = guarded;
  }
  SiteSnapshot snap;
  ASSERT_TRUE(find_site("test.hammer", snap));
  EXPECT_EQ(snap.acquisitions, expected + 1);  // writers + the final read
  EXPECT_EQ(snap.wait.count, snap.contended);  // quiesced: exact
}

// --- worker-state board ----------------------------------------------------

TEST(ContentionWorkers, ScopedStateNestsAndRestores) {
  ContentionEnableGuard on(true);
  WorkerStateBoard board;
  WorkerSlot* slot = board.register_worker();
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->current(), WorkerState::Idle);
  {
    obs::ScopedWorkerState running(slot, WorkerState::Running);
    EXPECT_EQ(slot->current(), WorkerState::Running);
    {
      obs::ScopedWorkerState blocked(slot, WorkerState::BlockedJoin);
      EXPECT_EQ(slot->current(), WorkerState::BlockedJoin);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(slot->current(), WorkerState::Running);
  }
  EXPECT_EQ(slot->current(), WorkerState::Idle);

  const WorkerStateBoard::Totals t = board.totals();
  EXPECT_EQ(t.workers, 1u);
  EXPECT_GE(t.transitions, 4u);
  EXPECT_GT(
      t.state_ns[static_cast<std::size_t>(WorkerState::BlockedJoin)], 0u);
  // Null slot: the bracket is a no-op, not a crash (non-worker threads).
  obs::ScopedWorkerState noop(nullptr, WorkerState::Running);
}

TEST(ContentionWorkers, TotalsCountCurrentStatesAcrossSlots) {
  ContentionEnableGuard on(true);
  WorkerStateBoard board;
  WorkerSlot* a = board.register_worker();
  WorkerSlot* b = board.register_worker();
  a->set_state(WorkerState::Running);
  b->set_state(WorkerState::BlockedLock);
  const WorkerStateBoard::Totals t = board.totals();
  EXPECT_EQ(t.workers, 2u);
  EXPECT_EQ(t.current[static_cast<std::size_t>(WorkerState::Running)], 1u);
  EXPECT_EQ(t.current[static_cast<std::size_t>(WorkerState::BlockedLock)],
            1u);
  std::uint64_t census = 0;
  for (std::uint64_t c : t.current) census += c;
  EXPECT_EQ(census, 2u);
}

// --- runtime + telemetry integration ---------------------------------------

runtime::Config observed() {
  runtime::Config cfg;
  cfg.policy = core::PolicyChoice::TJ_SP;
  cfg.obs.enabled = true;
  cfg.workers = 2;
  return cfg;
}

TEST(ContentionRuntime, SnapshotCarriesLockSitesAndWorkerBoard) {
  runtime::Runtime rt(observed());
  rt.root([] {
    std::vector<runtime::Future<int>> fs;
    for (int i = 0; i < 16; ++i) {
      fs.push_back(runtime::async([i] { return i; }));
    }
    int acc = 0;
    for (auto& f : fs) acc += f.get();
    return acc;
  });
  const runtime::RuntimeSnapshot s = runtime::snapshot(rt);
  EXPECT_TRUE(s.contention_enabled);
  ASSERT_FALSE(s.lock_sites.empty());
  bool saw_queue = false;
  for (const SiteSnapshot& site : s.lock_sites) {
    EXPECT_EQ(site.uncontended + site.contended, site.acquisitions)
        << site.name;
    saw_queue = saw_queue || site.name == "sched.queue";
  }
  EXPECT_TRUE(saw_queue) << "scheduler queue must be a profiled site";
  EXPECT_EQ(s.workers.workers, 2u);
  EXPECT_GT(s.workers.transitions, 0u);
  // The rendered form carries both new tables.
  const std::string text = s.to_string();
  EXPECT_NE(text.find("locks:"), std::string::npos);
  EXPECT_NE(text.find("workers:"), std::string::npos);
}

// Acquisitions recorded so far on `site` (0 if it was never interned).
std::uint64_t acquisitions(const std::string& site) {
  SiteSnapshot s;
  return find_site(site, s) ? s.acquisitions : 0;
}

TEST(ContentionRuntime, FuturesOnlyRunNeverTakesTheOwpLock) {
  // The ownership verifier is configured (the default) but no promise is
  // ever made: 100k task exits must not touch its lock.
  const std::uint64_t before = acquisitions("owp.history");
  {
    runtime::Runtime rt(observed());
    ASSERT_EQ(rt.config().promise_policy, core::PromisePolicy::OWP);
    const std::uint64_t sum = rt.root([] {
      std::uint64_t acc = 0;
      std::vector<runtime::Future<std::uint64_t>> fs;
      fs.reserve(1000);
      for (std::uint64_t batch = 0; batch < 100; ++batch) {
        fs.clear();
        for (std::uint64_t i = 0; i < 1000; ++i) {
          fs.push_back(runtime::async([i] { return i; }));
        }
        for (auto& f : fs) acc += f.get();
      }
      return acc;
    });
    EXPECT_EQ(sum, 100u * (999u * 1000u / 2));
    // ...and keep no OWP state at all.
    const core::OwpVerifier* owp = rt.gate().ownership_verifier();
    ASSERT_NE(owp, nullptr);
    EXPECT_FALSE(owp->active());
    EXPECT_EQ(owp->state_nodes(), 0u);
    EXPECT_EQ(rt.owp_peak_bytes(), 0u);
  }
  EXPECT_EQ(acquisitions("owp.history"), before);

  // The same site does count once a promise exists, so the zero above is
  // not an artefact of a misnamed site.
  runtime::Runtime rt(observed());
  rt.root([] {
    auto p = runtime::make_promise<int>();
    p.fulfill(1);
    return p.get();
  });
  EXPECT_GT(acquisitions("owp.history"), before);
}

TEST(ContentionRuntime, SpawnsTakeTheProfiledCancelScopeStripes) {
  // Every spawn registers its task with the scope's stripe for the spawning
  // thread; those stripe locks are one profiled site.
  const std::uint64_t before = acquisitions("runtime.cancel_scope");
  runtime::Runtime rt(observed());
  rt.root([] {
    std::vector<runtime::Future<int>> fs;
    for (int i = 0; i < 64; ++i) {
      fs.push_back(runtime::async([i] {
        // Nested spawns run wherever the outer task runs, so the stripes
        // of several threads take part.
        return runtime::async([i] { return i; }).get();
      }));
    }
    int acc = 0;
    for (auto& f : fs) acc += f.get();
    return acc;
  });
  SiteSnapshot site;
  ASSERT_TRUE(find_site("runtime.cancel_scope", site));
  EXPECT_EQ(site.acquisitions, site.contended + site.uncontended);
  EXPECT_GE(site.acquisitions - before, 128u);
}

TEST(ContentionRuntime, ApprovedJoinEdgesSkipTheGraphLock) {
  // A futures-only TJ-SP run: every join is approved, so its wait edge goes
  // through the WFG's fast path (the wfg.shard flags), never wfg.graph.
  const std::uint64_t graph_before = acquisitions("wfg.graph");
  const std::uint64_t shard_before = acquisitions("wfg.shard");
  runtime::Runtime rt(observed());
  const std::uint64_t sum = rt.root([] {
    std::uint64_t acc = 0;
    std::vector<runtime::Future<std::uint64_t>> fs;
    for (std::uint64_t i = 0; i < 8; ++i) {
      // Still running (or still queued) when the root joins it, so every
      // join registers a wait edge, whether it blocks or inlines the task.
      fs.push_back(runtime::async([i] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return i;
      }));
    }
    for (auto& f : fs) acc += f.get();
    return acc;
  });
  EXPECT_EQ(sum, 7u * 8u / 2);
  EXPECT_EQ(acquisitions("wfg.graph"), graph_before);
  EXPECT_GT(acquisitions("wfg.shard"), shard_before);
}

TEST(ContentionRuntime, ColdRuntimeLocksAreProfiledSites) {
  // Each formerly bare runtime lock is a named site once a run uses it.
  runtime::Config cfg = observed();
  cfg.policy = core::PolicyChoice::KJ_VC;
  cfg.record_trace = true;
  const std::uint64_t promises_before = acquisitions("runtime.promises");
  const std::uint64_t trace_before = acquisitions("runtime.trace");
  const std::uint64_t gc_before = acquisitions("kj-vc.gc");
  const std::uint64_t cancel_before = acquisitions("runtime.cancel_state");
  runtime::Runtime rt(cfg);
  const int got = rt.root([] {
    runtime::CancellationScope scope;  // registers with the root's scope
    auto p = runtime::make_promise<int>();
    auto child = runtime::async_owning(p, [p] {
      p.fulfill(20);
      return 1;
    });
    return p.get() + child.get() + runtime::async([] { return 1; }).get();
  });
  EXPECT_EQ(got, 22);
  EXPECT_GT(acquisitions("runtime.promises"), promises_before);
  EXPECT_GT(acquisitions("runtime.trace"), trace_before);
  EXPECT_GT(acquisitions("kj-vc.gc"), gc_before);
  EXPECT_GT(acquisitions("runtime.cancel_state"), cancel_before);
}

TEST(ContentionRuntime, ObsOffRuntimeDoesNotRetainProfiling) {
  runtime::Config cfg;
  cfg.policy = core::PolicyChoice::TJ_SP;
  cfg.obs.enabled = false;
  cfg.workers = 2;
  runtime::Runtime rt(cfg);
  EXPECT_FALSE(obs::contention_profiling_enabled());
  rt.root([] { return runtime::async([] { return 1; }).get(); });
  const runtime::RuntimeSnapshot s = runtime::snapshot(rt);
  EXPECT_FALSE(s.contention_enabled);
}

TEST(ContentionTelemetry, FinalSampleReconcilesWithTheRegistry) {
  const std::string path = ::testing::TempDir() + "contention_reconcile.jsonl";
  {
    runtime::Runtime rt(observed());
    obs::TelemetryConfig tcfg;
    tcfg.jsonl_path = path;
    tcfg.cadence_ms = 10;
    obs::TelemetrySink sink(rt, tcfg);
    sink.start();
    rt.root([] {
      std::vector<runtime::Future<int>> fs;
      for (int i = 0; i < 32; ++i) {
        fs.push_back(runtime::async([i] { return i; }));
      }
      int acc = 0;
      for (auto& f : fs) acc += f.get();
      return acc;
    });
    sink.stop();  // takes the final synchronous sample while quiesced
  }
  namespace slo = obs::slo;
  std::vector<slo::Json> samples = slo::parse_jsonl_file(path);
  ASSERT_FALSE(samples.empty());
  const slo::Json& last = samples.back();
  const slo::Json* sites = last.at_path("contention.sites");
  ASSERT_NE(sites, nullptr);
  ASSERT_TRUE(sites->is_array());
  ASSERT_FALSE(sites->array().empty());
  // Exact per-site balance in the exported stream, not just in memory:
  // acquisitions == contended + uncontended, wait.count <= contended.
  for (const slo::Json& site : sites->array()) {
    const auto num = [&site](const char* key) {
      const slo::Json* v = site.find(key);
      return v != nullptr && v->is_number() ? v->number() : -1.0;
    };
    const std::string name = site.find("site")->str();
    EXPECT_EQ(num("acquisitions"), num("contended") + num("uncontended"))
        << name;
    const slo::Json* wc = site.at_path("wait.count");
    ASSERT_NE(wc, nullptr) << name;
    EXPECT_LE(wc->number(), num("contended")) << name;
  }
  const slo::Json* workers = last.find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->find("count")->number(), 2.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tj
