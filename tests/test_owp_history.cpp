// The ownership verifier's obligation history H under task exits: exact
// pruning (a differential check against a verifier that never sees an exit,
// hence never prunes), bounded history under handoff-shaped load, and a
// promise transfer racing its receiver's exit in the live runtime (run
// under ThreadSanitizer by the CI tsan stage: `ctest -R OwpExitRace`).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "core/owp.hpp"
#include "runtime/api.hpp"

namespace tj {
namespace {

using core::AwaitVerdict;
using core::ExitFlag;
using core::FulfillResult;
using core::OwpVerifier;
using core::PromiseNode;
using core::TransferResult;

// ---------------------------------------------------------------------------
// Differential pruning.

// Drives two verifiers through one random promise/future history, calling
// them the way the runtime's gate does. `pruned` also receives task exits
// (so it orphans and prunes); `reference` never does, so it keeps the whole
// history. Every query whose waiter is live must get the same verdict and
// the same witness chain from both.
class PruningHarness {
 public:
  PruningHarness(std::uint32_t tasks, std::uint32_t promises,
                 std::uint64_t seed)
      : exit_flags_(tasks), exited_(tasks, false), promises_(promises),
        rng_(seed) {
    // The gate consults the OWP only once a promise exists.
    make();
  }

  ~PruningHarness() {
    for (Promise& p : promises_) {
      pruned_.release(p.pruned);
      reference_.release(p.ref);
    }
  }

  void step() {
    switch (below(6)) {
      case 0: make(); break;
      case 1: fulfill(); break;
      case 2: transfer(); break;
      case 3: await(); break;
      case 4: join(); break;
      case 5:
        if (live_count() > 2) exit_task(pick_live());
        break;
    }
    check_all_joins();
  }

  // Exits every live task and releases every promise: with nothing live,
  // all of H is inert, so the pruning verifier must hold nothing at all.
  void finish() {
    for (std::uint32_t t = 0; t < exited_.size(); ++t) {
      if (!exited_[t]) exit_task(t);
    }
    for (Promise& p : promises_) {
      pruned_.release(p.pruned);
      reference_.release(p.ref);
      p.pruned = p.ref = nullptr;
    }
    EXPECT_EQ(pruned_.state_nodes(), 0u);
    EXPECT_EQ(pruned_.state_bytes(), 0u);
  }

  std::size_t pruned_nodes() const { return pruned_.state_nodes(); }
  std::size_t reference_nodes() const { return reference_.state_nodes(); }

 private:
  enum class State { Unmade, Open, Fulfilled, Orphaned };
  struct Promise {
    PromiseNode* pruned = nullptr;
    PromiseNode* ref = nullptr;
    std::uint32_t owner = 0;
    State state = State::Unmade;
  };

  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(rng_() % n);
  }
  std::uint32_t live_count() const {
    return static_cast<std::uint32_t>(
        std::count(exited_.begin(), exited_.end(), false));
  }
  std::uint32_t pick_live() {
    for (;;) {
      const std::uint32_t t = below(static_cast<std::uint32_t>(exited_.size()));
      if (!exited_[t]) return t;
    }
  }
  Promise* pick(State want) {
    std::vector<Promise*> c;
    for (Promise& p : promises_) {
      if (p.state == want) c.push_back(&p);
    }
    return c.empty() ? nullptr : c[below(static_cast<std::uint32_t>(c.size()))];
  }
  std::uint64_t uid(const Promise& p) const {
    return static_cast<std::uint64_t>(&p - promises_.data());
  }

  void make() {
    Promise* p = pick(State::Unmade);
    if (p == nullptr) return;
    p->owner = pick_live();
    p->pruned = pruned_.on_make(p->owner, uid(*p));
    p->ref = reference_.on_make(p->owner, uid(*p));
    p->state = State::Open;
  }

  void fulfill() {
    Promise* p = pick(State::Open);
    if (p == nullptr) return;
    const std::uint32_t by = below(5) == 0 ? pick_live() : p->owner;
    const FulfillResult r = pruned_.check_fulfill(p->pruned, by);
    ASSERT_EQ(r, reference_.check_fulfill(p->ref, by));
    ASSERT_EQ(r, by == p->owner ? FulfillResult::Ok : FulfillResult::NotOwner);
    pruned_.commit_fulfill(p->pruned);
    reference_.commit_fulfill(p->ref);
    p->state = State::Fulfilled;
  }

  void transfer() {
    Promise* p = pick(State::Open);
    if (p == nullptr) return;
    const std::uint32_t from = below(5) == 0 ? pick_live() : p->owner;
    const std::uint32_t to = below(static_cast<std::uint32_t>(exited_.size()));
    if (to == from) return;
    const TransferResult r =
        pruned_.check_transfer(p->pruned, from, exit_flags_[to]);
    if (from != p->owner) {
      ASSERT_EQ(r, TransferResult::NotOwner);
      return;
    }
    if (exited_[to]) {
      ASSERT_EQ(r, TransferResult::TargetDead);
      return;
    }
    ASSERT_EQ(r, TransferResult::Ok);
    ASSERT_EQ(reference_.check_transfer(p->ref, from, live_),
              TransferResult::Ok);
    ASSERT_FALSE(pruned_.commit_transfer(p->pruned, to, exit_flags_[to]));
    ASSERT_FALSE(reference_.commit_transfer(p->ref, to, live_));
    p->owner = to;
  }

  void await() {
    std::vector<Promise*> made;
    for (Promise& p : promises_) {
      if (p.state != State::Unmade) made.push_back(&p);
    }
    if (made.empty()) return;
    Promise* p = made[below(static_cast<std::uint32_t>(made.size()))];
    const std::uint32_t w = pick_live();
    const AwaitVerdict v = pruned_.permits_await(w, p->pruned);
    if (p->state == State::Orphaned) {
      // The reference never saw the owner exit; only the pruning verifier
      // can tell, and the gate faults without learning an edge.
      ASSERT_EQ(v, AwaitVerdict::RejectOrphaned);
      ASSERT_EQ(pruned_.explain_await(w, p->pruned).kind,
                core::WitnessKind::OwpOrphan);
      return;
    }
    ASSERT_EQ(v, reference_.permits_await(w, p->ref)) << "await " << w;
    if (v == AwaitVerdict::RejectCycle) {
      ASSERT_EQ(pruned_.explain_await(w, p->pruned).chain,
                reference_.explain_await(w, p->ref).chain);
    }
    pruned_.on_await(w, p->pruned);
    reference_.on_await(w, p->ref);
  }

  void join() {
    const std::uint32_t w = pick_live();
    const std::uint32_t t = below(static_cast<std::uint32_t>(exited_.size()));
    if (t == w) return;
    // A runtime join completes only after its target's exit hook; a trace
    // join may also name a live target (then neither verifier knows more).
    if (!exited_[t] && below(2) == 0 && live_count() > 2) exit_task(t);
    pruned_.on_join(w, t, /*target_exited=*/exited_[t]);
    reference_.on_join(w, t, /*target_exited=*/false);
  }

  void exit_task(std::uint32_t t) {
    std::vector<std::uint64_t> expected;
    for (Promise& p : promises_) {
      if (p.state == State::Open && p.owner == t) {
        expected.push_back(uid(p));
        p.state = State::Orphaned;
      }
    }
    std::vector<std::uint64_t> orphans =
        pruned_.on_task_exit(t, exit_flags_[t]);
    std::sort(orphans.begin(), orphans.end());
    ASSERT_EQ(orphans, expected);
    exited_[t] = true;
  }

  // Every (live waiter, any target) join query: verdicts and chains agree.
  void check_all_joins() {
    for (std::uint32_t w = 0; w < exited_.size(); ++w) {
      if (exited_[w]) continue;
      for (std::uint32_t t = 0; t < exited_.size(); ++t) {
        const bool ok = pruned_.permits_join(w, t);
        ASSERT_EQ(ok, reference_.permits_join(w, t))
            << "join " << w << " on " << t;
        if (!ok) {
          ASSERT_EQ(pruned_.explain_join(w, t).chain,
                    reference_.explain_join(w, t).chain)
              << "join " << w << " on " << t;
        }
      }
    }
  }

  OwpVerifier pruned_;
  OwpVerifier reference_;
  std::vector<ExitFlag> exit_flags_;
  const ExitFlag live_{false};
  std::vector<bool> exited_;
  std::vector<Promise> promises_;
  std::mt19937_64 rng_;
};

void run_pruning(std::uint32_t tasks, std::uint32_t promises,
                 std::uint32_t steps, std::uint64_t seeds) {
  std::size_t pruned_total = 0, reference_total = 0;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    PruningHarness h(tasks, promises, seed);
    for (std::uint32_t i = 0; i < steps; ++i) {
      h.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    pruned_total += h.pruned_nodes();
    reference_total += h.reference_nodes();
    h.finish();
  }
  // The exits did prune: otherwise the agreement above proves nothing.
  EXPECT_LT(pruned_total, reference_total);
}

TEST(OwpPruning, SmallHistoriesAgreeWithTheUnprunedReference) {
  run_pruning(/*tasks=*/6, /*promises=*/4, /*steps=*/40, /*seeds=*/400);
}

TEST(OwpPruning, LargerHistoriesAgreeWithTheUnprunedReference) {
  run_pruning(/*tasks=*/14, /*promises=*/10, /*steps=*/160, /*seeds=*/100);
}

TEST(OwpPruning, ReplayJoinsNeverTakeTheExitedTargetShortcut) {
  // A trace join may name a target that is live and has no history yet; the
  // edge must still be learned (trace replays pass target_exited = false).
  OwpVerifier v;
  v.on_join(0, 1, /*target_exited=*/false);
  EXPECT_FALSE(v.permits_join(1, 0));
  EXPECT_GT(v.state_bytes(), 0u);
  // A completed runtime join on a history-less target records nothing.
  OwpVerifier w;
  w.on_join(0, 1, /*target_exited=*/true);
  EXPECT_EQ(w.state_bytes(), 0u);
  EXPECT_EQ(w.state_nodes(), 0u);
}

// ---------------------------------------------------------------------------
// Bounded history.

constexpr std::uint32_t kOwnerPromises = 250;  // K

// One handoff-shaped request against the verifier, as the runtime drives it
// for perfbench's promise-handoff: a fresh owner makes K promises; for each,
// a fresh consumer awaits it before it is fulfilled and then joins a
// producer, and the owner joins the consumer (the OWP rejects that join —
// the consumer's await edge leads back to the owner — and the fallback
// clears it). Returns the peak history size seen during the request.
struct Peak {
  std::size_t nodes = 0;
  std::size_t bytes = 0;
};
Peak handoff_request(OwpVerifier& v, std::uint64_t& next_uid,
                     std::uint64_t root) {
  Peak peak;
  const auto note = [&] {
    peak.nodes = std::max(peak.nodes, v.state_nodes());
    peak.bytes = std::max(peak.bytes, v.state_bytes());
  };
  const std::uint64_t owner = next_uid++;
  ExitFlag owner_exit{false};
  for (std::uint32_t k = 0; k < kOwnerPromises; ++k) {
    ExitFlag consumer_exit{false}, producer_exit{false};
    const std::uint64_t consumer = next_uid++;
    const std::uint64_t producer = next_uid++;
    PromiseNode* p = v.on_make(owner, next_uid++);
    EXPECT_EQ(v.permits_await(consumer, p), AwaitVerdict::Allow);
    v.on_await(consumer, p);
    note();
    EXPECT_TRUE(v.on_task_exit(producer, producer_exit).empty());
    EXPECT_EQ(v.check_fulfill(p, owner), FulfillResult::Ok);
    v.commit_fulfill(p);
    EXPECT_TRUE(v.permits_join(consumer, producer));
    v.on_join(consumer, producer, /*target_exited=*/true);
    EXPECT_TRUE(v.on_task_exit(consumer, consumer_exit).empty());
    EXPECT_FALSE(v.permits_join(owner, consumer));
    v.on_join(owner, consumer, /*target_exited=*/true);
    v.on_join(owner, producer, /*target_exited=*/true);
    v.release(p);
    note();
  }
  EXPECT_TRUE(v.on_task_exit(owner, owner_exit).empty());
  EXPECT_TRUE(v.permits_join(root, owner));
  v.on_join(root, owner, /*target_exited=*/true);
  return peak;
}

TEST(OwpHistory, HandoffRequestsKeepHistoryWithinCTimesK) {
  OwpVerifier v;
  std::uint64_t next_uid = 1;
  const std::uint64_t root = 0;
  const Peak first = handoff_request(v, next_uid, root);
  // About one node and one edge per promise: each consumer that awaited
  // stays while the owner lives (it reaches the owner).
  EXPECT_LE(first.nodes, kOwnerPromises + 2);
  EXPECT_LE(first.bytes, 160u * kOwnerPromises);
  for (int r = 1; r < 1000; ++r) {
    const Peak p = handoff_request(v, next_uid, root);
    ASSERT_LE(p.nodes, first.nodes) << "request " << r;
    ASSERT_LE(p.bytes, first.bytes) << "request " << r;
    // The owner's exit leaves no history behind: nothing carries over.
    ASSERT_EQ(v.state_nodes(), 0u) << "request " << r;
    ASSERT_EQ(v.state_bytes(), 0u) << "request " << r;
  }
}

runtime::Config owp_runtime(std::uint32_t workers) {
  runtime::Config cfg;
  cfg.policy = core::PolicyChoice::TJ_SP;
  cfg.promise_policy = core::PromisePolicy::OWP;
  cfg.workers = workers;
  return cfg;
}

TEST(OwpHistory, LiveHandoffRequestsLeaveNoHistory) {
  // The same request shape through the runtime: each request task owns K
  // promises, each handed to a consumer that awaits it and joins a younger
  // sibling. Peak OWP state stays within c·K; nothing outlives a request.
  runtime::Runtime rt(owp_runtime(1));
  constexpr int kRequests = 12;
  const std::uint64_t total = rt.root([] {
    std::uint64_t sum = 0;
    for (int r = 0; r < kRequests; ++r) {
      auto req = runtime::async([] {
        std::uint64_t s = 0;
        for (std::uint32_t k = 0; k < kOwnerPromises; ++k) {
          auto p = runtime::make_promise<runtime::Future<std::uint64_t>>();
          auto consumer = runtime::async([p] { return p.get().get(); });
          auto producer = runtime::async([k] { return std::uint64_t{k}; });
          p.fulfill(producer);
          s += consumer.get() + producer.get();
        }
        return s;
      });
      sum += req.get();
    }
    return sum;
  });
  EXPECT_EQ(total, std::uint64_t{kRequests} * 2 *
                       (kOwnerPromises * (kOwnerPromises - 1) / 2));
  EXPECT_LE(rt.owp_peak_bytes(), 160u * kOwnerPromises);
  EXPECT_EQ(rt.owp_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// A transfer racing its receiver's exit.

TEST(OwpExitRace, TransferToExitingReceiverEndsExactlyOneWay) {
  // Each round hands a promise to a receiver task that is finishing at the
  // same moment. The transfer must end in exactly one way: refused because
  // the receiver already exited (the sender keeps and fulfills the
  // promise), or committed — and then fulfilled by the receiver if it saw
  // the handoff, else orphaned by its exit. An awaiter blocked on the
  // promise throughout must be woken with the matching outcome.
  constexpr int kRounds = 400;
  std::atomic<int> refused{0}, fulfilled{0}, orphaned{0};
  auto run = std::async(std::launch::async, [&] {
    runtime::Runtime rt(owp_runtime(3));
    rt.root([&] {
      for (int r = 0; r < kRounds; ++r) {
        auto p = runtime::make_promise<int>();
        std::atomic<bool> handed{false};
        auto awaiter = runtime::async([p] {
          try {
            return p.get();
          } catch (const runtime::DeadlockAvoidedError&) {
            return -1;
          }
        });
        const int spin = r % 8;
        auto receiver = runtime::async([p, &handed, spin] {
          for (int i = 0; i < spin && !handed.load(); ++i) {
            std::this_thread::yield();
          }
          if (!handed.load()) return false;
          p.fulfill(1);  // the handoff committed while we were running
          return true;
        });
        if (r % 2 == 0) std::this_thread::yield();
        bool committed = true;
        try {
          p.transfer_to(receiver.task());
        } catch (const runtime::UsageError&) {
          committed = false;  // the receiver had already exited
        }
        handed.store(committed);
        if (!committed) p.fulfill(1);  // still ours
        const bool receiver_fulfilled = receiver.get();
        const int got = awaiter.get();
        EXPECT_FALSE(!committed && receiver_fulfilled) << "round " << r;
        if (!committed) {
          EXPECT_EQ(got, 1) << "round " << r;
          ++refused;
        } else if (receiver_fulfilled) {
          EXPECT_EQ(got, 1) << "round " << r;
          ++fulfilled;
        } else {
          EXPECT_EQ(got, -1) << "round " << r;
          EXPECT_FALSE(p.ready()) << "round " << r;
          ++orphaned;
        }
      }
    });
    const core::GateStats s = rt.gate_stats();
    EXPECT_EQ(s.promises_orphaned, static_cast<std::uint64_t>(orphaned));
  });
  if (run.wait_for(std::chrono::minutes(5)) != std::future_status::ready) {
    // Destroying the pending future would block on the hung run: fail loudly.
    std::fprintf(stderr, "OwpExitRace: an awaiter or join hung\n");
    std::abort();
  }
  run.get();
  EXPECT_EQ(refused + fulfilled + orphaned, kRounds);
  std::printf("transfer outcomes: refused=%d fulfilled=%d orphaned=%d\n",
              refused.load(), fulfilled.load(), orphaned.load());
}

}  // namespace
}  // namespace tj
