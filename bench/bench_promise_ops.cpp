// Promise-primitive microbenchmarks: the per-operation cost the ownership
// policy (OWP) adds to make/fulfill/get, to re-reading a fulfilled promise,
// to the spawn-owning handoff idiom, and to ordinary joins while a live
// promise keeps the ownership verifier active. Compare each pair of rows
// (unverified vs owp) for the verification overhead. The AwaitAfterHistory
// rows (owp only) show that an await's cost does not grow with how many
// promises its owner made before.

#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <vector>

#include "runtime/api.hpp"

namespace {

using tj::core::PolicyChoice;
using tj::core::PromisePolicy;
using tj::runtime::Config;
using tj::runtime::Future;
using tj::runtime::Promise;
using tj::runtime::Runtime;

constexpr PromisePolicy kModes[] = {PromisePolicy::Unverified,
                                    PromisePolicy::OWP};

const char* mode_name(PromisePolicy m) {
  return m == PromisePolicy::OWP ? "owp" : "unverified";
}

// Full promise lifecycle in one task: make, fulfill, read. No joins, no
// blocking — isolates the gate/verifier bookkeeping per promise.
void bench_make_fulfill_get(benchmark::State& state, PromisePolicy m) {
  Runtime rt({.policy = PolicyChoice::None, .promise_policy = m, .workers = 2});
  rt.root([&state] {
    for (auto _ : state) {
      auto p = tj::runtime::make_promise<int>();
      p.fulfill(42);
      benchmark::DoNotOptimize(p.get());
    }
  });
  state.SetLabel(mode_name(m));
}

// get() on an already-fulfilled promise: the read fast path every additional
// reader pays (one enter_await check, no blocking).
void bench_fulfilled_get(benchmark::State& state, PromisePolicy m) {
  Runtime rt({.policy = PolicyChoice::None, .promise_policy = m, .workers = 2});
  rt.root([&state] {
    auto p = tj::runtime::make_promise<int>();
    p.fulfill(7);
    for (auto _ : state) {
      benchmark::DoNotOptimize(p.get());
    }
  });
  state.SetLabel(mode_name(m));
}

// The canonical dataflow handoff: make a promise, spawn the task obligated
// to fulfill it (ownership transfer included), block until the value lands.
void bench_owned_handoff(benchmark::State& state, PromisePolicy m) {
  Runtime rt({.policy = PolicyChoice::None, .promise_policy = m, .workers = 2});
  rt.root([&state] {
    for (auto _ : state) {
      auto p = tj::runtime::make_promise<int>();
      tj::runtime::async_owning(p, [p] { p.fulfill(1); });
      benchmark::DoNotOptimize(p.get());
    }
  });
  state.SetLabel(mode_name(m));
}

// Completed-join cost while one unfulfilled promise is live: with OWP the
// gate can no longer skip join registration (a mixed future/promise cycle
// must stay visible), so this is the tax promises put on ordinary joins.
void bench_join_with_live_promise(benchmark::State& state, PromisePolicy m) {
  Runtime rt({.policy = PolicyChoice::None, .promise_policy = m, .workers = 2});
  rt.root([&state] {
    auto p = tj::runtime::make_promise<int>();  // live: verifier active
    auto f = tj::runtime::async([] { return 1; });
    f.join();  // ensure completion: joins below never block
    for (auto _ : state) {
      benchmark::DoNotOptimize(f.get());
    }
    p.fulfill(0);
  });
  state.SetLabel(mode_name(m));
}

// One handoff from the current task: a fresh consumer blocks in an await on
// a promise the current task owns, which it then fulfills. The spin makes
// sure the consumer's OWP check runs while the promise is unfulfilled.
Future<int> blocked_handoff(const Runtime& rt) {
  auto p = tj::runtime::make_promise<int>();
  auto consumer = tj::runtime::async([p] { return p.get(); });
  while (!rt.gate().graph().is_waiting(consumer.task().uid())) {
    std::this_thread::yield();
  }
  p.fulfill(1);
  return consumer;
}

// Await cost once the owner has made K promises, each awaited by a consumer
// the owner then joined — the history shape of perfbench's promise-handoff.
// Every timed await asks whether the owner's history reaches the fresh
// consumer; a timed row per K shows whether that answer costs more as K grows.
void bench_await_after_history(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  Config cfg;
  cfg.policy = PolicyChoice::None;
  cfg.promise_policy = PromisePolicy::OWP;
  cfg.workers = 2;
  Runtime rt(cfg);
  rt.root([&] {
    auto owner = tj::runtime::async([&] {
      for (int i = 0; i < k; ++i) blocked_handoff(rt).join();
      std::vector<Future<int>> consumers;
      consumers.reserve(state.max_iterations);
      for (auto _ : state) consumers.push_back(blocked_handoff(rt));
      for (auto& c : consumers) c.join();
    });
    owner.join();
  });
  state.SetLabel("owp");
}

void register_all() {
  for (PromisePolicy m : kModes) {
    const std::string name(mode_name(m));
    benchmark::RegisterBenchmark(
        ("PromiseOps/MakeFulfillGet/" + name).c_str(),
        [m](benchmark::State& st) { bench_make_fulfill_get(st, m); });
    benchmark::RegisterBenchmark(
        ("PromiseOps/FulfilledGet/" + name).c_str(),
        [m](benchmark::State& st) { bench_fulfilled_get(st, m); });
    benchmark::RegisterBenchmark(
        ("PromiseOps/OwnedHandoff/" + name).c_str(),
        [m](benchmark::State& st) { bench_owned_handoff(st, m); })
        ->Iterations(20000);
    benchmark::RegisterBenchmark(
        ("PromiseOps/JoinWithLivePromise/" + name).c_str(),
        [m](benchmark::State& st) { bench_join_with_live_promise(st, m); });
  }
  benchmark::RegisterBenchmark("PromiseOps/AwaitAfterHistory/owp",
                               bench_await_after_history)
      ->Arg(25)
      ->Arg(250)
      ->Arg(2500)
      ->Iterations(2000)
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
