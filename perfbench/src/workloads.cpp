#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <exception>
#include <utility>

#include "apps/app_registry.hpp"
#include "runtime/api.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using tj::runtime::Future;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Warm-up requests use salts past every timed request index.
constexpr std::uint32_t kWarmupSalt = 1u << 30;

tj::runtime::Config runtime_config(const PassConfig& pc) {
  // The default Config: cooperative scheduler, TJ-SP with OWP, watchdog,
  // governor and recorder off.
  tj::runtime::Config cfg;
  cfg.workers = pc.workers;
  if (!pc.verified) {
    cfg.policy = tj::core::PolicyChoice::None;
    cfg.promise_policy = tj::core::PromisePolicy::Unverified;
  }
  cfg.record_trace = pc.record_trace;
  return cfg;
}

double seconds_since(std::uint64_t t0) { return (now_ns() - t0) * 1e-9; }

// Forks `body` as a child of the current task inside a "runtime.spawn" span;
// the child's body runs in a "task" span caused by that spawn.
template <typename F>
auto spawn_traced(F body) {
  ScopedSpan span("runtime.spawn");
  return tj::runtime::async(
      [body = std::move(body), ctx = current_context()]() mutable {
        ContextScope scope(ctx);
        ScopedSpan task("task");
        return body();
      });
}

template <typename T>
T join_traced(const Future<T>& f) {
  ScopedSpan span("runtime.join");
  return f.get();
}

// The gate's exact rejection identity (core/guarded.hpp): every rejection is
// either cleared as a false positive or averted a real deadlock.
void check_identity(const tj::core::GateStats& g, PassResult& r) {
  const std::uint64_t rejected = g.policy_rejections + g.owp_rejections;
  const std::uint64_t resolved =
      g.false_positives + g.owp_false_positives +
      (g.deadlocks_averted - g.deadlocks_averted_approved);
  if (rejected != resolved) {
    r.errors.push_back("gate rejection identity broken: " +
                       std::to_string(rejected) + " rejections vs " +
                       std::to_string(resolved) + " resolved");
  }
}

// Sums per-state time over runtimes of the same pool size, so
// Totals::effective_parallelism() still applies to the sum.
void add_totals(tj::obs::WorkerStateBoard::Totals& acc,
                const tj::obs::WorkerStateBoard::Totals& t) {
  acc.workers = std::max(acc.workers, t.workers);
  for (std::size_t i = 0; i < tj::obs::kWorkerStateCount; ++i) {
    acc.state_ns[i] += t.state_ns[i];
  }
}

// Folds one quiescent runtime's counters into the pass result.
void read_runtime(const tj::runtime::Runtime& rt, PassResult& r) {
  const tj::core::GateStats g = rt.gate_stats();
  check_identity(g, r);
  r.gate += g;
  r.tasks_executed += rt.scheduler().tasks_executed();
  r.tasks_inlined += rt.scheduler().tasks_inlined();
  add_totals(r.workers, rt.scheduler().worker_states().totals());
  if (rt.config().record_trace) r.traces.push_back(rt.recorded_trace());
}

void note_error(PassResult& r, std::string what) {
  if (r.errors.size() < 8) r.errors.push_back(std::move(what));
}

struct RequestOutcome {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  bool ok = true;
};

// One runtime per set-up; the root task is the closed-loop driver.
template <typename Input, typename Request>
PassResult drive(const PassConfig& pc, Request request) {
  PassResult r;
  r.threads = pc.workers + 1;
  for (std::uint32_t s = 0; s < pc.setups; ++s) {
    const bool timed = s + 1 == pc.setups;
    const std::uint64_t t0 = now_ns();
    tj::runtime::Runtime rt(runtime_config(pc));
    const Input input(pc.seed);
    rt.root([&] {
      for (std::uint32_t w = 0; w < pc.warmup; ++w) {
        const RequestOutcome o = request(input, kWarmupSalt + w);
        if (!o.ok || o.failed != 0) note_error(r, "warm-up request failed");
      }
      r.setup_s.push_back(seconds_since(t0));
      if (!timed) return;
      r.request_ms.reserve(pc.requests);
      r.request_done.reserve(pc.requests);
      const std::uint64_t start = now_ns();
      for (std::uint32_t i = 0; i < pc.requests; ++i) {
        const std::uint64_t q0 = now_ns();
        RequestOutcome o;
        {
          RequestScope scope(i);
          o = request(input, i);
        }
        r.request_ms.push_back((now_ns() - q0) * 1e-6);
        r.request_done.push_back(static_cast<std::uint32_t>(o.ops - o.failed));
        r.attempted += o.ops;
        r.failed += o.failed;
        if (!o.ok) note_error(r, "request " + std::to_string(i) + " wrong");
      }
      r.wall_s = seconds_since(start);
    });
    if (timed) read_runtime(rt, r);
  }
  r.policy_s = r.wall_s;
  return r;
}

// ---- fork-join-tree --------------------------------------------------------

constexpr std::uint32_t kTreeDepth = 10;
constexpr std::uint32_t kTreeTasks = (1u << kTreeDepth) - 1;  // 1023
constexpr std::uint32_t kFirstLeaf = kTreeTasks / 2;

struct TreeInput {
  explicit TreeInput(std::uint64_t seed) : value(kTreeTasks) {
    std::uint64_t state = seed;
    for (std::uint32_t& v : value) {
      v = static_cast<std::uint32_t>(splitmix64(state) >> 44);
      sum += v;
    }
  }
  std::vector<std::uint32_t> value;  // one per task, heap order
  std::uint64_t sum = 0;
};

// Task `node` of the heap-ordered tree returns the sum of its subtree.
std::uint64_t tree_node(const TreeInput& in, std::uint32_t node,
                        std::uint32_t salt) {
  const std::uint64_t own = in.value[node] + std::uint64_t{salt};
  if (node >= kFirstLeaf) return own;
  auto left = spawn_traced(
      [&in, node, salt] { return tree_node(in, 2 * node + 1, salt); });
  auto right = spawn_traced(
      [&in, node, salt] { return tree_node(in, 2 * node + 2, salt); });
  const std::uint64_t l = join_traced(left);
  return own + l + join_traced(right);
}

RequestOutcome tree_request(const TreeInput& in, std::uint32_t salt) {
  RequestOutcome o{kTreeTasks, 0, true};
  try {
    auto root =
        spawn_traced([&in, salt] { return tree_node(in, 0, salt); });
    o.ok = join_traced(root) ==
           in.sum + std::uint64_t{kTreeTasks} * std::uint64_t{salt};
  } catch (...) {
    o.failed = kTreeTasks;
  }
  return o;
}

PassResult run_fork_join_tree(const PassConfig& pc) {
  return drive<TreeInput>(pc, tree_request);
}

// ---- promise-handoff -------------------------------------------------------

// K: promises one request task makes (and owns until it fulfills them).
// OWP's await and join checks walk the owner's obligation history, so their
// cost grows with K; K is the workload's input property, not a tuning knob.
constexpr std::uint32_t kHandoffs = 250;

struct HandoffInput {
  explicit HandoffInput(std::uint64_t seed) : value(kHandoffs) {
    std::uint64_t state = seed ^ 0x5eedf00dULL;
    for (std::uint64_t& v : value) {
      v = splitmix64(state) >> 40;
      sum += v;
    }
  }
  std::vector<std::uint64_t> value;  // producer k's result
  std::uint64_t sum = 0;
};

struct HandoffTally {
  std::uint64_t sum = 0;
  std::uint64_t failed = 0;
};

// The request task: per promise, fork consumer A (awaits the promise, then
// joins the future inside it — a younger sibling, so TJ-SP rejects and the
// WFG clears it), fork producer B, fulfill the promise with B's future, and
// join both.
HandoffTally run_handoffs(const HandoffInput& in, std::uint32_t salt) {
  HandoffTally t;
  for (std::uint32_t k = 0; k < kHandoffs; ++k) {
    try {
      auto p = tj::runtime::make_promise<Future<std::uint64_t>>();
      auto consumer = spawn_traced([p, k] {
        Future<std::uint64_t> f;
        {
          ScopedSpan span("runtime.await", k);
          f = p.get();
        }
        return join_traced(f);
      });
      const std::uint64_t v = in.value[k] + salt;
      auto producer = spawn_traced([v] { return v; });
      {
        ScopedSpan span("runtime.fulfill", k);
        p.fulfill(producer);
      }
      t.sum += join_traced(consumer);
      t.sum += join_traced(producer);
    } catch (...) {
      ++t.failed;
    }
  }
  return t;
}

RequestOutcome handoff_request(const HandoffInput& in, std::uint32_t salt) {
  RequestOutcome o{kHandoffs, 0, true};
  try {
    auto req = spawn_traced([&in, salt] { return run_handoffs(in, salt); });
    const HandoffTally t = join_traced(req);
    o.failed = t.failed;
    o.ok = t.failed != 0 ||
           t.sum == 2 * (in.sum + std::uint64_t{kHandoffs} * salt);
  } catch (...) {
    o.failed = kHandoffs;
  }
  return o;
}

PassResult run_promise_handoff(const PassConfig& pc) {
  return drive<HandoffInput>(pc, handoff_request);
}

// ---- paper-apps ------------------------------------------------------------

// The six Table 2 apps, in registry order, with their span names.
struct PaperApp {
  const tj::apps::AppInfo* info;
  std::string span;
};

const std::vector<PaperApp>& paper_apps() {
  static const std::vector<PaperApp> apps = [] {
    std::vector<PaperApp> out;
    for (const tj::apps::AppInfo& a : tj::apps::all_apps()) {
      if (!a.extra) out.push_back({&a, "apps." + a.name});
    }
    return out;
  }();
  return apps;
}

// One app run on a fresh runtime; returns false if it raised. The app's
// memory goes back to the system afterwards, so the peak resident set is
// that of the largest app, not an artefact of the order the seed picked.
bool run_app(const PaperApp& app, const PassConfig& pc, PassResult& r,
             bool timed) {
  struct TrimOnExit {
    ~TrimOnExit() { malloc_trim(0); }
  } trim;
  ScopedSpan span(app.span.c_str());
  tj::runtime::Runtime rt(runtime_config(pc));
  tj::apps::AppOutcome out;
  try {
    out = app.info->run(rt, tj::apps::AppSize::Small);
  } catch (...) {
    return false;
  }
  if (!out.valid) {
    note_error(r, app.info->name + " self-check failed: " + out.detail);
  }
  if (timed) {
    read_runtime(rt, r);
    r.apps.push_back({app.info->name, out.seconds, out.tasks});
    r.policy_s += out.seconds;
  }
  return true;
}

// The seed fixes the order of the six apps in every round.
std::vector<std::vector<std::size_t>> round_orders(std::uint64_t seed,
                                                   std::uint32_t rounds) {
  std::uint64_t state = seed ^ 0xa995ULL;
  std::vector<std::vector<std::size_t>> orders(rounds);
  for (auto& order : orders) {
    for (std::size_t i = 0; i < paper_apps().size(); ++i) order.push_back(i);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[splitmix64(state) % i]);
    }
  }
  return orders;
}

PassResult run_paper_apps(const PassConfig& pc) {
  PassResult r;
  r.threads = pc.workers + 1;
  std::vector<std::vector<std::size_t>> orders;
  for (std::uint32_t s = 0; s < pc.setups; ++s) {
    const std::uint64_t t0 = now_ns();
    orders = round_orders(pc.seed, pc.warmup + pc.requests);
    for (std::uint32_t w = 0; w < pc.warmup; ++w) {
      for (std::size_t a : orders[w]) {
        if (!run_app(paper_apps()[a], pc, r, false)) {
          note_error(r, "warm-up app run failed");
        }
      }
    }
    r.setup_s.push_back(seconds_since(t0));
  }
  r.request_ms.reserve(pc.requests);
  const std::uint64_t start = now_ns();
  for (std::uint32_t i = 0; i < pc.requests; ++i) {
    const std::uint64_t q0 = now_ns();
    std::uint32_t done = 0;
    {
      RequestScope scope(i);
      for (std::size_t a : orders[pc.warmup + i]) {
        ++r.attempted;
        if (run_app(paper_apps()[a], pc, r, true)) {
          ++done;
        } else {
          ++r.failed;
        }
      }
    }
    r.request_ms.push_back((now_ns() - q0) * 1e-6);
    r.request_done.push_back(done);
  }
  r.wall_s = seconds_since(start);
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fork-join-tree", 3, 250.0, 40, 7, 3 * kTreeTasks + 1,
       run_fork_join_tree},
      {"promise-handoff", 1, 110.0, 10, 7, 9 * kHandoffs + 2,
       run_promise_handoff},
      {"paper-apps", 3, 1.5, 1, 3, 7, run_paper_apps},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}


}  // namespace perfbench
