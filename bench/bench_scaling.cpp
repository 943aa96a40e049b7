// Multicore scaling benchmark: contended fork/join + promise-ping
// throughput, ops/sec vs thread count, one column per policy. This is the
// macro view of the contention observatory — every cell runs with lock
// profiling force-enabled (no recorder needed) and reports the measured
// lock-contention share alongside its throughput, so the scaling curve and
// its serialization ceiling (ROADMAP item 1: the gate/WFG/scheduler locks)
// are read off the same table.
//
// Workload per op, per driver task: make a promise, fork a child that owns
// and fulfills it, await the promise, then join the child. That touches
// every profiled hot site per op — gate.await + gate.witness on the verdict
// paths, wfg.graph on blocking edges, sched.queue on submit/dequeue — with
// `threads` driver tasks hammering them concurrently.
//
// Each cell also counts the distinct OS threads that ran a driver task. A
// cell where fewer than `threads` threads ran drivers (flagged
// SERIAL-DRIVERS) measured drivers run back to back, not in parallel; its
// throughput belongs to a different regime and must not be pooled with the
// parallel cells of the same thread count.
//
// Output: a human table, and with --json[=FILE] the machine-readable
// BENCH_scaling.json artifact (schema "tj-scaling-v1", documented in
// docs/benchmarks.md). The async cell force-fails (poisoned=true, non-zero
// exit) if its detector failed over mid-run: a failed-over run silently
// measures synchronous CycleOnly, which is the wrong column.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/contention.hpp"
#include "runtime/api.hpp"

namespace {

using tj::core::PolicyChoice;
using tj::obs::SiteSnapshot;
using tj::runtime::Config;
using tj::runtime::Runtime;

struct PolicyColumn {
  const char* name;  // column label (doubles as --policies= selector)
  PolicyChoice policy;
};

// "owp" is PolicyChoice::None with the default ownership policy on: it
// isolates what promise verification costs with no join policy at all.
constexpr PolicyColumn kColumns[] = {
    {"tj-gt", PolicyChoice::TJ_GT}, {"tj-jp", PolicyChoice::TJ_JP},
    {"tj-sp", PolicyChoice::TJ_SP}, {"kj-vc", PolicyChoice::KJ_VC},
    {"kj-ss", PolicyChoice::KJ_SS}, {"owp", PolicyChoice::None},
    {"cycle", PolicyChoice::CycleOnly}, {"async", PolicyChoice::Async},
};

struct Cell {
  std::string policy;
  unsigned threads = 0;
  std::uint64_t ops = 0;
  std::uint64_t wall_ns = 0;
  double ops_per_sec = 0;
  // Registry deltas over this cell only (the registry is cumulative).
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  std::uint64_t wait_sum_ns = 0;
  double contended_share = 0;   ///< contended / acquisitions
  double lock_wait_share = 0;   ///< wait_sum / (threads * wall) — cpu share
  std::string top_site;         ///< site with the largest wait-ns delta
  std::uint64_t top_site_wait_ns = 0;
  double effective_parallelism = 0;  ///< mean workers Running (this runtime)
  /// Distinct OS threads that ran a driver task. Below `threads`, some
  /// drivers ran one after another on one thread (the root or a worker
  /// inlined them), and the cell measures that serial regime instead of
  /// `threads` parallel drivers.
  unsigned driver_threads = 0;
  bool poisoned = false;
  std::string poison_reason;
};

std::map<std::string, SiteSnapshot> registry_by_name() {
  std::map<std::string, SiteSnapshot> out;
  for (SiteSnapshot& s : tj::obs::ContentionRegistry::instance().snapshot()) {
    out.emplace(s.name, std::move(s));
  }
  return out;
}

Cell run_cell(const PolicyColumn& col, unsigned threads, std::uint64_t ops) {
  Cell cell;
  cell.policy = col.name;
  cell.threads = threads;
  cell.ops = ops * threads;

  Config cfg;
  cfg.policy = col.policy;
  cfg.workers = threads;
  // Async needs headroom so ring drops cannot trigger a failover mid-cell
  // (which would silently measure the wrong mode).
  if (col.policy == PolicyChoice::Async) {
    cfg.obs.buffer_capacity = std::size_t{1} << 20;
  }

  // Lock/worker profiling on for the whole cell, recorder not required.
  tj::obs::ContentionEnableGuard profiling(true);
  const std::map<std::string, SiteSnapshot> before = registry_by_name();

  Runtime rt(cfg);
  // Each driver writes its own slot; the root's joins publish them.
  std::vector<std::thread::id> driver_ids(threads);
  const auto t0 = std::chrono::steady_clock::now();
  rt.root([threads, ops, &driver_ids] {
    std::vector<tj::runtime::Future<std::uint64_t>> drivers;
    drivers.reserve(threads);
    for (unsigned d = 0; d < threads; ++d) {
      drivers.push_back(tj::runtime::async([ops, &id = driver_ids[d]] {
        id = std::this_thread::get_id();
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < ops; ++i) {
          auto p = tj::runtime::make_promise<int>();
          auto child = tj::runtime::async_owning(
              p, [p] { p.fulfill(1); return 1; });
          acc += static_cast<std::uint64_t>(p.get());
          acc += static_cast<std::uint64_t>(child.get());
        }
        return acc;
      }));
    }
    std::uint64_t total = 0;
    for (auto& f : drivers) total += f.get();
    return total;
  });
  const auto t1 = std::chrono::steady_clock::now();

  cell.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  cell.ops_per_sec = cell.wall_ns == 0
                         ? 0
                         : static_cast<double>(cell.ops) * 1e9 /
                               static_cast<double>(cell.wall_ns);
  cell.effective_parallelism =
      rt.scheduler().worker_states().totals().effective_parallelism();
  std::sort(driver_ids.begin(), driver_ids.end());
  cell.driver_threads = static_cast<unsigned>(
      std::unique(driver_ids.begin(), driver_ids.end()) - driver_ids.begin());

  if (col.policy == PolicyChoice::Async && rt.recovery() != nullptr &&
      rt.recovery()->failed_over()) {
    cell.poisoned = true;
    cell.poison_reason = "detector failed over: cell measured a synchronous "
                         "ladder level, not async";
  }

  // Diff the cumulative registry: this cell's contention only.
  for (const auto& [name, after] : registry_by_name()) {
    const auto it = before.find(name);
    const std::uint64_t acq =
        after.acquisitions - (it != before.end() ? it->second.acquisitions : 0);
    const std::uint64_t con =
        after.contended - (it != before.end() ? it->second.contended : 0);
    const std::uint64_t wait =
        after.wait.sum_ns - (it != before.end() ? it->second.wait.sum_ns : 0);
    cell.acquisitions += acq;
    cell.contended += con;
    cell.wait_sum_ns += wait;
    if (wait > cell.top_site_wait_ns) {
      cell.top_site_wait_ns = wait;
      cell.top_site = name;
    }
  }
  if (cell.acquisitions != 0) {
    cell.contended_share = static_cast<double>(cell.contended) /
                           static_cast<double>(cell.acquisitions);
  }
  if (cell.wall_ns != 0) {
    cell.lock_wait_share =
        static_cast<double>(cell.wait_sum_ns) /
        (static_cast<double>(threads) * static_cast<double>(cell.wall_ns));
  }
  return cell;
}

std::string jesc(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string to_json(const std::vector<Cell>& cells,
                    const std::vector<unsigned>& threads,
                    const std::vector<std::string>& policies,
                    unsigned hw) {
  std::ostringstream os;
  os << "{\"schema\":\"tj-scaling-v1\",\"hw_concurrency\":" << hw
     << ",\"threads\":[";
  for (std::size_t i = 0; i < threads.size(); ++i) {
    os << (i != 0 ? "," : "") << threads[i];
  }
  os << "],\"policies\":[";
  for (std::size_t i = 0; i < policies.size(); ++i) {
    os << (i != 0 ? "," : "") << '"' << policies[i] << '"';
  }
  os << "],\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (i != 0) os << ",";
    os << "{\"policy\":\"" << c.policy << "\",\"threads\":" << c.threads
       << ",\"ops\":" << c.ops << ",\"wall_ns\":" << c.wall_ns
       << ",\"ops_per_sec\":" << c.ops_per_sec
       << ",\"acquisitions\":" << c.acquisitions
       << ",\"contended\":" << c.contended
       << ",\"wait_sum_ns\":" << c.wait_sum_ns
       << ",\"contended_share\":" << c.contended_share
       << ",\"lock_wait_share\":" << c.lock_wait_share << ",\"top_site\":\""
       << jesc(c.top_site) << "\",\"top_site_wait_ns\":" << c.top_site_wait_ns
       << ",\"effective_parallelism\":" << c.effective_parallelism
       << ",\"driver_threads\":" << c.driver_threads
       << ",\"poisoned\":" << (c.poisoned ? "true" : "false")
       << ",\"poison_reason\":\"" << jesc(c.poison_reason) << "\"}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  unsigned max_threads = hw;
  std::uint64_t ops = 2000;  // per driver task
  bool json = false;
  std::string json_file;
  std::string policy_filter;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--max-threads=", 0) == 0) {
      max_threads = static_cast<unsigned>(std::atoi(arg.c_str() + 14));
    } else if (arg.rfind("--ops=", 0) == 0) {
      ops = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 6));
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_file = arg.substr(7);
    } else if (arg.rfind("--policies=", 0) == 0) {
      policy_filter = arg.substr(11);
    } else {
      std::fprintf(stderr,
                   "usage: bench_scaling [--max-threads=N] [--ops=N]\n"
                   "                     [--policies=csv] [--json[=FILE]]\n");
      return 2;
    }
  }
  if (max_threads == 0) max_threads = 1;

  // Thread counts: powers of two up to the cap, plus the cap itself.
  std::vector<unsigned> threads;
  for (unsigned t = 1; t <= max_threads; t *= 2) threads.push_back(t);
  if (threads.back() != max_threads) threads.push_back(max_threads);

  std::vector<PolicyColumn> columns;
  for (const PolicyColumn& col : kColumns) {
    if (!policy_filter.empty() &&
        ("," + policy_filter + ",").find("," + std::string(col.name) + ",") ==
            std::string::npos) {
      continue;
    }
    columns.push_back(col);
  }
  if (columns.empty()) {
    std::fprintf(stderr, "bench_scaling: no policies matched '%s'\n",
                 policy_filter.c_str());
    return 2;
  }

  std::printf("Scaling: fork/join + promise ping, %llu ops/driver, hw=%u\n\n",
              static_cast<unsigned long long>(ops), hw);
  std::printf("%-8s %8s %12s %10s %10s %8s %8s  %s\n", "policy", "threads",
              "ops/sec", "contended", "lock_wait", "eff_par", "drivers",
              "top site");

  std::vector<Cell> cells;
  std::vector<std::string> policies;
  bool ok = true;
  for (const PolicyColumn& col : columns) {
    policies.push_back(col.name);
    for (unsigned t : threads) {
      Cell c = run_cell(col, t, ops);
      std::printf("%-8s %8u %12.0f %9.1f%% %9.1f%% %8.2f %8u  %s%s%s\n",
                  c.policy.c_str(), c.threads, c.ops_per_sec,
                  100.0 * c.contended_share, 100.0 * c.lock_wait_share,
                  c.effective_parallelism, c.driver_threads,
                  c.top_site.c_str(),
                  c.driver_threads < c.threads ? "  SERIAL-DRIVERS" : "",
                  c.poisoned ? "  POISONED" : "");
      ok = ok && !c.poisoned;
      cells.push_back(std::move(c));
    }
  }

  if (json) {
    const std::string doc = to_json(cells, threads, policies, hw);
    if (json_file.empty()) {
      std::fputs(doc.c_str(), stdout);
    } else {
      std::ofstream out(json_file, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "bench_scaling: cannot write %s\n",
                     json_file.c_str());
        return 2;
      }
      out << doc;
    }
  }
  return ok ? 0 : 1;
}
