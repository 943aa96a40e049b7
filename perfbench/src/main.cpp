// perfbench: the repository benchmark.
//
//   perfbench --workload <fork-join-tree|promise-handoff|paper-apps>
//             --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//
// --trace 0 runs one verified pass of fixed work (seconds × the workload's
// nominal request rate) and prints the end-to-end metrics. --trace 1 runs
// three passes of a third of that work (plain, unverified baseline,
// traced) plus a recorded request replayed through every verifier, and
// prints the per-layer metrics; the traced pass's spans go to <spans-dir>.
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/contention.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_dir = ".bench_build/spans";
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      o.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--spans-dir") {
      o.spans_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 &&
         (o.trace == 0 || o.trace == 1);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void add(const char* pass, const PassResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "perfbench: %s pass: %s\n", pass, e.c_str());
    }
    if (!r.errors.empty() || r.failed != 0) correct = false;
  }
};

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              t.correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Keeps total threads (root plus workers) at or below the CPUs this process
// may use, and confines the process to that many CPUs so every run gets the
// same placement. Left free to roam four CPUs, promise-handoff's two threads
// sometimes shared one and sometimes did not, and its median request time
// moved by a third between runs. Call before any thread starts: threads
// inherit the mask. Returns the worker count.
unsigned place_threads(const Workload& w) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 1;
  const unsigned cpus = static_cast<unsigned>(CPU_COUNT(&allowed));
  const unsigned workers = std::min(w.workers, cpus > 1 ? cpus - 1 : 1);
  cpu_set_t use;
  CPU_ZERO(&use);
  unsigned taken = 0;
  for (int c = 0; c < CPU_SETSIZE && taken < workers + 1; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &use);
      ++taken;
    }
  }
  sched_setaffinity(0, sizeof use, &use);
  return workers;
}

PassConfig base_config(const Workload& w, const Options& o) {
  PassConfig pc;
  pc.seed = o.seed;
  pc.workers = place_threads(w);
  pc.requests = static_cast<std::uint32_t>(
      std::max(1.0, std::round(o.seconds * w.requests_per_second)));
  pc.warmup = w.warmup;
  pc.setups = w.setups;
  return pc;
}

// ---- end-to-end run --------------------------------------------------------

// ops_per_s is taken per batch of consecutive requests (about this many
// batches per run): ops completed ÷ the batch's wall time. The median over
// batches keeps a slow spell of the host, or a rare stall, from swinging
// the whole run's figure.
constexpr std::size_t kBatches = 20;

double median_batch_rate(const PassResult& r) {
  const std::size_t n = r.request_ms.size();
  const std::size_t per =
      std::max<std::size_t>(1, (n + kBatches - 1) / kBatches);
  std::vector<double> rates;
  for (std::size_t i = 0; i < n; i += per) {
    double ms = 0, done = 0;
    for (std::size_t j = i; j < std::min(i + per, n); ++j) {
      ms += r.request_ms[j];
      done += r.request_done[j];
    }
    rates.push_back(ratio(done, ms * 1e-3));
  }
  return median(rates);
}

int run_end_to_end(const Workload& w, const Options& o) {
  const PassResult r = w.run(base_config(w, o));
  Tally t;
  t.add("timed", r);
  print_result(
      t, {
             {"ops_per_s", median_batch_rate(r), "1/s"},
             {"p50_ms", median(r.request_ms), "ms"},
             {"peak_rss_mib", peak_rss_mib(), "MiB"},
             {"setup_s", median(r.setup_s), "s"},
         });
  return 0;
}

// ---- traced run ------------------------------------------------------------

// Hot lock sites the contention registry cannot see, because they are bare
// std::mutex members. Listed so their absence from the lock shares is
// visible, not silent.
const std::vector<std::string> kUnprofiledSites = {
    "core.owp.mu (OwpVerifier::mu_: every task exit, every OWP check)",
    "runtime.promises_mu (Runtime::promises_mu_: promise make/release)",
    "runtime.cancel_scope (CancelState::mu_: every spawn)",
};

// The profiled sites whose wait share the traced run reports.
const std::vector<std::string> kLockSites = {
    "sched.queue", "sched.quiesce", "wfg.graph", "gate.await", "gate.witness"};

// Spans kept per traced pass; requests are sampled to stay under it.
constexpr double kMaxSpans = 200000;

std::map<std::string, tj::obs::SiteSnapshot> registry_by_name() {
  std::map<std::string, tj::obs::SiteSnapshot> out;
  for (auto& s : tj::obs::ContentionRegistry::instance().snapshot()) {
    out.emplace(s.name, std::move(s));
  }
  return out;
}

std::map<std::string, std::vector<double>> durations_by_name(
    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans) {
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

// Mean await span of the last tenth of a request's promises over the
// first tenth: how OWP's await cost grows with the owner's history.
double await_growth(const std::vector<Span>& spans) {
  double first = 0, last = 0;
  std::uint64_t n_first = 0, n_last = 0;
  std::uint32_t k = 0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "runtime.await") k = std::max(k, s.arg + 1);
  }
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "runtime.await") continue;
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    if (s.arg < k / 10) {
      first += ns;
      ++n_first;
    } else if (s.arg >= k - k / 10) {
      last += ns;
      ++n_last;
    }
  }
  return n_first == 0 || n_last == 0
             ? 0
             : ratio(last / static_cast<double>(n_last),
                     first / static_cast<double>(n_first));
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

int run_traced(const Workload& w, const Options& o) {
  // Three passes of a third of the fixed work each, one set-up apiece, so a
  // traced run lasts about as long as an end-to-end run.
  PassConfig pc = base_config(w, o);
  pc.requests = std::max<std::uint32_t>(1, pc.requests / 3);
  pc.setups = 1;
  Tally tally;

  const PassResult plain = w.run(pc);
  tally.add("plain", plain);

  PassConfig unverified_pc = pc;
  unverified_pc.verified = false;
  const PassResult unverified = w.run(unverified_pc);
  tally.add("unverified", unverified);

  const double all_spans =
      static_cast<double>(pc.requests) * w.spans_per_request;
  const auto stride = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(all_spans / kMaxSpans)));
  Tracer tracer(stride);
  PassResult traced;
  const auto before = registry_by_name();
  const std::uint64_t t0 = now_ns();
  {
    tj::obs::ContentionEnableGuard profiling(true);
    tracer.install();
    traced = w.run(pc);
    Tracer::uninstall();
  }
  const double traced_elapsed_s = (now_ns() - t0) * 1e-9;
  const auto after = registry_by_name();
  tally.add("traced", traced);
  const std::vector<Span> spans = tracer.collect();

  PassConfig record_pc = pc;
  record_pc.requests = 1;
  record_pc.warmup = 0;
  record_pc.setups = 1;
  record_pc.record_trace = true;
  const PassResult recorded = w.run(record_pc);
  tally.add("recorded", recorded);
  const std::vector<PolicyCost> policies = replay_policies(recorded.traces, 5);
  const GateCost gate_cost = replay_gate(recorded.traces, 5);

  std::vector<Metric> m;
  // runtime
  auto spans_ns = durations_by_name(spans);
  const auto& wt = traced.workers;
  const double worker_ns = static_cast<double>(wt.total_ns());
  auto state_share = [&](tj::obs::WorkerState s) {
    return ratio(static_cast<double>(wt.state_ns[static_cast<int>(s)]),
                 worker_ns);
  };
  for (const std::string call : {"spawn", "join", "await", "fulfill"}) {
    m.push_back({"runtime." + call + "_ns.p50",
                 median(spans_ns["runtime." + call]), "ns"});
  }
  m.push_back({"runtime.inline_share",
               ratio(traced.tasks_inlined, traced.tasks_executed), "ratio"});
  m.push_back({"runtime.effective_parallelism", wt.effective_parallelism(),
               "threads"});
  m.push_back({"runtime.blocked_join_share",
               state_share(tj::obs::WorkerState::BlockedJoin), "ratio"});
  m.push_back(
      {"runtime.idle_share", state_share(tj::obs::WorkerState::Idle), "ratio"});
  m.push_back({"request.p99_ms", quantile(plain.request_ms, 0.99), "ms"});
  m.push_back({"request.samples", static_cast<double>(plain.request_ms.size()),
               "count"});

  // core
  const tj::core::GateStats& g = plain.gate;
  const double rulings =
      static_cast<double>(g.joins_checked + g.awaits_checked);
  const double rejections =
      static_cast<double>(g.policy_rejections + g.owp_rejections);
  const double ops = static_cast<double>(plain.attempted);
  m.push_back({"core.gate.enter_ns.approved", gate_cost.approved_ns, "ns"});
  m.push_back({"core.gate.enter_ns.rejected", gate_cost.rejected_ns, "ns"});
  m.push_back({"core.approve_share",
               rulings == 0 ? 0 : 1 - rejections / rulings, "ratio"});
  m.push_back({"core.false_positive_share",
               ratio(static_cast<double>(g.false_positives +
                                         g.owp_false_positives),
                     rejections),
               "ratio"});
  m.push_back({"core.owp.awaits_per_op",
               ratio(static_cast<double>(g.awaits_checked), ops), "count"});
  m.push_back({"core.owp.await_growth_x", await_growth(spans), "x"});
  for (const PolicyCost& c : policies) {
    const std::string v = "core." + lower(std::string(to_string(c.policy)));
    m.push_back({v + ".fork_ns", c.fork_ns, "ns"});
    m.push_back({v + ".check_ns", c.check_ns, "ns"});
    m.push_back(
        {v + ".peak_bytes", static_cast<double>(c.peak_bytes), "bytes"});
  }
  m.push_back({"core.overhead_x", ratio(plain.policy_s, unverified.policy_s),
               "x"});

  // wfg
  m.push_back({"wfg.cycle_checks_per_op",
               ratio(static_cast<double>(g.cycle_checks), ops), "count"});

  // obs: this pass's contention only (the registry is cumulative)
  std::uint64_t acquisitions = 0, contended = 0, wait_ns = 0;
  std::map<std::string, std::uint64_t> site_wait;
  for (const auto& [name, s] : after) {
    const auto it = before.find(name);
    const bool seen = it != before.end();
    acquisitions += s.acquisitions - (seen ? it->second.acquisitions : 0);
    contended += s.contended - (seen ? it->second.contended : 0);
    site_wait[name] = s.wait.sum_ns - (seen ? it->second.wait.sum_ns : 0);
    wait_ns += site_wait[name];
  }
  const double thread_ns = traced.threads * traced_elapsed_s * 1e9;
  m.push_back({"obs.lock_wait_share",
               ratio(static_cast<double>(wait_ns), thread_ns), "ratio"});
  m.push_back({"obs.contended_share",
               ratio(static_cast<double>(contended),
                     static_cast<double>(acquisitions)),
               "ratio"});
  for (const std::string& site : kLockSites) {
    m.push_back({"obs.lock." + site + ".wait_share",
                 ratio(static_cast<double>(site_wait[site]), thread_ns),
                 "ratio"});
  }
  m.push_back({"obs.tracing_overhead_x", ratio(traced.wall_s, plain.wall_s),
               "x"});

  // apps: medians over the plain pass's runs (0 on the other workloads)
  std::map<std::string, std::vector<double>> app_s;
  std::map<std::string, std::uint64_t> app_tasks;
  for (const AppRun& a : plain.apps) {
    app_s[a.app].push_back(a.run_s);
    app_tasks[a.app] = a.tasks;
  }
  for (const char* app :
       {"jacobi", "smithwaterman", "crypt", "strassen", "series", "nqueens"}) {
    const std::string name = std::string("apps.") + app;
    m.push_back({name + ".run_s", median(app_s[app]), "s"});
    m.push_back(
        {name + ".tasks", static_cast<double>(app_tasks[app]), "count"});
  }

  // spans file
  std::error_code ec;
  std::filesystem::create_directories(o.spans_dir, ec);
  // One file per workload, overwritten by each traced run (the header
  // names the seed), so repeated runs do not pile up files.
  const std::string path = o.spans_dir + "/" + w.name + ".tsv";
  std::vector<std::string> header = {
      std::string("perfbench traced pass, workload ") + w.name + ", seed " +
          std::to_string(o.seed) + ", " + std::to_string(pc.requests) +
          " requests, spans of every " + std::to_string(stride) +
          "th request",
      "unprofiled lock sites (absent from obs.* shares):"};
  for (const std::string& s : kUnprofiledSites) header.push_back("  " + s);
  if (write_spans(path, spans, header)) {
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
                 path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    tally.correct = false;
  }
  for (const std::string& s : kUnprofiledSites) {
    std::fprintf(stderr, "perfbench: unprofiled lock site: %s\n", s.c_str());
  }
  std::fprintf(stderr,
               "perfbench: replay: %llu approved, %llu rejected gate joins per "
               "replay\n",
               static_cast<unsigned long long>(gate_cost.approved),
               static_cast<unsigned long long>(gate_cost.rejected));
  print_result(tally, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's sliding one, so large arrays
  // are always mapped and unmapped: the peak resident set then follows the
  // live data instead of what earlier frees left cached in the heap.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  perfbench::Options o;
  if (!perfbench::parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-dir <dir>]\n");
    return 2;
  }
  const perfbench::Workload* w = perfbench::find_workload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; one of:",
                 o.workload.c_str());
    for (const auto& known : perfbench::workloads()) {
      std::fprintf(stderr, " %s", known.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  return o.trace == 0 ? perfbench::run_end_to_end(*w, o)
                      : perfbench::run_traced(*w, o);
}
