#pragma once
// The three closed-loop, fixed-work workloads. A pass builds the runtime,
// generates its inputs from the seed, runs the warm-up requests (together:
// one set-up), repeats that set-up `setups` times to get a steady set-up
// time, and then runs `requests` timed requests back to back on the last
// set-up. Every request's result is checked exactly.

#include <cstdint>
#include <string>
#include <vector>

#include "core/guarded.hpp"
#include "obs/contention.hpp"
#include "trace/trace.hpp"

namespace perfbench {

struct PassConfig {
  std::uint64_t seed = 1;
  unsigned workers = 1;        ///< worker threads besides the root thread
  std::uint32_t requests = 1;  ///< timed requests
  std::uint32_t warmup = 0;    ///< warm-up requests per set-up
  std::uint32_t setups = 1;    ///< set-ups; the last one runs the requests
  /// false: PolicyChoice::None and PromisePolicy::Unverified — the
  /// unverified baseline the paper's overhead factor divides by.
  bool verified = true;
  /// Record the runtime's fork/join trace (Config::record_trace), for the
  /// single-threaded policy replay.
  bool record_trace = false;
};

struct AppRun {
  std::string app;
  double run_s = 0;         ///< the app's parallel time (AppOutcome::seconds)
  std::uint64_t tasks = 0;  ///< tasks the app created
};

struct PassResult {
  std::uint64_t attempted = 0;  ///< ops attempted in the timed requests
  std::uint64_t failed = 0;     ///< ops whose request raised an exception
  std::vector<std::string> errors;  ///< failed correctness checks
  std::vector<double> request_ms;   ///< one entry per timed request
  std::vector<std::uint32_t> request_done;  ///< ops completed, per request
  std::vector<double> setup_s;      ///< one entry per set-up
  double wall_s = 0;  ///< wall time of the timed requests
  /// The time the Table 2 overhead factor compares: wall_s, except for
  /// paper-apps, where it is the apps' parallel time only (as in Table 2).
  double policy_s = 0;
  unsigned threads = 0;  ///< root thread plus workers
  tj::core::GateStats gate;  ///< summed over the pass's runtimes
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_inlined = 0;
  tj::obs::WorkerStateBoard::Totals workers;  ///< summed per-state totals
  std::vector<AppRun> apps;                   ///< paper-apps only
  std::vector<tj::trace::Trace> traces;       ///< record_trace only
};

struct Workload {
  const char* name;
  unsigned workers;              ///< worker threads besides the root thread
  double requests_per_second;    ///< sizes the fixed work: seconds × this
  std::uint32_t warmup;          ///< warm-up requests per set-up
  std::uint32_t setups;          ///< set-ups per pass
  std::uint32_t spans_per_request;  ///< sizes the traced run's sampling
  PassResult (*run)(const PassConfig&);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

}  // namespace perfbench
