#pragma once
// Single-threaded policy replay: the recorded fork/join actions of one
// request are fed through each verifier (make_verifier: add_child,
// permits_join, on_join_complete, release) and through a JoinGate
// (enter_join, leave_join), one call at a time. This isolates the cost of
// each fork and each join check per policy — the paper's Table 1 columns —
// from scheduling and contention.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/policy_ids.hpp"
#include "trace/trace.hpp"

namespace perfbench {

struct PolicyCost {
  tj::core::PolicyChoice policy;
  double fork_ns = 0;   ///< mean add_child time
  double check_ns = 0;  ///< mean permits_join time
  std::size_t peak_bytes = 0;  ///< verifier's peak state, largest trace
};

struct GateCost {
  double approved_ns = 0;  ///< mean enter_join time of approved joins
  double rejected_ns = 0;  ///< mean enter_join time of rejected joins
  std::uint64_t approved = 0;  ///< joins per replay, by verdict
  std::uint64_t rejected = 0;
};

/// Replays through the five verifiers of the paper's Table 1 (TJ-SP,
/// TJ-GT, TJ-JP, KJ-VC, KJ-SS). Each figure is the median over `reps`
/// replays of every trace.
std::vector<PolicyCost> replay_policies(
    const std::vector<tj::trace::Trace>& traces, int reps);

/// Replays the joins through a TJ-SP JoinGate with the WFG fallback.
GateCost replay_gate(const std::vector<tj::trace::Trace>& traces, int reps);

}  // namespace perfbench
