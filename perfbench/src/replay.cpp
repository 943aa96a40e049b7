#include "replay.hpp"

#include <algorithm>
#include <memory>

#include "core/guarded.hpp"
#include "core/verifier.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using tj::core::PolicyChoice;
using tj::core::PolicyNode;
using tj::trace::Action;
using tj::trace::ActionKind;
using tj::trace::TaskId;

// The fork/join actions of a trace, with each task released right after
// the last action that names it (as the runtime releases a dead task).
struct Plan {
  std::vector<Action> actions;
  std::vector<std::vector<TaskId>> release_after;
  std::size_t tasks = 0;
};

Plan make_plan(const tj::trace::Trace& t) {
  Plan p;
  for (const Action& a : t.actions()) {
    if (a.kind != ActionKind::Init && a.kind != ActionKind::Fork &&
        a.kind != ActionKind::Join) {
      continue;
    }
    p.actions.push_back(a);
    p.tasks = std::max<std::size_t>(p.tasks, a.actor + 1);
    if (a.target != tj::trace::kNoTask) {
      p.tasks = std::max<std::size_t>(p.tasks, a.target + 1);
    }
  }
  constexpr std::size_t kNever = static_cast<std::size_t>(-1);
  std::vector<std::size_t> last(p.tasks, kNever);
  for (std::size_t i = 0; i < p.actions.size(); ++i) {
    last[p.actions[i].actor] = i;
    if (p.actions[i].target != tj::trace::kNoTask) {
      last[p.actions[i].target] = i;
    }
  }
  p.release_after.resize(p.actions.size());
  for (TaskId task = 0; task < p.tasks; ++task) {
    if (last[task] != kNever) p.release_after[last[task]].push_back(task);
  }
  return p;
}

std::vector<Plan> make_plans(const std::vector<tj::trace::Trace>& traces) {
  std::vector<Plan> plans;
  for (const auto& t : traces) plans.push_back(make_plan(t));
  return plans;
}

struct Timer {
  double ns = 0;
  std::uint64_t calls = 0;
  double mean() const { return calls == 0 ? 0.0 : ns / calls; }
};

// Forks go through the verifier, timed here; joins go to `join`, which
// times its own calls.
template <typename Join>
void replay(const Plan& p, tj::core::Verifier& v, Timer& forks, Join&& join) {
  std::vector<PolicyNode*> node(p.tasks, nullptr);
  for (std::size_t i = 0; i < p.actions.size(); ++i) {
    const Action& a = p.actions[i];
    if (a.kind == ActionKind::Join) {
      if (node[a.actor] != nullptr && node[a.target] != nullptr) {
        join(a, node[a.actor], node[a.target]);
      }
    } else {
      PolicyNode* parent =
          a.kind == ActionKind::Fork ? node[a.actor] : nullptr;
      const TaskId child = a.kind == ActionKind::Fork ? a.target : a.actor;
      const std::uint64_t t0 = now_ns();
      node[child] = v.add_child(parent);
      forks.ns += static_cast<double>(now_ns() - t0);
      ++forks.calls;
    }
    for (TaskId task : p.release_after[i]) {
      if (node[task] != nullptr) v.release(node[task]);
      node[task] = nullptr;
    }
  }
}

constexpr PolicyChoice kTable1Policies[] = {
    PolicyChoice::TJ_SP, PolicyChoice::TJ_GT, PolicyChoice::TJ_JP,
    PolicyChoice::KJ_VC, PolicyChoice::KJ_SS};

}  // namespace

std::vector<PolicyCost> replay_policies(
    const std::vector<tj::trace::Trace>& traces, int reps) {
  const std::vector<Plan> plans = make_plans(traces);
  std::vector<PolicyCost> out;
  for (PolicyChoice policy : kTable1Policies) {
    std::vector<double> fork_ns, check_ns;
    PolicyCost cost{policy};
    for (int rep = 0; rep < reps; ++rep) {
      Timer forks, checks;
      for (const Plan& p : plans) {
        const std::unique_ptr<tj::core::Verifier> v =
            tj::core::make_verifier(policy);
        replay(p, *v, forks,
               [&](const Action&, PolicyNode* joiner, PolicyNode* joinee) {
                 const std::uint64_t t0 = now_ns();
                 (void)v->permits_join(joiner, joinee);
                 checks.ns += static_cast<double>(now_ns() - t0);
                 ++checks.calls;
                 v->on_join_complete(joiner, joinee);
               });
        cost.peak_bytes = std::max(cost.peak_bytes, v->peak_bytes());
      }
      fork_ns.push_back(forks.mean());
      check_ns.push_back(checks.mean());
    }
    cost.fork_ns = median(fork_ns);
    cost.check_ns = median(check_ns);
    out.push_back(cost);
  }
  return out;
}

GateCost replay_gate(const std::vector<tj::trace::Trace>& traces, int reps) {
  const std::vector<Plan> plans = make_plans(traces);
  std::vector<double> approved_ns, rejected_ns;
  GateCost cost;
  for (int rep = 0; rep < reps; ++rep) {
    Timer forks, approved, rejected;
    for (const Plan& p : plans) {
      const std::unique_ptr<tj::core::Verifier> v =
          tj::core::make_verifier(PolicyChoice::TJ_SP);
      tj::core::JoinGate gate(PolicyChoice::TJ_SP, v.get(),
                              tj::core::FaultMode::Fallback);
      replay(p, *v, forks,
             [&](const Action& a, PolicyNode* joiner, PolicyNode* joinee) {
               const std::uint64_t t0 = now_ns();
               const tj::core::JoinDecision d = gate.enter_join(
                   a.actor, a.target, joiner, joinee, /*target_done=*/false);
               const double ns = static_cast<double>(now_ns() - t0);
               Timer& t = d == tj::core::JoinDecision::Proceed ? approved
                                                               : rejected;
               t.ns += ns;
               ++t.calls;
               if (!tj::core::is_fault(d)) {
                 gate.leave_join(a.actor, a.target, joiner, joinee, true);
               }
             });
    }
    approved_ns.push_back(approved.mean());
    rejected_ns.push_back(rejected.mean());
    cost.approved = approved.calls;
    cost.rejected = rejected.calls;
  }
  cost.approved_ns = median(approved_ns);
  cost.rejected_ns = median(rejected_ns);
  return cost;
}

}  // namespace perfbench
