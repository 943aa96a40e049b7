#pragma once
// Replays an offline trace through the *online* OwpVerifier, exactly as the
// runtime would — on_make at makes, check/commit at fulfills and transfers,
// permits/on_await at awaits, permits/on_join at joins — so tests and the
// fuzzer can compare the online verdict of every action against the offline
// reference judgment (trace/owp_judgment.hpp) on the same prefix.
//
// Learning is unconditional, mirroring OwpJudgment::push: the trace is
// ground truth, so an OWP-invalid action still applies its ownership and
// history effects after its verdict is taken. Task exits do not appear in
// the trace model, so the replay never orphans a promise, never prunes
// history, and records every join edge (no target is known to have exited).

#include <unordered_map>

#include "core/owp.hpp"
#include "trace/action.hpp"
#include "trace/trace.hpp"

namespace tj::core {

class OwpTraceReplay {
 public:
  OwpTraceReplay() = default;
  OwpTraceReplay(const OwpTraceReplay&) = delete;
  OwpTraceReplay& operator=(const OwpTraceReplay&) = delete;

  ~OwpTraceReplay() {
    for (auto& [id, node] : nodes_) v_.release(node);
  }

  /// Takes the online verdict of `a` (true = the policy permits it), then
  /// applies the action. Actions the OWP has no opinion on (init/fork/make)
  /// report true.
  bool feed(const trace::Action& a) {
    switch (a.kind) {
      case trace::ActionKind::Init:
      case trace::ActionKind::Fork:
        return true;
      case trace::ActionKind::Join: {
        const bool ok = v_.permits_join(a.actor, a.target);
        v_.on_join(a.actor, a.target, /*target_exited=*/false);
        return ok;
      }
      case trace::ActionKind::Make:
        if (!nodes_.contains(a.promise)) {
          nodes_.emplace(a.promise, v_.on_make(a.actor, a.promise));
        }
        return true;
      case trace::ActionKind::Fulfill: {
        PromiseNode* p = nodes_.at(a.promise);
        const bool ok = v_.check_fulfill(p, a.actor) == FulfillResult::Ok;
        v_.commit_fulfill(p);
        return ok;
      }
      case trace::ActionKind::Transfer: {
        PromiseNode* p = nodes_.at(a.promise);
        const bool ok =
            v_.check_transfer(p, a.actor, live_) == TransferResult::Ok;
        v_.commit_transfer(p, a.target, live_);
        return ok;
      }
      case trace::ActionKind::Await: {
        PromiseNode* p = nodes_.at(a.promise);
        const bool ok = v_.permits_await(a.actor, p) == AwaitVerdict::Allow;
        v_.on_await(a.actor, p);
        return ok;
      }
    }
    return true;
  }

  OwpVerifier& verifier() { return v_; }

 private:
  OwpVerifier v_;
  const ExitFlag live_{false};  // every receiver: the trace has no exits
  std::unordered_map<trace::PromiseId, PromiseNode*> nodes_;
};

}  // namespace tj::core
