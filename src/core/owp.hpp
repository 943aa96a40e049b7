#pragma once
// Online Ownership Policy verifier for promises, after "An Ownership Policy
// and Deadlock Detector for Promises" (Voss & Sarkar, arXiv:2101.01312).
//
// Invariant maintained: every unfulfilled promise has exactly one *owning*
// task — the task responsible for fulfilling it. Ownership starts at the
// maker and moves only by explicit transfer (e.g. at a fork handoff). The
// policy check is the online twin of trace/owp_judgment.hpp: a task may not
// block on a promise whose fulfilment obligation already (transitively)
// reaches it through the accumulated obligation-history graph H, where
//   join(a,b) contributes a → b, and
//   await(a,p) on an unfulfilled p contributes a → owner(p) (owner frozen at
//   await time).
// Like TJ, the policy is conservative: a historical path may no longer be
// live, so rejections are routed through the guarded WFG fallback (see
// core/guarded.hpp) which rules precisely. Races between the policy check
// and concurrent awaits are likewise backstopped by the WFG, which cycle-
// checks every insertion while promise owner edges are live.
//
// Storage. H is a flat table of interned task nodes, each with compact out-
// and in-edge lists; visited marks are per-slot epoch stamps, so a query
// allocates nothing. Reachability searches from both ends and always
// expands the smaller frontier. Every query asks whether some node reaches a
// *live* waiter, and a task that has exited never gains another out-edge,
// so a node whose task has exited and which reaches no live task (*inert*)
// can never matter again: the exit hook prunes inert history, keeping H
// proportional to what live tasks can still be reached through.
//
// The verifier additionally detects *orphaned* promises: when a task
// terminates still owning unfulfilled promises, no task is responsible for
// them any more, so any (present or future) await on them is a guaranteed
// deadlock — reported as such, matching the follow-up paper's detector.
// Whether a task has terminated is an exit flag stored with the task (see
// ExitFlag), not a set kept here.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/policy_alloc.hpp"
#include "core/policy_ids.hpp"
#include "core/witness.hpp"
#include "obs/contention.hpp"

namespace tj::core {

/// A task's exit flag. The runtime keeps one in every task record; the
/// exit hook sets it (OwpVerifier::on_task_exit) and transfers read it under
/// the verifier lock to refuse or orphan a handoff to a terminated receiver.
using ExitFlag = std::atomic<bool>;

/// Per-promise policy state. Opaque outside the verifier; guarded by the
/// verifier's mutex.
class PromiseNode {
 public:
  std::uint64_t uid() const { return uid_; }

 private:
  friend class OwpVerifier;

  enum class State : std::uint8_t { Unfulfilled, Fulfilled, Orphaned };

  explicit PromiseNode(std::uint64_t uid, std::uint64_t owner)
      : uid_(uid), owner_(owner) {}

  std::uint64_t uid_;
  std::uint64_t owner_;  // meaningful while state_ == Unfulfilled
  State state_ = State::Unfulfilled;
};

/// Policy verdict on an await attempt.
enum class AwaitVerdict : std::uint8_t {
  Allow,           ///< no obligation path from the owner back to the waiter
  RejectCycle,     ///< conservative rejection — refine via the WFG fallback
  RejectOrphaned,  ///< owner terminated without fulfilling: certain deadlock
};

/// Outcome of a transfer attempt.
enum class TransferResult : std::uint8_t {
  Ok,
  NotOwner,    ///< the calling task does not own the promise
  Fulfilled,   ///< nothing to transfer: the promise is already fulfilled
  Orphaned,    ///< the promise was orphaned by a dead owner
  TargetDead,  ///< the receiving task already terminated
};

/// Outcome of a fulfill attempt's policy check.
enum class FulfillResult : std::uint8_t {
  Ok,
  NotOwner,  ///< fulfilled by a non-owner: an ownership violation
  Settled,   ///< already fulfilled or orphaned (caller raises a usage error)
};

class OwpVerifier {
 public:
  OwpVerifier() = default;
  OwpVerifier(const OwpVerifier&) = delete;
  OwpVerifier& operator=(const OwpVerifier&) = delete;
  ~OwpVerifier();

  /// True once any promise has been made: futures-only programs pay one
  /// relaxed load per join, and one flag store and one load per task exit,
  /// never the verifier lock.
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Registers a fresh promise owned by `owner_uid`. Returns its node.
  PromiseNode* on_make(std::uint64_t owner_uid, std::uint64_t promise_uid);

  /// Phase 1 of a transfer: validates ownership and target liveness (the
  /// receiver's exit flag) under the verifier lock. Does not move ownership
  /// (the caller must still clear the WFG retarget check) — commit_transfer()
  /// finishes the move.
  TransferResult check_transfer(const PromiseNode* p, std::uint64_t from_uid,
                                const ExitFlag& to_exited) const;
  /// Returns true if the receiver died between check and commit, in which
  /// case the promise was orphaned instead (the caller must propagate that
  /// to the promise's shared state).
  bool commit_transfer(PromiseNode* p, std::uint64_t to_uid,
                       const ExitFlag& to_exited);

  /// Phase 1 of a fulfill: the ownership-policy view. Never blocks state
  /// transitions — commit_fulfill() marks the promise settled.
  FulfillResult check_fulfill(const PromiseNode* p,
                              std::uint64_t by_uid) const;
  void commit_fulfill(PromiseNode* p);

  /// The OWP check for await(waiter, p).
  AwaitVerdict permits_await(std::uint64_t waiter_uid,
                             const PromiseNode* p) const;

  /// Records the obligation edge waiter → owner(p) after an await was allowed
  /// to proceed (or cleared by the fallback). No-op if p settled meanwhile.
  void on_await(std::uint64_t waiter_uid, const PromiseNode* p);

  /// The OWP view of join(waiter, target): does target's obligation history
  /// already reach the waiter? Consulted by the gate *in addition to* the
  /// configured future policy once promises exist, since TJ/KJ soundness
  /// does not cover ownership obligations.
  bool permits_join(std::uint64_t waiter_uid, std::uint64_t target_uid) const;

  /// Records the obligation edge waiter → target for a completed join.
  /// `target_exited` states that target's exit hook has already run (true
  /// for every completed runtime join); a target that then holds no history
  /// is inert, so the edge is skipped. Trace replays, whose model has no
  /// exits, pass false.
  void on_join(std::uint64_t waiter_uid, std::uint64_t target_uid,
               bool target_exited);

  /// Rejection provenance: the obligation chain target ⇝ waiter in H that
  /// made permits_join answer false (Witness::chain, task uids). Cold path
  /// only; the chain is found by BFS under the verifier lock.
  Witness explain_join(std::uint64_t waiter_uid,
                       std::uint64_t target_uid) const;

  /// Rejection provenance for an await: OwpOrphan when the promise is
  /// orphaned, else the chain owner(p) ⇝ waiter that made permits_await
  /// reject. Witness::target is the promise uid (on_promise set).
  Witness explain_await(std::uint64_t waiter_uid, const PromiseNode* p) const;

  /// The exit hook: sets `exited`, orphans every unfulfilled promise `uid`
  /// still owns and prunes the history that became inert. Returns the
  /// orphaned promises' uids (ownership violations: the owner terminated
  /// without fulfilling or transferring). Before the first promise exists
  /// it only sets the flag and takes no lock.
  std::vector<std::uint64_t> on_task_exit(std::uint64_t uid, ExitFlag& exited);

  /// Releases a promise's policy state when its last handle dies.
  void release(PromiseNode* p);

  std::size_t bytes_in_use() const { return alloc_.live_bytes(); }
  std::size_t peak_bytes() const { return alloc_.peak_bytes(); }

  /// Governance hooks mirroring Verifier::state_bytes()/state_nodes(): live
  /// promise nodes plus history nodes and edges.
  std::size_t state_bytes() const { return alloc_.live_bytes(); }
  std::size_t state_nodes() const { return alloc_.live_nodes(); }

  std::string_view name() const { return to_string(PromisePolicy::OWP); }

 private:
  // One interned task of H. Edge lists hold slots into nodes_.
  struct HistoryNode {
    std::uint64_t uid = 0;
    std::vector<std::uint32_t> out;  // obligation edges uid → ...
    std::vector<std::uint32_t> in;   // the same edges, reversed
    bool exited = false;             // uid's exit hook has run
  };
  // Per-slot search state, stamped with the epoch of the search that set it.
  struct Marks {
    std::uint32_t fwd = 0;     // reached from the source side
    std::uint32_t bwd = 0;     // reached from the target side
    std::uint32_t parent = 0;  // chain_locked's BFS parent (valid if fwd)
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // Pre: mu_ held (for every *_locked member below).
  // True iff `from` reaches `to` in H (reflexively).
  bool reaches_locked(std::uint64_t from, std::uint64_t to) const;
  // Shortest path from ⇝ to over H, both ends included ([from] when from ==
  // to); empty when unreachable.
  std::vector<std::uint64_t> chain_locked(std::uint64_t from,
                                          std::uint64_t to) const;
  // Expands one BFS level of `frontier` along `edges`, stamping `mine`;
  // true as soon as it touches a slot stamped `theirs` in this epoch.
  bool expand_locked(std::vector<std::uint32_t>& frontier,
                     std::vector<std::uint32_t> HistoryNode::*edges,
                     std::uint32_t Marks::*mine,
                     std::uint32_t Marks::*theirs) const;
  std::uint32_t next_epoch_locked() const;
  std::uint32_t slot_locked(std::uint64_t uid) const;
  std::uint32_t intern_locked(std::uint64_t uid);
  void add_edge_locked(std::uint64_t from, std::uint64_t to);
  // Removes the history that became inert when slot `s` exited.
  void prune_locked(std::uint32_t s);

  static constexpr std::size_t node_bytes() { return sizeof(PromiseNode); }
  static constexpr std::size_t history_node_bytes() {
    return sizeof(HistoryNode) + sizeof(Marks);
  }
  static constexpr std::size_t edge_bytes() {
    return 2 * sizeof(std::uint32_t);  // one out-entry, one in-entry
  }

  std::atomic<bool> active_{false};

  mutable obs::ProfiledMutex mu_{"owp.history"};
  // H, guarded by mu_: the node table, its free slots and the uid index.
  std::vector<HistoryNode> nodes_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_;
  // Search state, guarded by mu_. Written by const queries: marks and
  // frontiers are scratch, reused so that no query allocates.
  mutable std::vector<Marks> marks_;
  mutable std::uint32_t epoch_ = 0;
  mutable std::vector<std::uint32_t> frontier_a_, frontier_b_, scratch_;
  // Unfulfilled promises each live task still owns.    guarded by mu_
  std::unordered_map<std::uint64_t, std::unordered_set<PromiseNode*>> owned_;

  PolicyAllocator alloc_;
};

/// Factory mirroring make_verifier(): nullptr for PromisePolicy::Unverified.
std::unique_ptr<OwpVerifier> make_ownership_verifier(PromisePolicy p);

}  // namespace tj::core
