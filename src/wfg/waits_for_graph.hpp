#pragma once
// Waits-for graph with on-demand cycle detection. Plays the role Armus plays
// in the paper's evaluation (Sec. 6): when a conservative policy flags a join,
// the graph decides precisely whether blocking would truly deadlock.
//
// Every *blocking* join registers a wait edge here (waiter → target); a task
// waits on at most one target at a time, so the graph is functional (at most
// one out-edge per node) and a cycle check is a simple chain walk.
//
// Soundness note (an explicit fix over a naive fallback): a cycle can be
// closed by a *policy-approved* edge if some policy-rejected ("probation")
// edge is already present in the graph. TJ/KJ soundness only rules out
// all-approved cycles. We therefore check every insertion for cycles whenever
// at least one probation edge is live; when no probation edge exists,
// insertions are unchecked O(1). Deadlock-free programs that never trip the
// policy thus pay no cycle-detection cost, matching the paper's fast path.
//
// Promises add a second edge class: a persistent *owner edge* from a promise
// node to the task currently obligated to fulfill it (Voss & Sarkar's
// ownership model). Owner edges make mixed future/promise cycles visible to
// the chain walk (waiter → promise → owner → ...), so the graph remains the
// single source of truth for "would blocking deadlock". TJ's soundness
// theorem covers futures only, so while any owner edge is live every
// insertion is cycle-checked, exactly as with probation edges; futures-only
// programs keep the unchecked fast path. Promise nodes share the NodeId
// space via a reserved high bit (see promise_node_id).
//
// Fast and slow modes. Edges live in kShards shards keyed by a hash of the
// waiter, each a map plus a one-word busy flag, so a walk finds each edge in
// one lookup. The graph is in *fast mode* while no probation or owner edge
// is live and no locked operation runs; `slow_` is zero exactly then. It is
// written only under the graph lock `mu_`.
//   - Fast side (add_wait, add_unchecked_wait, remove_wait): if `slow_` is
//     nonzero, take the locked path. Otherwise set the waiter's shard flag
//     (seq_cst exchange), re-read `slow_` (seq_cst), and if it is still zero
//     mutate the shard map and clear the flag (release). If it is not,
//     clear the flag and take the locked path.
//   - Slow side (every other operation but the two kind counts, which read
//     only what `mu_` guards, and a fast one that fell back):
//     take `mu_`; if `slow_` is zero, store a nonzero value (seq_cst) and
//     wait, by loads only, until no shard flag is set. The holder now owns
//     every map. On the way out it publishes `slow_` = live probation +
//     owner edges, after its last map write (release).
// The flag store / `slow_` load on one side and the `slow_` store / flag
// load on the other are a Dekker pair: in the seq_cst order either the fast
// side sees `slow_` nonzero and goes to the lock, or the slow side sees the
// flag set and waits for the release that publishes the fast edge. So a
// walk can never miss an approved edge, and no racing pair of inserts can
// both be Added across a cycle. While slow edges are live `slow_` stays
// nonzero, so a locked operation shuts the fast path with no drain.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/contention.hpp"

namespace tj::wfg {

using NodeId = std::uint64_t;

/// Maps a promise uid into the node-id space shared with task uids.
constexpr NodeId promise_node_id(std::uint64_t promise_uid) {
  return promise_uid | (NodeId{1} << 63);
}

/// True when a node id names a promise rather than a task.
constexpr bool is_promise_node(NodeId id) {
  return (id & (NodeId{1} << 63)) != 0;
}

/// The promise uid a promise node id encodes.
constexpr std::uint64_t promise_uid_of(NodeId id) {
  return id & ~(NodeId{1} << 63);
}

/// Result of attempting to register a wait edge.
enum class WaitVerdict : std::uint8_t {
  Added,          ///< edge registered; safe to block
  WouldDeadlock,  ///< edge would close a cycle; not registered
};

class WaitsForGraph {
 public:
  enum class EdgeKind : std::uint8_t { Approved, Probation, Owner };

  /// One edge of the edges() snapshot (live-introspection dump).
  struct EdgeView {
    NodeId from;
    NodeId to;
    EdgeKind kind;
  };

  WaitsForGraph() = default;
  WaitsForGraph(const WaitsForGraph&) = delete;
  WaitsForGraph& operator=(const WaitsForGraph&) = delete;

  // On every add_* method, `cycle` (when non-null) receives the concrete
  // cycle a WouldDeadlock verdict found — the node sequence waiter → target
  // → … back around, excluding the closing repeat of waiter — captured
  // atomically under the graph lock. Untouched on Added (cold path only).

  /// Registers waiter → target for a policy-approved join. Checks for a cycle
  /// only if probation or owner edges are live, and takes no shared lock in
  /// fast mode (see header comment).
  WaitVerdict add_wait(NodeId waiter, NodeId target,
                       std::vector<NodeId>* cycle = nullptr);

  /// Registers waiter → target for a policy-rejected join; always cycle-checks
  /// and marks the edge as probation while it lasts.
  WaitVerdict add_probation_wait(NodeId waiter, NodeId target,
                                 std::vector<NodeId>* cycle = nullptr);

  /// Unconditionally cycle-checks and registers (the Armus-only baseline,
  /// where every join is verified by cycle detection).
  WaitVerdict add_checked_wait(NodeId waiter, NodeId target,
                               std::vector<NodeId>* cycle = nullptr);

  /// Registers waiter → target with NO cycle check whatsoever — the
  /// optimistic (async-detection) gate mode, where insertion must stay O(1)
  /// and a background detector is responsible for finding the cycles this
  /// may create. The graph therefore tolerates live cycles: every other
  /// entry point bounds its chain walks, and find_all_cycles() is the
  /// authoritative ground-truth scan the detector confirms against.
  /// Lock-free in fast mode, like add_wait.
  void add_unchecked_wait(NodeId waiter, NodeId target);

  /// Removes the waiter's edge once its join completed (or was aborted).
  /// Lock-free in fast mode.
  void remove_wait(NodeId waiter);

  /// Registers the persistent owner edge promise → owner for a freshly made
  /// promise (cannot close a cycle: the promise node has no in-edges yet).
  void add_owner_edge(NodeId promise, NodeId owner);

  /// Re-points the owner edge at a new owner (ownership transfer). Cycle-
  /// checked: transferring a promise to a task that (transitively) waits on
  /// it would deadlock that task; on WouldDeadlock the edge is unchanged.
  WaitVerdict retarget_owner_edge(NodeId promise, NodeId new_owner,
                                  std::vector<NodeId>* cycle = nullptr);

  /// Drops the owner edge once the promise is fulfilled (or orphaned).
  void remove_owner_edge(NodeId promise);

  /// True iff waiter currently has a registered edge.
  bool is_waiting(NodeId waiter) const;

  std::size_t edge_count() const;
  std::size_t probation_count() const;
  std::size_t owner_edge_count() const;

  /// Total cycle checks performed (for evaluation counters). Atomic so the
  /// flight recorder can sample it before/after a scan without taking mu_.
  std::uint64_t cycle_checks() const {
    return cycle_checks_.load(std::memory_order_relaxed);
  }

  /// The wait chain starting at `from` (follows out-edges until none).
  std::vector<NodeId> chain_from(NodeId from) const;

  /// A consistent snapshot of every live edge (live introspection / verdict
  /// witnesses). Takes the graph lock; not for hot paths.
  std::vector<EdgeView> edges() const;

  /// Scans the whole graph for cycles among the currently blocked tasks —
  /// the *detection* flavour of the deadlock problem (Sec. 7.1 category 2),
  /// usable as a diagnostic sweep. Since each task waits on at most one
  /// target, cycles are disjoint; every cycle is returned once.
  std::vector<std::vector<NodeId>> find_all_cycles() const;

 private:
  struct Edge {
    NodeId target;
    EdgeKind kind;
  };
  using EdgeMap = std::unordered_map<NodeId, Edge>;

  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    // Profiled ("wfg.shard"): contended entries are fast operations whose
    // waiters share a shard, and their spin time.
    obs::ProfiledSpinFlag busy{"wfg.shard"};
    EdgeMap edges;  // fast side: under `busy`; slow side: under Exclusive
  };

  // The graph lock with the fast path shut (see header comment): while one
  // lives, its holder owns every shard map.
  class Exclusive;

  static std::size_t shard_index(NodeId n) {
    return static_cast<std::size_t>((n * 0x9E3779B97F4A7C15ull) >> 60);
  }
  EdgeMap& map_for(NodeId n) { return shards_[shard_index(n)].edges; }
  const EdgeMap& map_for(NodeId n) const {
    return shards_[shard_index(n)].edges;
  }

  // Runs `mutate` on the waiter's shard map without the graph lock when the
  // graph is in fast mode; false (nothing done) when the caller must take
  // the locked path instead.
  template <typename F>
  bool try_fast(NodeId waiter, F&& mutate);

  // Pre: Exclusive held, for all helpers below.
  const Edge* find_edge(NodeId from) const;
  std::size_t edge_count_locked() const;
  // Registers (or replaces) from's out-edge, keeping the kind counts exact.
  void put_edge(NodeId from, Edge e);
  void erase_edge(NodeId from);

  // True iff target ⇝ waiter through current edges; when so and `cycle` is
  // non-null, records [waiter, target, …] up to (excluding) the closing
  // repeat of waiter.
  bool closes_cycle(NodeId waiter, NodeId target,
                    std::vector<NodeId>* cycle = nullptr) const;

  // Profiled ("wfg.graph"): held by every checked operation, every walk and
  // scan, and by fast operations that found the graph in slow mode.
  mutable obs::ProfiledMutex mu_{"wfg.graph"};
  std::array<Shard, kShards> shards_;
  std::size_t probation_ = 0;               // guarded by mu_
  std::size_t owner_edges_ = 0;             // guarded by mu_
  // Zero iff fast mode; written only under mu_ (see header comment).
  mutable std::atomic<std::size_t> slow_{0};
  std::atomic<std::uint64_t> cycle_checks_{0};  // relaxed; written under mu_
};

}  // namespace tj::wfg
