#pragma once
// KJ-VC: the Known Joins policy (Cogumbreiro et al. 2017) implemented with
// vector clocks. Each task carries a clock indexed by task id whose component
// for task p counts how many of p's forks this task has observed. Task x
// knows task y iff clock_x[parent(y)] ≥ birth(y), where birth(y) is y's
// 1-based index among its parent's forks.
//
// Knowledge flows exactly along the KJ rules: the child receives a copy of
// the parent's clock taken *before* the parent's component is bumped for this
// fork (KJ-inherit — a task does not know itself), the bump itself encodes
// KJ-child, and a completed join merges the joinee's final clock into the
// joiner's (KJ-learn). Fork is O(n) (clock copy), join check O(1) plus the
// O(n) merge, total space O(n²) — the Table-1 bounds.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/verifier.hpp"
#include "obs/contention.hpp"

namespace tj::kj {

class KjVcVerifier final : public core::Verifier {
 public:
  core::PolicyNode* add_child(core::PolicyNode* parent) override;
  bool permits_join(const core::PolicyNode* joiner,
                    const core::PolicyNode* joinee) override;
  core::Witness explain(const core::PolicyNode* joiner,
                        const core::PolicyNode* joinee) override;
  void on_join_complete(core::PolicyNode* joiner,
                        const core::PolicyNode* joinee) override;
  void release(core::PolicyNode* node) override;
  core::PolicyChoice kind() const override {
    return core::PolicyChoice::KJ_VC;
  }

  struct Node final : core::PolicyNode {
    std::uint32_t id = 0;         // dense task id; immutable
    std::uint32_t parent_id = 0;  // immutable; meaningless for the root
    std::uint32_t birth = 0;      // 1-based fork index at the parent; 0 = root
    std::uint32_t forks = 0;      // forks performed; mutated by owner only
    std::vector<std::uint32_t> clock;  // mutated by owner only
    std::uint64_t gc_epoch = 0;   // last GC epoch this clock was compacted at
  };

  /// The knowledge query (exposed for tests): joiner ≺-knows joinee.
  static bool knows(const Node* joiner, const Node* joinee);

  // ---- Epoch GC of vector-clock components (memory-pressure response) ----
  //
  // A clock component p is *retired* once task p is dead and all of p's
  // children are dead: knows() only ever reads clock[parent(y)] for a live
  // joinee y, and a dead task forks no further children, so component p can
  // never be consulted again. Retirement bumps a global epoch; each node's
  // clock is compacted lazily on its owner thread's next mutation
  // (add_child as parent / on_join_complete as joiner) — clocks are owner-
  // mutated only, so no other thread may touch them. Compaction zeroes
  // retired components and truncates + shrinks trailing zeros, returning
  // capacity to the allocator accounting. GC bookkeeping is always
  // maintained; compaction itself runs only while gc is enabled (the
  // ResourceGovernor turns it on under memory pressure before considering a
  // policy downgrade).

  /// Enables/disables lazy clock compaction. Idempotent; thread-safe.
  void set_gc(bool enabled) {
    gc_active_.store(enabled, std::memory_order_relaxed);
  }
  bool gc_enabled() const {
    return gc_active_.load(std::memory_order_relaxed);
  }
  /// Number of per-node compactions performed (metrics hook).
  std::uint64_t compactions() const {
    return compactions_.load(std::memory_order_relaxed);
  }
  /// Number of retired clock components (tests/diagnostics).
  std::size_t retired_components() const;

 private:
  std::size_t node_bytes(const Node& n) const {
    return sizeof(Node) + n.clock.capacity() * sizeof(std::uint32_t);
  }

  // Per-id liveness used to decide retirement.  guarded by gc_mu_
  struct IdInfo {
    std::uint32_t live_children = 0;
    std::uint32_t parent_id = 0;
    bool has_parent = false;
    bool dead = false;
  };

  // Pre: gc_mu_ held. Marks `id` retired and bumps the epoch.
  void retire_locked(std::uint32_t id);
  // Compacts n's clock if the epoch moved since its last compaction.
  // Must run on n's owner thread.
  void maybe_compact(Node* n);

  std::atomic<std::uint32_t> next_id_{0};

  std::atomic<bool> gc_active_{false};
  std::atomic<std::uint64_t> gc_epoch_{0};
  std::atomic<std::uint64_t> compactions_{0};
  // Profiled ("kj-vc.gc"): every fork and every task release.
  mutable obs::ProfiledMutex gc_mu_{"kj-vc.gc"};
  std::vector<IdInfo> info_;        // indexed by id; guarded by gc_mu_
  std::vector<bool> retired_;       // indexed by id; guarded by gc_mu_
  std::size_t retired_count_ = 0;   // guarded by gc_mu_
};

}  // namespace tj::kj
