#include "wfg/waits_for_graph.hpp"

#include <algorithm>

namespace tj::wfg {

class WaitsForGraph::Exclusive {
 public:
  explicit Exclusive(const WaitsForGraph& g) : g_(g), lock_(g.mu_) {
    // Nonzero already: it has been since before the last drain (it changes
    // only under mu_), so no fast operation can be past its re-check.
    if (g_.slow_.load(std::memory_order_relaxed) != 0) return;
    g_.slow_.store(1, std::memory_order_seq_cst);
    // A fast operation that set its flag before the store above may still
    // read zero and mutate; wait for its release. Any later one sees
    // nonzero.
    for (const Shard& s : g_.shards_) {
      obs::SpinWait spin;
      while (s.busy.held()) spin.once();
    }
  }

  // Publishes the mode for the edges now live, after the holder's last map
  // write (the seq_cst store releases it to the next fast operation).
  ~Exclusive() {
    const std::size_t live = g_.probation_ + g_.owner_edges_;
    if (g_.slow_.load(std::memory_order_relaxed) != live) {
      g_.slow_.store(live, std::memory_order_seq_cst);
    }
  }

  Exclusive(const Exclusive&) = delete;
  Exclusive& operator=(const Exclusive&) = delete;

 private:
  const WaitsForGraph& g_;
  std::scoped_lock<obs::ProfiledMutex> lock_;
};

template <typename F>
bool WaitsForGraph::try_fast(NodeId waiter, F&& mutate) {
  if (slow_.load(std::memory_order_relaxed) != 0) return false;
  Shard& s = shards_[shard_index(waiter)];
  std::scoped_lock flag(s.busy);
  // The re-check pairs with Exclusive's store of `slow_` (header comment):
  // with the flag visibly set, a zero here means no walk is running or can
  // start before the flag is cleared. In fast mode every live edge is
  // Approved, so the mutation never changes a kind count.
  if (slow_.load(std::memory_order_seq_cst) != 0) return false;
  mutate(s.edges);
  return true;
}

const WaitsForGraph::Edge* WaitsForGraph::find_edge(NodeId from) const {
  const EdgeMap& m = map_for(from);
  const auto it = m.find(from);
  return it == m.end() ? nullptr : &it->second;
}

std::size_t WaitsForGraph::edge_count_locked() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.edges.size();
  return n;
}

void WaitsForGraph::put_edge(NodeId from, Edge e) {
  const auto [it, fresh] = map_for(from).try_emplace(from, e);
  if (!fresh) {
    if (it->second.kind == EdgeKind::Probation) --probation_;
    if (it->second.kind == EdgeKind::Owner) --owner_edges_;
    it->second = e;
  }
  if (e.kind == EdgeKind::Probation) ++probation_;
  if (e.kind == EdgeKind::Owner) ++owner_edges_;
}

void WaitsForGraph::erase_edge(NodeId from) {
  EdgeMap& m = map_for(from);
  const auto it = m.find(from);
  if (it == m.end()) return;
  if (it->second.kind == EdgeKind::Probation) --probation_;
  if (it->second.kind == EdgeKind::Owner) --owner_edges_;
  m.erase(it);
}

bool WaitsForGraph::closes_cycle(NodeId waiter, NodeId target,
                                 std::vector<NodeId>* cycle) const {
  // Functional graph: follow the unique out-edge chain from `target`; the
  // new edge waiter → target closes a cycle iff the chain reaches `waiter`.
  // Once the optimistic (unchecked) insert mode exists the graph may already
  // hold a cycle NOT involving `waiter`, and a naive walk would orbit it
  // forever. Brent's method catches that without counting edges (a count
  // would read every shard): `mark` is re-seated at each power-of-two step,
  // and meeting it again means the walk is going round a foreign cycle.
  NodeId cur = target;
  NodeId mark = target;
  std::size_t power = 1;
  std::size_t steps = 0;
  while (cur != waiter) {
    const Edge* e = find_edge(cur);
    if (e == nullptr) return false;
    cur = e->target;
    if (cur == mark) return false;
    if (++steps == power) {
      mark = cur;
      power *= 2;
      steps = 0;
    }
  }
  if (cycle != nullptr) {
    cycle->clear();
    cycle->push_back(waiter);
    for (NodeId n = target; n != waiter; n = find_edge(n)->target) {
      cycle->push_back(n);
    }
  }
  return true;
}

WaitVerdict WaitsForGraph::add_wait(NodeId waiter, NodeId target,
                                    std::vector<NodeId>* cycle) {
  if (try_fast(waiter, [&](EdgeMap& m) {
        m.insert_or_assign(waiter, Edge{target, EdgeKind::Approved});
      })) {
    return WaitVerdict::Added;
  }
  Exclusive x(*this);
  if (probation_ != 0 || owner_edges_ != 0) {
    cycle_checks_.fetch_add(1, std::memory_order_relaxed);
    if (closes_cycle(waiter, target, cycle)) {
      return WaitVerdict::WouldDeadlock;
    }
  }
  put_edge(waiter, Edge{target, EdgeKind::Approved});
  return WaitVerdict::Added;
}

WaitVerdict WaitsForGraph::add_probation_wait(NodeId waiter, NodeId target,
                                              std::vector<NodeId>* cycle) {
  Exclusive x(*this);
  cycle_checks_.fetch_add(1, std::memory_order_relaxed);
  if (closes_cycle(waiter, target, cycle)) return WaitVerdict::WouldDeadlock;
  put_edge(waiter, Edge{target, EdgeKind::Probation});
  return WaitVerdict::Added;
}

WaitVerdict WaitsForGraph::add_checked_wait(NodeId waiter, NodeId target,
                                            std::vector<NodeId>* cycle) {
  Exclusive x(*this);
  cycle_checks_.fetch_add(1, std::memory_order_relaxed);
  if (closes_cycle(waiter, target, cycle)) return WaitVerdict::WouldDeadlock;
  put_edge(waiter, Edge{target, EdgeKind::Approved});
  return WaitVerdict::Added;
}

void WaitsForGraph::add_unchecked_wait(NodeId waiter, NodeId target) {
  // Deliberately no closes_cycle: the async gate mode trades the synchronous
  // scan for bounded-latency recovery by the background detector.
  if (try_fast(waiter, [&](EdgeMap& m) {
        m.insert_or_assign(waiter, Edge{target, EdgeKind::Approved});
      })) {
    return;
  }
  Exclusive x(*this);
  put_edge(waiter, Edge{target, EdgeKind::Approved});
}

void WaitsForGraph::remove_wait(NodeId waiter) {
  if (try_fast(waiter, [&](EdgeMap& m) { m.erase(waiter); })) return;
  Exclusive x(*this);
  erase_edge(waiter);
}

void WaitsForGraph::add_owner_edge(NodeId promise, NodeId owner) {
  Exclusive x(*this);
  put_edge(promise, Edge{owner, EdgeKind::Owner});
}

WaitVerdict WaitsForGraph::retarget_owner_edge(NodeId promise,
                                               NodeId new_owner,
                                               std::vector<NodeId>* cycle) {
  Exclusive x(*this);
  cycle_checks_.fetch_add(1, std::memory_order_relaxed);
  // The chain from new_owner reaching the promise node means new_owner
  // (transitively) waits on this very promise: re-pointing would deadlock it.
  if (closes_cycle(promise, new_owner, cycle)) {
    return WaitVerdict::WouldDeadlock;
  }
  put_edge(promise, Edge{new_owner, EdgeKind::Owner});
  return WaitVerdict::Added;
}

void WaitsForGraph::remove_owner_edge(NodeId promise) {
  Exclusive x(*this);
  erase_edge(promise);
}

bool WaitsForGraph::is_waiting(NodeId waiter) const {
  Exclusive x(*this);
  return find_edge(waiter) != nullptr;
}

std::size_t WaitsForGraph::edge_count() const {
  Exclusive x(*this);
  return edge_count_locked();
}

std::size_t WaitsForGraph::probation_count() const {
  std::scoped_lock lock(mu_);
  return probation_;
}

std::size_t WaitsForGraph::owner_edge_count() const {
  std::scoped_lock lock(mu_);
  return owner_edges_;
}

std::vector<std::vector<NodeId>> WaitsForGraph::find_all_cycles() const {
  Exclusive x(*this);
  std::vector<std::vector<NodeId>> cycles;
  // Functional graph: colour nodes by the walk that first reached them.
  // A walk that re-enters ITS OWN trail found a cycle; one that reaches a
  // previously coloured node merges into known territory.
  std::unordered_map<NodeId, std::size_t> colour;
  std::size_t walk = 0;
  for (const Shard& s : shards_) {
    for (const auto& [start, edge] : s.edges) {
      (void)edge;
      if (colour.contains(start)) continue;
      ++walk;
      std::vector<NodeId> trail;
      NodeId cur = start;
      while (true) {
        const auto seen = colour.find(cur);
        if (seen != colour.end()) {
          if (seen->second == walk) {
            // Re-entered this walk's trail: the cycle is the suffix from cur.
            const auto first = std::find(trail.begin(), trail.end(), cur);
            cycles.emplace_back(first, trail.end());
          }
          break;
        }
        colour[cur] = walk;
        trail.push_back(cur);
        const Edge* e = find_edge(cur);
        if (e == nullptr) break;
        cur = e->target;
      }
    }
  }
  return cycles;
}

std::vector<WaitsForGraph::EdgeView> WaitsForGraph::edges() const {
  Exclusive x(*this);
  std::vector<EdgeView> out;
  out.reserve(edge_count_locked());
  for (const Shard& s : shards_) {
    for (const auto& [from, edge] : s.edges) {
      out.push_back(EdgeView{from, edge.target, edge.kind});
    }
  }
  return out;
}

std::vector<NodeId> WaitsForGraph::chain_from(NodeId from) const {
  Exclusive x(*this);
  const std::size_t bound = edge_count_locked();
  std::vector<NodeId> out{from};
  NodeId cur = from;
  while (true) {
    const Edge* e = find_edge(cur);
    if (e == nullptr) break;
    cur = e->target;
    // Guard against concurrent-cycle display; cap at edge count.
    if (out.size() > bound + 1) break;
    out.push_back(cur);
  }
  return out;
}

}  // namespace tj::wfg
