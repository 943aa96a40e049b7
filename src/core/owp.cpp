#include "core/owp.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

namespace tj::core {

OwpVerifier::~OwpVerifier() = default;

std::uint32_t OwpVerifier::next_epoch_locked() const {
  if (++epoch_ == 0) {
    // Wrapped: stale stamps could alias the new epoch. Clear them all once.
    std::fill(marks_.begin(), marks_.end(), Marks{});
    epoch_ = 1;
  }
  return epoch_;
}

std::uint32_t OwpVerifier::slot_locked(std::uint64_t uid) const {
  const auto it = slot_of_.find(uid);
  return it == slot_of_.end() ? kNoSlot : it->second;
}

std::uint32_t OwpVerifier::intern_locked(std::uint64_t uid) {
  const auto [it, fresh] = slot_of_.try_emplace(uid, kNoSlot);
  if (!fresh) return it->second;
  std::uint32_t s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    marks_.emplace_back();
  }
  nodes_[s].uid = uid;
  nodes_[s].exited = false;
  it->second = s;
  alloc_.add(history_node_bytes());
  alloc_.note_node_created();
  return s;
}

void OwpVerifier::add_edge_locked(std::uint64_t from, std::uint64_t to) {
  if (from == to) return;  // H is reflexive already
  const std::uint32_t f = intern_locked(from);
  const std::uint32_t t = intern_locked(to);
  // Deduplicate through whichever endpoint has the shorter list.
  const std::vector<std::uint32_t>& out = nodes_[f].out;
  const std::vector<std::uint32_t>& in = nodes_[t].in;
  const bool dup = out.size() <= in.size()
                       ? std::find(out.begin(), out.end(), t) != out.end()
                       : std::find(in.begin(), in.end(), f) != in.end();
  if (dup) return;
  nodes_[f].out.push_back(t);
  nodes_[t].in.push_back(f);
  alloc_.add(edge_bytes());
}

bool OwpVerifier::expand_locked(std::vector<std::uint32_t>& frontier,
                                std::vector<std::uint32_t> HistoryNode::*edges,
                                std::uint32_t Marks::*mine,
                                std::uint32_t Marks::*theirs) const {
  scratch_.clear();
  for (const std::uint32_t cur : frontier) {
    for (const std::uint32_t next : nodes_[cur].*edges) {
      Marks& m = marks_[next];
      if (m.*theirs == epoch_) return true;
      if (m.*mine != epoch_) {
        m.*mine = epoch_;
        scratch_.push_back(next);
      }
    }
  }
  frontier.swap(scratch_);
  return false;
}

bool OwpVerifier::reaches_locked(std::uint64_t from, std::uint64_t to) const {
  if (from == to) return true;
  const std::uint32_t f = slot_locked(from);
  const std::uint32_t t = slot_locked(to);
  if (f == kNoSlot || t == kNoSlot) return false;
  const std::uint32_t e = next_epoch_locked();
  marks_[f].fwd = e;
  marks_[t].bwd = e;
  frontier_a_.assign(1, f);
  frontier_b_.assign(1, t);
  // Meet in the middle, always growing the smaller side: a fresh waiter has
  // no in-edges and a just-joined task leads straight back to its joiner,
  // so the common handoff shapes answer after one short level.
  while (!frontier_a_.empty() && !frontier_b_.empty()) {
    const bool met =
        frontier_a_.size() <= frontier_b_.size()
            ? expand_locked(frontier_a_, &HistoryNode::out, &Marks::fwd,
                            &Marks::bwd)
            : expand_locked(frontier_b_, &HistoryNode::in, &Marks::bwd,
                            &Marks::fwd);
    if (met) return true;
  }
  return false;
}

std::vector<std::uint64_t> OwpVerifier::chain_locked(std::uint64_t from,
                                                     std::uint64_t to) const {
  if (from == to) return {from};
  const std::uint32_t f = slot_locked(from);
  const std::uint32_t t = slot_locked(to);
  if (f == kNoSlot || t == kNoSlot) return {};
  const std::uint32_t e = next_epoch_locked();
  marks_[f].fwd = e;
  frontier_a_.assign(1, f);
  while (!frontier_a_.empty()) {
    scratch_.clear();
    for (const std::uint32_t cur : frontier_a_) {
      for (const std::uint32_t succ : nodes_[cur].out) {
        if (marks_[succ].fwd == e) continue;
        marks_[succ].fwd = e;
        marks_[succ].parent = cur;
        if (succ == t) {
          std::vector<std::uint64_t> path{to};
          for (std::uint32_t n = cur; n != f; n = marks_[n].parent) {
            path.push_back(nodes_[n].uid);
          }
          path.push_back(from);
          std::reverse(path.begin(), path.end());
          return path;
        }
        scratch_.push_back(succ);
      }
    }
    frontier_a_.swap(scratch_);
  }
  return {};
}

void OwpVerifier::prune_locked(std::uint32_t s) {
  // Invariant on entry: every exited node other than s reaches a live task.
  // s's exit can only make inert the exited nodes that reach s through
  // exited nodes alone — collect them as A (stamped bwd).
  const std::uint32_t e = next_epoch_locked();
  std::vector<std::uint32_t>& a = frontier_a_;
  a.assign(1, s);
  marks_[s].bwd = e;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (const std::uint32_t p : nodes_[a[i]].in) {
      if (nodes_[p].exited && marks_[p].bwd != e) {
        marks_[p].bwd = e;
        a.push_back(p);
      }
    }
  }
  // A node of A stays non-inert iff it reaches an edge leaving A: the far end
  // is live, or exited and (by the invariant) reaching a live task. Stamp
  // those fwd, then everything in A that reaches them.
  std::vector<std::uint32_t>& keep = frontier_b_;
  keep.clear();
  for (const std::uint32_t x : a) {
    for (const std::uint32_t y : nodes_[x].out) {
      if (marks_[y].bwd != e) {
        marks_[x].fwd = e;
        keep.push_back(x);
        break;
      }
    }
  }
  for (std::size_t i = 0; i < keep.size(); ++i) {
    for (const std::uint32_t p : nodes_[keep[i]].in) {
      if (marks_[p].bwd == e && marks_[p].fwd != e) {
        marks_[p].fwd = e;
        keep.push_back(p);
      }
    }
  }
  if (keep.size() == a.size()) return;
  std::erase_if(a, [&](std::uint32_t x) { return marks_[x].fwd == e; });

  // Unlink the inert nodes (stamped bwd in a fresh epoch) from the survivors
  // they touch, each survivor compacted once, order preserved.
  const std::uint32_t dead = next_epoch_locked();
  for (const std::uint32_t x : a) marks_[x].bwd = dead;
  std::vector<std::uint32_t>& touched = keep;
  touched.clear();
  for (const std::uint32_t x : a) {
    for (const auto* list : {&nodes_[x].out, &nodes_[x].in}) {
      for (const std::uint32_t y : *list) {
        if (marks_[y].bwd != dead && marks_[y].fwd != dead) {
          marks_[y].fwd = dead;
          touched.push_back(y);
        }
      }
    }
  }
  const auto is_dead = [&](std::uint32_t y) { return marks_[y].bwd == dead; };
  for (const std::uint32_t y : touched) {
    alloc_.sub(std::erase_if(nodes_[y].out, is_dead) * edge_bytes());
    std::erase_if(nodes_[y].in, is_dead);
  }
  for (const std::uint32_t x : a) {
    HistoryNode& n = nodes_[x];
    alloc_.sub(n.out.size() * edge_bytes() + history_node_bytes());
    alloc_.note_node_released();
    n.out.clear();  // capacity kept: the slot is reused allocation-free
    n.in.clear();
    slot_of_.erase(n.uid);
    free_slots_.push_back(x);
  }
}

PromiseNode* OwpVerifier::on_make(std::uint64_t owner_uid,
                                  std::uint64_t promise_uid) {
  // seq_cst: pairs with on_task_exit's flag store / active_ load, so a task
  // exit that skipped the lock is visible to every later transfer check.
  active_.store(true, std::memory_order_seq_cst);
  auto* node = new PromiseNode(promise_uid, owner_uid);
  alloc_.add(node_bytes());
  alloc_.note_node_created();
  std::scoped_lock lock(mu_);
  owned_[owner_uid].insert(node);
  return node;
}

TransferResult OwpVerifier::check_transfer(const PromiseNode* p,
                                           std::uint64_t from_uid,
                                           const ExitFlag& to_exited) const {
  std::scoped_lock lock(mu_);
  switch (p->state_) {
    case PromiseNode::State::Fulfilled:
      return TransferResult::Fulfilled;
    case PromiseNode::State::Orphaned:
      return TransferResult::Orphaned;
    case PromiseNode::State::Unfulfilled:
      break;
  }
  if (p->owner_ != from_uid) return TransferResult::NotOwner;
  if (to_exited.load(std::memory_order_seq_cst)) {
    return TransferResult::TargetDead;
  }
  return TransferResult::Ok;
}

bool OwpVerifier::commit_transfer(PromiseNode* p, std::uint64_t to_uid,
                                  const ExitFlag& to_exited) {
  std::scoped_lock lock(mu_);
  if (p->state_ != PromiseNode::State::Unfulfilled) return false;
  const auto it = owned_.find(p->owner_);
  if (it != owned_.end()) it->second.erase(p);
  p->owner_ = to_uid;
  if (to_exited.load(std::memory_order_seq_cst)) {
    // The receiver terminated between check and commit: nobody is left to
    // fulfill the promise — orphan it now rather than losing it. Its exit
    // hook either already ran or will find nothing owned.
    p->state_ = PromiseNode::State::Orphaned;
    return true;
  }
  owned_[to_uid].insert(p);
  return false;
}

FulfillResult OwpVerifier::check_fulfill(const PromiseNode* p,
                                         std::uint64_t by_uid) const {
  std::scoped_lock lock(mu_);
  if (p->state_ != PromiseNode::State::Unfulfilled) {
    return FulfillResult::Settled;
  }
  return p->owner_ == by_uid ? FulfillResult::Ok : FulfillResult::NotOwner;
}

void OwpVerifier::commit_fulfill(PromiseNode* p) {
  std::scoped_lock lock(mu_);
  if (p->state_ != PromiseNode::State::Unfulfilled) return;
  const auto it = owned_.find(p->owner_);
  if (it != owned_.end()) it->second.erase(p);
  p->state_ = PromiseNode::State::Fulfilled;
}

AwaitVerdict OwpVerifier::permits_await(std::uint64_t waiter_uid,
                                        const PromiseNode* p) const {
  std::scoped_lock lock(mu_);
  switch (p->state_) {
    case PromiseNode::State::Fulfilled:
      return AwaitVerdict::Allow;  // never blocks
    case PromiseNode::State::Orphaned:
      return AwaitVerdict::RejectOrphaned;
    case PromiseNode::State::Unfulfilled:
      break;
  }
  // Blocking on a promise whose obligation already reaches the waiter
  // (including owning it yourself) could self-deadlock: reject and let the
  // precise fallback rule.
  return reaches_locked(p->owner_, waiter_uid) ? AwaitVerdict::RejectCycle
                                               : AwaitVerdict::Allow;
}

void OwpVerifier::on_await(std::uint64_t waiter_uid, const PromiseNode* p) {
  std::scoped_lock lock(mu_);
  if (p->state_ != PromiseNode::State::Unfulfilled) return;
  add_edge_locked(waiter_uid, p->owner_);
}

bool OwpVerifier::permits_join(std::uint64_t waiter_uid,
                               std::uint64_t target_uid) const {
  std::scoped_lock lock(mu_);
  return !reaches_locked(target_uid, waiter_uid);
}

void OwpVerifier::on_join(std::uint64_t waiter_uid, std::uint64_t target_uid,
                          bool target_exited) {
  std::scoped_lock lock(mu_);
  // An exited target without history reaches no live task: the edge would
  // be pruned on arrival.
  if (target_exited && slot_locked(target_uid) == kNoSlot) return;
  add_edge_locked(waiter_uid, target_uid);
}

Witness OwpVerifier::explain_join(std::uint64_t waiter_uid,
                                  std::uint64_t target_uid) const {
  Witness w;
  w.kind = WitnessKind::OwpChain;
  w.policy = PolicyChoice::None;  // OWP is the promise policy, not a join one
  w.waiter = waiter_uid;
  w.target = target_uid;
  std::scoped_lock lock(mu_);
  w.chain = chain_locked(target_uid, waiter_uid);
  return w;
}

Witness OwpVerifier::explain_await(std::uint64_t waiter_uid,
                                   const PromiseNode* p) const {
  Witness w;
  w.policy = PolicyChoice::None;
  w.on_promise = true;
  w.waiter = waiter_uid;
  w.target = p->uid_;
  std::scoped_lock lock(mu_);
  if (p->state_ == PromiseNode::State::Orphaned) {
    w.kind = WitnessKind::OwpOrphan;
    return w;
  }
  w.kind = WitnessKind::OwpChain;
  w.chain = chain_locked(p->owner_, waiter_uid);
  return w;
}

std::vector<std::uint64_t> OwpVerifier::on_task_exit(std::uint64_t uid,
                                                     ExitFlag& exited) {
  // Store/load pair against on_make's seq_cst store of active_: if this load
  // finds no promise yet, every transfer (which follows some make) sees the
  // flag — so no promise can land on this task unnoticed, and a
  // futures-only program never takes the lock here.
  exited.store(true, std::memory_order_seq_cst);
  if (!active_.load(std::memory_order_seq_cst)) return {};
  std::scoped_lock lock(mu_);
  std::vector<std::uint64_t> orphans;
  if (const auto it = owned_.find(uid); it != owned_.end()) {
    orphans.reserve(it->second.size());
    for (PromiseNode* p : it->second) {
      p->state_ = PromiseNode::State::Orphaned;
      orphans.push_back(p->uid_);
    }
    owned_.erase(it);
  }
  if (const std::uint32_t s = slot_locked(uid); s != kNoSlot) {
    nodes_[s].exited = true;
    prune_locked(s);
  }
  return orphans;
}

void OwpVerifier::release(PromiseNode* p) {
  if (p == nullptr) return;
  {
    std::scoped_lock lock(mu_);
    if (p->state_ == PromiseNode::State::Unfulfilled) {
      const auto it = owned_.find(p->owner_);
      if (it != owned_.end()) it->second.erase(p);
    }
  }
  alloc_.sub(node_bytes());
  alloc_.note_node_released();
  delete p;
}

}  // namespace tj::core
