#pragma once
// Structured cancellation. The paper's case for *avoidance* over detection
// is that a rejected join faults in the joining task, "giving the program
// the chance to recover" — a CancellationScope is what makes that recovery
// tractable: when a task spawned under the scope fails (including with
// DeadlockAvoidedError / PolicyViolationError), the scope
//
//   * force-completes still-queued sibling tasks with a CancelledError that
//     carries the originating fault (their Futures fail fast at get()),
//   * flags running siblings so their next join/await/spawn checkpoint
//     faults with CancelledError instead of blocking,
//   * poisons promises owned by cancelled tasks (awaiters fault with the
//     cause instead of a bare orphan deadlock), and
//   * poisons barriers its tasks registered with, releasing blocked peers.
//
// The scope *owner* is not cancelled: its joins keep working so it can
// drain the cancelled unit (observing the fault where the child's error is
// rethrown), and it is the natural recovery point — catch, optionally
// retry with a corrected structure. Spawning is the exception: a cancelled
// scope accepts no new work, owner included.
//
// Scopes nest: tasks spawned under a nested scope are cancelled when either
// that scope or an enclosing one cancels. Every Runtime has an implicit
// root scope; Config::cancel_on_fault makes it cancel on any task failure.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/contention.hpp"

namespace tj::runtime {

class TaskBase;
class CheckedBarrier;
class Runtime;

namespace detail {

/// Shared cancellation state. Referenced by the RAII CancellationScope
/// handle, by every task spawned under it, and by child scopes — so it
/// outlives the handle if tasks are still draining.
class CancelState {
 public:
  /// `owner` is the task the scope was opened in (nullptr for a runtime's
  /// root scope): it is exempt from its *own* scope's cancellation at the
  /// join/await checkpoints, so it can drain member tasks and recover.
  CancelState(bool cancel_on_fault, std::shared_ptr<CancelState> parent,
              const TaskBase* owner = nullptr);

  /// True when this scope or any enclosing scope was cancelled.
  bool cancelled() const {
    for (const CancelState* s = this; s != nullptr; s = s->parent_.get()) {
      if (s->cancelled_.load(std::memory_order_acquire)) return true;
    }
    return false;
  }

  /// cancelled(), except scopes `task` itself opened do not count: the
  /// owner is the recovery point — its joins keep working after it (or a
  /// member fault) cancels the scope, so it can drain the cancelled unit
  /// instead of abandoning stack-held futures mid-flight. Enclosing scopes
  /// owned by other tasks still cancel it.
  bool cancelled_for(const TaskBase* task) const {
    for (const CancelState* s = this; s != nullptr; s = s->parent_.get()) {
      if (s->owner_ == task && task != nullptr) continue;
      if (s->cancelled_.load(std::memory_order_acquire)) return true;
    }
    return false;
  }

  /// The originating fault (this scope's, else the nearest cancelled
  /// ancestor's); nullptr when not cancelled or cancelled without a cause.
  std::exception_ptr cause() const;

  bool cancel_on_fault() const { return cancel_on_fault_; }

  /// Cancels the scope (idempotent): delivers cancellation to every tracked
  /// task, poisons tracked barriers, and recurses into child scopes.
  void cancel(std::exception_ptr cause);

  /// Reaction to a tracked task's uncaught failure (called from
  /// TaskBase::run): cancels iff cancel_on_fault.
  void on_task_fault(const std::exception_ptr& error);

  /// Registers a spawned task. Must be called after the task was submitted
  /// to the scheduler (cancellation force-completion pairs with submit's
  /// live-task accounting). Delivers cancellation immediately when the
  /// scope is already cancelled. Takes only the calling thread's stripe
  /// lock, never the scope-wide one: it runs on every spawn.
  void track_task(const std::shared_ptr<TaskBase>& t);

  /// Registers a nested scope for downward cancel propagation.
  void track_child(const std::shared_ptr<CancelState>& child);

  /// Registers a barrier some task of this scope registered with; poisoned
  /// on cancel so peers are never stranded.
  void track_barrier(const std::weak_ptr<CheckedBarrier>& b);

  /// Queued tasks this scope force-completed with CancelledError.
  std::uint64_t tasks_cancelled() const {
    return tasks_cancelled_.load(std::memory_order_relaxed);
  }

 private:
  const bool cancel_on_fault_;
  const std::shared_ptr<CancelState> parent_;
  const TaskBase* owner_ = nullptr;  // exempt at join/await checkpoints
  std::atomic<bool> cancelled_{false};
  std::atomic<std::uint64_t> tasks_cancelled_{0};

  // Tracked tasks, striped by spawning thread so concurrent spawns into one
  // scope do not share a lock. cancel() sets cancelled_ before it empties
  // the stripes, so a track_task that lands after a stripe was emptied sees
  // the flag in its post-insert check.
  static constexpr std::size_t kStripes = 8;
  struct alignas(64) Stripe {
    obs::ProfiledMutex mu{"runtime.cancel_scope"};
    std::vector<std::weak_ptr<TaskBase>> tasks;  // guarded by mu
  };
  std::array<Stripe, kStripes> stripes_;

  // Profiled ("runtime.cancel_state"): cold — cancel, child scopes and
  // barrier registration, never a plain spawn.
  mutable obs::ProfiledMutex mu_{"runtime.cancel_state"};
  std::exception_ptr cause_;                        // guarded by mu_
  std::vector<std::weak_ptr<CancelState>> children_;  // guarded by mu_
  std::vector<std::weak_ptr<CheckedBarrier>> barriers_;  // guarded by mu_
};

}  // namespace detail

/// RAII cancellation scope, created inside a task. Tasks spawned by the
/// current task (and, transitively, by those tasks) while the scope is
/// alive belong to it. Destroying the handle does NOT cancel the scope —
/// it only stops new spawns from joining it; state lives on until the last
/// member task drains.
class CancellationScope {
 public:
  enum class OnFault : std::uint8_t {
    Cancel,  ///< any member task's uncaught failure cancels the scope
    Ignore,  ///< only explicit cancel() cancels
  };

  explicit CancellationScope(OnFault mode = OnFault::Cancel);
  ~CancellationScope();
  CancellationScope(const CancellationScope&) = delete;
  CancellationScope& operator=(const CancellationScope&) = delete;

  /// Cancels every member task (idempotent; safe from any thread).
  void cancel(std::exception_ptr cause = {}) { state_->cancel(std::move(cause)); }

  bool cancelled() const { return state_->cancelled(); }
  std::exception_ptr cause() const { return state_->cause(); }
  std::uint64_t tasks_cancelled() const { return state_->tasks_cancelled(); }

 private:
  TaskBase* task_;  // the task the scope was opened in
  std::shared_ptr<detail::CancelState> state_;
  std::shared_ptr<detail::CancelState> prev_;  // restored on destruction
};

/// True when the current task has been asked to cancel (cooperative flag —
/// long-running loops should poll this or call check_cancelled()).
/// False outside a task context.
bool cancel_requested();

/// Throws CancelledError (carrying the scope's originating fault) when the
/// current task has been asked to cancel; otherwise a no-op.
void check_cancelled();

}  // namespace tj::runtime
