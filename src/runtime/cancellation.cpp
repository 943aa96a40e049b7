#include "runtime/cancellation.hpp"

#include <utility>

#include "runtime/barrier.hpp"
#include "runtime/errors.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task.hpp"

namespace tj::runtime {

namespace detail {

namespace {
// Each thread keeps to one stripe; threads are dealt stripes round-robin.
std::size_t stripe_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}
}  // namespace

CancelState::CancelState(bool cancel_on_fault,
                         std::shared_ptr<CancelState> parent,
                         const TaskBase* owner)
    : cancel_on_fault_(cancel_on_fault),
      parent_(std::move(parent)),
      owner_(owner) {}

std::exception_ptr CancelState::cause() const {
  for (const CancelState* s = this; s != nullptr; s = s->parent_.get()) {
    if (s->cancelled_.load(std::memory_order_acquire)) {
      std::scoped_lock lock(s->mu_);
      if (s->cause_) return s->cause_;
    }
  }
  return nullptr;
}

void CancelState::cancel(std::exception_ptr cause) {
  bool expected = false;
  if (!cancelled_.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
    return;  // idempotent: first canceller wins
  }
  std::vector<std::weak_ptr<CancelState>> children;
  std::vector<std::weak_ptr<CheckedBarrier>> barriers;
  {
    std::scoped_lock lock(mu_);
    cause_ = cause;
    children.swap(children_);
    barriers.swap(barriers_);
  }
  for (Stripe& stripe : stripes_) {
    std::vector<std::weak_ptr<TaskBase>> tasks;
    {
      std::scoped_lock lock(stripe.mu);
      tasks.swap(stripe.tasks);
    }
    for (const auto& wt : tasks) {
      if (auto t = wt.lock()) {
        if (t->deliver_cancel(cause)) {
          tasks_cancelled_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  const auto poison = std::make_exception_ptr(
      CancelledError("barrier poisoned: its cancellation scope cancelled",
                     cause));
  for (const auto& wb : barriers) {
    if (auto b = wb.lock()) b->poison(poison);
  }
  for (const auto& wc : children) {
    if (auto c = wc.lock()) c->cancel(cause);
  }
}

void CancelState::on_task_fault(const std::exception_ptr& error) {
  if (cancel_on_fault_) cancel(error);
}

void CancelState::track_task(const std::shared_ptr<TaskBase>& t) {
  Stripe& stripe = stripes_[stripe_index() % kStripes];
  {
    std::scoped_lock lock(stripe.mu);
    std::vector<std::weak_ptr<TaskBase>>& tasks = stripe.tasks;
    if (tasks.size() == tasks.capacity()) {
      // Amortized prune so a long-lived scope does not accumulate tombstones.
      std::erase_if(tasks,
                    [](const std::weak_ptr<TaskBase>& w) { return w.expired(); });
    }
    tasks.push_back(t);
  }
  // Post-check closes the race with a concurrent cancel(): if the insert
  // missed the canceller's sweep of this stripe, the flag is already visible
  // here and we deliver ourselves (deliver_cancel's claim CAS makes doubles
  // harmless).
  if (cancelled()) {
    if (t->deliver_cancel(cause())) {
      tasks_cancelled_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void CancelState::track_child(const std::shared_ptr<CancelState>& child) {
  {
    std::scoped_lock lock(mu_);
    children_.push_back(child);
  }
  if (cancelled()) child->cancel(cause());
}

void CancelState::track_barrier(const std::weak_ptr<CheckedBarrier>& b) {
  {
    std::scoped_lock lock(mu_);
    barriers_.push_back(b);
  }
  if (cancelled()) {
    if (auto barrier = b.lock()) {
      barrier->poison(std::make_exception_ptr(CancelledError(
          "barrier poisoned: its cancellation scope cancelled", cause())));
    }
  }
}

}  // namespace detail

CancellationScope::CancellationScope(OnFault mode)
    : task_(&current_task()),
      state_(std::make_shared<detail::CancelState>(mode == OnFault::Cancel,
                                                   task_->scope_, task_)),
      prev_(task_->scope_) {
  task_->scope_ = state_;
  if (prev_ != nullptr) prev_->track_child(state_);
}

CancellationScope::~CancellationScope() { task_->scope_ = prev_; }

bool cancel_requested() {
  const TaskBase* t = current_task_or_null();
  return t != nullptr && t->cancel_requested();
}

void check_cancelled() {
  const TaskBase* t = current_task_or_null();
  if (t != nullptr && t->cancel_requested()) {
    throw CancelledError("task cancelled: its cancellation scope cancelled",
                         t->cancel_scope() ? t->cancel_scope()->cause()
                                           : nullptr);
  }
}

}  // namespace tj::runtime
