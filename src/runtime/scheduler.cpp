#include "runtime/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "runtime/errors.hpp"
#include "runtime/fault_injection.hpp"

namespace tj::runtime {

namespace {
thread_local TaskBase* t_current = nullptr;
thread_local bool t_is_worker = false;

std::atomic<std::uint64_t> g_next_scheduler_id{1};

// Per-thread xorshift for picking the first steal victim, so idle workers
// spread over the lanes instead of all probing lane 0 first.
std::uint32_t steal_rand() {
  thread_local std::uint32_t s =
      static_cast<std::uint32_t>(
          std::hash<std::thread::id>{}(std::this_thread::get_id())) |
      1u;
  s ^= s << 13;
  s ^= s >> 17;
  s ^= s << 5;
  return s;
}

// Idle workers allowed to spin over the deques at once; the others park.
// Blocking-mode compensation can grow the pool to dozens of threads, and
// letting each of them spin starves the workers that hold the work.
constexpr unsigned kMaxSearchers = 2;

// Steal passes a searcher makes over every lane before it parks; it yields
// the CPU between passes.
constexpr unsigned kSearchPasses = 16;
}  // namespace

thread_local Scheduler::LaneRef Scheduler::tls_lane_;

TaskBase* current_task_or_null() { return t_current; }

TaskBase& current_task() {
  if (t_current == nullptr) {
    throw UsageError(
        "operation requires a task context (use Runtime::root or call from "
        "within a task)");
  }
  return *t_current;
}

namespace detail {
CurrentTaskGuard::CurrentTaskGuard(TaskBase* t)
    : prev_(t_current), prev_ctx_(obs::tls_request_context()) {
  t_current = t;
  obs::tls_request_context() =
      t != nullptr ? t->request_context() : obs::RequestContext{};
}
CurrentTaskGuard::~CurrentTaskGuard() {
  t_current = prev_;
  obs::tls_request_context() = prev_ctx_;
}
}  // namespace detail

Scheduler::Scheduler(SchedulerMode mode, unsigned workers,
                     unsigned max_threads, FaultInjector* injector,
                     obs::FlightRecorder* rec)
    : id_(g_next_scheduler_id.fetch_add(1, std::memory_order_relaxed)),
      mode_(mode),
      target_parallelism_(workers),
      max_threads_(std::max(max_threads, workers)),
      injector_(injector),
      rec_(rec),
      lane_capacity_(std::size_t{max_threads_} + 1),
      lane_slots_(new std::atomic<Lane*>[lane_capacity_]) {
  std::scoped_lock lock(mu_);
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) add_worker_locked();
}

Scheduler::~Scheduler() { shutdown(); }

void Scheduler::shutdown() {
  // Compensation workers are only added while tasks run; by the time the
  // scheduler shuts down the runtime has quiesced, so the thread list is
  // stable once stop_ is visible.
  std::vector<std::thread> threads;
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
    threads.swap(threads_);
  }
  cv_.notify_all();
  for (std::thread& t : threads) t.join();
  // Every worker is gone and nothing spawns any more: the entries left are
  // tasks claimed elsewhere that no thread took. Drop their references now,
  // while the runtime that owns those tasks is still whole.
  for (const auto& lane : lanes_) {
    while (TaskBase* entry = lane->steal()) take(entry);
  }
}

Scheduler::Lane* Scheduler::add_lane_locked() {
  const std::size_t n = lane_count_.load(std::memory_order_relaxed);
  assert(n < lane_capacity_);
  lanes_.push_back(std::make_unique<Lane>());
  Lane* lane = lanes_.back().get();
  lane_slots_[n].store(lane, std::memory_order_release);
  lane_count_.store(n + 1, std::memory_order_release);
  return lane;
}

void Scheduler::add_worker_locked(Lane* adopt) {
  Lane* lane = adopt != nullptr ? adopt : add_lane_locked();
  // Registered here, not on the new thread, so the board counts the worker
  // from the moment it exists: a snapshot taken right after a short run
  // must not miss workers whose threads had not been scheduled yet.
  obs::WorkerSlot* slot = worker_states_.register_worker();
  threads_.emplace_back([this, lane, slot] { worker_loop(lane, slot); });
}

void Scheduler::record_compensation_locked() {
  if (rec_ == nullptr) return;
  rec_->metrics().compensation_spawns.fetch_add(1, std::memory_order_relaxed);
  obs::Event e;
  e.kind = obs::EventKind::SchedCompensate;
  const TaskBase* cur = current_task_or_null();
  e.actor = cur != nullptr ? cur->uid() : 0;
  e.payload = live_workers_locked();
  rec_->emit(e);
}

void Scheduler::block_worker_locked() {
  ++blocked_workers_;
  if (!stop_ &&
      live_workers_locked() - blocked_workers_ < target_parallelism_ &&
      live_workers_locked() < max_threads_) {
    add_worker_locked();
    record_compensation_locked();
  }
}

unsigned Scheduler::thread_count() const {
  std::scoped_lock lock(mu_);
  return static_cast<unsigned>(threads_.size());
}

std::uint64_t Scheduler::tasks_executed() const {
  return executed_.load(std::memory_order_relaxed);
}

std::uint64_t Scheduler::tasks_inlined() const {
  return inlined_.load(std::memory_order_relaxed);
}

std::shared_ptr<TaskBase> Scheduler::take(TaskBase* entry) {
  return std::move(entry->queued_ref_);
}

Scheduler::Lane* Scheduler::own_lane() const {
  return tls_lane_.sched == id_ ? tls_lane_.lane : nullptr;
}

Scheduler::Lane* Scheduler::own_lane_for_push() {
  if (tls_lane_.sched == id_) return tls_lane_.lane;
  // First spawn from a thread outside the pool: the runtime's root thread,
  // since spawning needs a current task of this runtime.
  Lane* lane = nullptr;
  {
    std::scoped_lock lock(mu_);
    lane = add_lane_locked();
  }
  tls_lane_ = {id_, lane};
  return lane;
}

void Scheduler::submit(std::shared_ptr<TaskBase> task) {
  live_tasks_.fetch_add(1, std::memory_order_relaxed);
  Lane* lane = own_lane_for_push();
  TaskBase* entry = task.get();
  entry->queued_ref_ = std::move(task);
  push_entry(lane, entry);
}

void Scheduler::push_entry(Lane* lane, TaskBase* entry) {
  lane->push(entry);  // seq_cst: the store half of the handshake
  if (searching_.load(std::memory_order_seq_cst) == 0 &&
      sleepers_.load(std::memory_order_seq_cst) != 0) {
    wake_one(/*if_unsearched=*/true);
  }
}

void Scheduler::wake_one(bool if_unsearched) {
  {
    std::scoped_lock lock(mu_);
    // Sleepers register, recheck and wait under mu_, so every one counted
    // here without a permit is waiting on cv_.
    if (stop_ || sleepers_.load(std::memory_order_relaxed) <= wake_permits_) {
      return;
    }
    if (if_unsearched && searching_.load(std::memory_order_seq_cst) != 0) {
      return;
    }
    ++wake_permits_;
    // Counted as searching from now on, so the spawns that follow do not
    // each wake another worker before this one is even running.
    searching_.fetch_add(1, std::memory_order_seq_cst);
  }
  cv_.notify_one();
}

void Scheduler::end_search(bool found) {
  // The last searcher to find work hands the search on: more may be queued
  // behind what it found, and spawns seen while it searched woke nobody.
  if (searching_.fetch_sub(1, std::memory_order_seq_cst) == 1 && found) {
    wake_one(/*if_unsearched=*/false);
  }
}

TaskBase* Scheduler::steal_any(const Lane* skip) {
  const std::size_t n = lane_count_.load(std::memory_order_acquire);
  if (n == 0) return nullptr;
  const std::size_t start = steal_rand() % n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = start + i < n ? start + i : start + i - n;
    Lane* lane = lane_slots_[k].load(std::memory_order_acquire);
    if (lane == skip) continue;
    if (TaskBase* entry = lane->steal()) return entry;
  }
  return nullptr;
}

TaskBase* Scheduler::next_entry(Lane* lane, obs::WorkerSlot* slot) {
  if (TaskBase* entry = lane->pop()) return entry;
  unsigned n = searching_.load(std::memory_order_relaxed);
  bool searching = false;
  while (!searching && n < kMaxSearchers) {
    searching = searching_.compare_exchange_weak(n, n + 1,
                                                 std::memory_order_seq_cst);
  }
  while (true) {
    if (searching) {
      slot->set_state(obs::WorkerState::Stealing);
      TaskBase* entry = nullptr;
      for (unsigned pass = 0; pass < kSearchPasses; ++pass) {
        entry = steal_any(lane);
        if (entry != nullptr) break;
        std::this_thread::yield();
      }
      end_search(entry != nullptr);
      if (entry != nullptr) return entry;
    }
    std::unique_lock lock(mu_);
    if (stop_) return nullptr;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    // Recheck after registering: a spawn that this scan misses reads the
    // sleeper count afterwards and wakes someone.
    if (TaskBase* entry = steal_any(lane)) {
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      lock.unlock();
      // Spawns that saw a searcher woke nobody, and that searcher may be
      // the one that just gave up: more may be queued behind this entry,
      // and this worker may block inside it. Hand the search on.
      wake_one(/*if_unsearched=*/true);
      return entry;
    }
    slot->set_state(obs::WorkerState::Idle);
    cv_.wait(lock, [this] { return stop_ || wake_permits_ > 0; });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (stop_) return nullptr;
    --wake_permits_;
    searching = true;  // wake_one counted this worker in searching_
  }
}

void Scheduler::worker_loop(Lane* lane, obs::WorkerSlot* slot) {
  t_is_worker = true;
  tls_lane_ = {id_, lane};
  // The TLS slot lets profiled locks report BlockedLock while this thread
  // waits on a contended runtime mutex.
  obs::tls_worker_slot() = slot;
  while (TaskBase* entry = next_entry(lane, slot)) {
    std::shared_ptr<TaskBase> task = take(entry);
    if (task->try_claim()) {
      run_claimed(*task);
    }
    // else: a cooperative joiner inlined it or a cancel completed it.
    task.reset();
    if (injector_ == nullptr) continue;
    std::scoped_lock lock(mu_);
    if (!stop_ && injector_->should_kill_worker()) {
      // Injected worker death — always at a task boundary, never mid-task.
      // Spawn the replacement before exiting (crash + supervisor restart),
      // so pool parallelism and liveness are preserved; it adopts this
      // worker's lane, entries included. Our std::thread object stays in
      // threads_ until shutdown; dead_workers_ keeps the live count honest
      // for compensation decisions.
      ++dead_workers_;
      add_worker_locked(lane);
      if (rec_ != nullptr) {
        obs::Event e;
        e.kind = obs::EventKind::WorkerDeath;
        e.payload = live_workers_locked();
        rec_->emit(e);
      }
      break;
    }
  }
  slot->set_state(obs::WorkerState::Idle);
}

void Scheduler::run_claimed(TaskBase& task) {
  {
    // Scoped so nesting composes: a cooperative joiner inlining a target
    // stays Running, and the restore puts back whatever state the joiner
    // was in (BlockedJoin when helping from inside a wait loop).
    obs::ScopedWorkerState running(obs::tls_worker_slot(),
                                   obs::WorkerState::Running);
    detail::CurrentTaskGuard guard(&task);
    task.run();
  }
  executed_.fetch_add(1, std::memory_order_relaxed);
  note_task_done();
}

void Scheduler::run_inline(TaskBase& target) {
  inlined_.fetch_add(1, std::memory_order_relaxed);
  if (rec_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::SchedInline;
    const TaskBase* cur = current_task_or_null();
    e.actor = cur != nullptr ? cur->uid() : 0;
    e.target = target.uid();
    rec_->emit(e);
  }
  run_claimed(target);
}

void Scheduler::trim_own_lane() {
  Lane* lane = own_lane();
  if (lane == nullptr) return;
  // An entry is only looked at once popped: while it sits in the deque a
  // thief may take it and drop the last reference to its task.
  while (TaskBase* entry = lane->pop()) {
    if (entry->state() == TaskState::Queued) {
      // Still runnable: put it back. While it was popped, steals and the
      // parking recheck could not see it, so a worker may have parked
      // past it; push_entry wakes one in that case, as a spawn would.
      push_entry(lane, entry);
      return;
    }
    take(entry);  // claimed elsewhere: drop the entry's reference
  }
}

void Scheduler::note_task_done() {
  if (live_tasks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::scoped_lock lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
}

void Scheduler::join_wait(TaskBase& target) {
  if (mode_ == SchedulerMode::Cooperative) {
    if (!target.done() && target.try_claim()) {
      run_inline(target);
    } else {
      // try_claim can only fail when the target is Running or Done; Done
      // wakes us via notify_all, Running will reach Done on its own thread.
      // Interruptible: in async (optimistic) mode the recovery supervisor
      // may break this wait — the throw propagates to the gate's leave_join.
      obs::ScopedWorkerState blocked(obs::tls_worker_slot(),
                                     obs::WorkerState::BlockedJoin);
      target.wait_done_interruptible(current_task_or_null());
    }
    trim_own_lane();
    return;
  }

  // Blocking mode: never help; preserve parallelism with compensation
  // workers while this worker blocks.
  if (t_is_worker) {
    {
      std::scoped_lock lock(mu_);
      block_worker_locked();
    }
    try {
      obs::ScopedWorkerState blocked(obs::tls_worker_slot(),
                                     obs::WorkerState::BlockedJoin);
      target.wait_done_interruptible(current_task_or_null());
    } catch (...) {
      std::scoped_lock lock(mu_);
      --blocked_workers_;
      throw;
    }
    std::scoped_lock lock(mu_);
    --blocked_workers_;
  } else {
    target.wait_done_interruptible(current_task_or_null());
  }
}

bool Scheduler::join_wait_for(TaskBase& target,
                              std::chrono::nanoseconds timeout) {
  if (mode_ == SchedulerMode::Cooperative) {
    bool done = true;
    if (!target.done() && target.try_claim()) {
      // Inline help ignores the deadline on purpose: the joiner is executing
      // the very work it wants, so there is nothing to time out on.
      run_inline(target);
    } else {
      obs::ScopedWorkerState blocked(obs::tls_worker_slot(),
                                     obs::WorkerState::BlockedJoin);
      done = target.wait_done_for_interruptible(timeout,
                                                current_task_or_null());
    }
    trim_own_lane();
    return done;
  }

  // Blocking mode: same compensation bracket as join_wait, bounded wait.
  if (t_is_worker) {
    {
      std::scoped_lock lock(mu_);
      block_worker_locked();
    }
    bool done = false;
    try {
      obs::ScopedWorkerState blocked(obs::tls_worker_slot(),
                                     obs::WorkerState::BlockedJoin);
      done =
          target.wait_done_for_interruptible(timeout, current_task_or_null());
    } catch (...) {
      std::scoped_lock lock(mu_);
      --blocked_workers_;
      throw;
    }
    std::scoped_lock lock(mu_);
    --blocked_workers_;
    return done;
  }
  return target.wait_done_for_interruptible(timeout, current_task_or_null());
}

void Scheduler::enter_blocking_region() {
  if (!t_is_worker) return;
  if (obs::WorkerSlot* slot = obs::tls_worker_slot()) {
    slot->set_state(obs::WorkerState::BlockedJoin);
  }
  std::scoped_lock lock(mu_);
  block_worker_locked();
}

void Scheduler::exit_blocking_region() {
  if (!t_is_worker) return;
  {
    std::scoped_lock lock(mu_);
    --blocked_workers_;
  }
  if (obs::WorkerSlot* slot = obs::tls_worker_slot()) {
    // A blocking region only brackets waits performed from inside a task
    // body on a worker thread, so the state to restore is Running.
    slot->set_state(obs::WorkerState::Running);
  }
}

void Scheduler::quiesce() {
  std::unique_lock lock(quiesce_mu_);
  quiesce_cv_.wait(lock, [this] {
    return live_tasks_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace tj::runtime
