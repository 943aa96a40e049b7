#pragma once
// Work-stealing scheduler with the two join disciplines of HJ's runtimes
// (paper footnote 4):
//   Blocking    — a worker blocks in join; compensation workers (up to a cap)
//                 keep the pool busy;
//   Cooperative — a joiner claims a still-queued target and runs it inline
//                 (help-first); it blocks only on an already-running target.
//
// Queues. Every pool thread, and every other thread that spawns (the root
// thread), owns one Chase–Lev deque (runtime/work_deque.hpp). A spawn pushes
// onto the spawning thread's own deque; its owner pops newest first, and
// idle workers steal from the other deques oldest first. Spawn and steal take
// no shared lock. An entry holds one reference to its task, dropped by
// whoever takes the entry; an entry whose task was already claimed (inlined
// by its joiner, or force-completed by cancellation) is discarded. After a
// cooperative join returns, the joiner trims claimed entries off its own
// bottom, so inlined tasks are not left for thieves to find. The first
// unclaimed entry it pops goes back with a spawn's wake check, since no
// thief could see it while it was out.
//
// Parking. At most two idle workers spin over the deques at once; the rest
// park on the pool lock's condition variable. A spawn wakes a parked worker
// only when nobody is searching. A worker that takes an entry as the last
// searcher, or in the recheck below while nobody searches, wakes one more,
// so wake-ups ramp up with available work and a worker that blocks inside
// the entry it took never strands the entries behind it. A parking worker
// registers as a sleeper and then rechecks every deque; that recheck pairs
// with the spawn's push-then-read of the sleeper count (all seq_cst), so no
// spawn is left with every worker asleep.
//
// Progress argument for Cooperative (given task-level deadlock freedom,
// which the TJ policy guarantees): a blocked joiner waits on a *running*
// task; every running task sits on some thread whose stack top is either
// executing (progress) or itself blocked on a running task; following that
// chain must terminate because the task waits-for graph is acyclic. A queued
// task is never stranded: it sits in some deque that every searching or
// parking worker scans, whether or not the deque's owner is blocked.

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/contention.hpp"
#include "runtime/config.hpp"
#include "runtime/task.hpp"
#include "runtime/work_deque.hpp"

namespace tj::runtime {

class FaultInjector;

class Scheduler {
 public:
  /// `injector` (may be nullptr) supplies worker-death faults: a worker
  /// asked to die exits at a task boundary and the pool respawns a
  /// replacement, modelling thread crash + supervisor restart.
  /// `rec` (may be nullptr) records inline-help, compensation-growth and
  /// worker-death incidents into the flight recorder.
  Scheduler(SchedulerMode mode, unsigned workers, unsigned max_threads,
            FaultInjector* injector = nullptr,
            obs::FlightRecorder* rec = nullptr);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues a spawned task.
  void submit(std::shared_ptr<TaskBase> task);

  /// Waits until `target` terminates, per the configured mode. Called with
  /// the joining task's context current; the policy check already passed.
  void join_wait(TaskBase& target);

  /// Deadline variant: waits at most `timeout`; true iff the target
  /// terminated. A cooperative joiner that wins the inline claim runs the
  /// target to completion regardless of the deadline (it is making progress,
  /// not blocked — the timeout bounds *waiting*, not work) and returns true.
  bool join_wait_for(TaskBase& target, std::chrono::nanoseconds timeout);

  /// Live (submitted, not yet terminated) task count — the governor's and
  /// the spawn-backpressure watermark's admission signal.
  std::size_t live_tasks() const {
    return live_tasks_.load(std::memory_order_relaxed);
  }

  /// Blocks until every submitted task has terminated.
  void quiesce();

  /// Stops and joins every worker, then drops the entries still queued
  /// (already-claimed tasks nobody took yet). Idempotent; the destructor
  /// calls it. Pre: quiesced — nothing may be spawned or running.
  void shutdown();

  /// Brackets a blocking wait performed OUTSIDE join_wait (e.g. a barrier
  /// await): when the caller is a worker thread, the pool may grow a
  /// compensation worker so queued tasks keep running — in both scheduler
  /// modes, since cooperative inlining cannot help with non-join blocking.
  void enter_blocking_region();
  void exit_blocking_region();

  SchedulerMode mode() const { return mode_; }
  unsigned thread_count() const;
  std::uint64_t tasks_executed() const;
  std::uint64_t tasks_inlined() const;

  /// Per-worker state timelines (Running / BlockedJoin / BlockedLock /
  /// Stealing / Idle). State words are always published; the timelines are
  /// timed only while contention profiling is enabled (see obs/contention).
  const obs::WorkerStateBoard& worker_states() const {
    return worker_states_;
  }

 private:
  friend class Runtime;

  /// One owner thread's deque. A worker's lane passes to its replacement
  /// when it dies; any other lane belongs to the thread that first spawned
  /// into this scheduler from outside the pool (the root thread).
  using Lane = WorkDeque<TaskBase>;

  void worker_loop(Lane* lane, obs::WorkerSlot* slot);
  /// The worker's next entry: its own bottom, else a steal, else it parks.
  /// nullptr once the scheduler stops.
  TaskBase* next_entry(Lane* lane, obs::WorkerSlot* slot);
  /// Takes the oldest entry of any lane but `skip`, starting at a random
  /// lane; nullptr when every lane looked empty.
  TaskBase* steal_any(const Lane* skip);
  /// Takes the reference an entry held (the caller becomes its owner).
  static std::shared_ptr<TaskBase> take(TaskBase* entry);
  /// Pushes an entry onto the calling thread's `lane` and wakes a parked
  /// worker when nobody is searching (the spawn side of the handshake).
  void push_entry(Lane* lane, TaskBase* entry);
  /// Wakes one parked worker as a searcher, unless nobody is parked or
  /// (`if_unsearched`) a worker is already searching.
  void wake_one(bool if_unsearched);
  void end_search(bool found);
  /// Pops claimed entries off the calling thread's own bottom.
  void trim_own_lane();
  /// The calling thread's lane in this scheduler; nullptr if it has none.
  Lane* own_lane() const;
  /// Like own_lane(), but registers a lane for a first-time spawner.
  Lane* own_lane_for_push();
  /// Creates a lane and publishes it to thieves (pre: mu_ held, and fewer
  /// than lane_capacity_ lanes exist).
  Lane* add_lane_locked();

  void run_claimed(TaskBase& task);
  void run_inline(TaskBase& target);
  void add_worker_locked(Lane* adopt = nullptr);  // pre: mu_ held
  void note_task_done();

  /// Counts the calling worker as blocked and grows a compensation worker
  /// when the unblocked ones fall below the target (pre: mu_ held).
  void block_worker_locked();

  /// Workers alive right now (pre: mu_ held). `threads_` keeps dead workers'
  /// std::thread objects until shutdown, so its size overcounts by
  /// `dead_workers_`; every liveness/compensation decision must use this, or
  /// after enough injected deaths the pool believes it has idle workers while
  /// every live one is blocked in a join — and queued tasks starve.
  std::size_t live_workers_locked() const {
    return threads_.size() - dead_workers_;
  }

  /// Records a compensation-worker spawn (pre: mu_ held, worker just added).
  void record_compensation_locked();

  // Thread-local lane binding, keyed by scheduler instance id rather than
  // by address: back-to-back schedulers on one stack reuse the address.
  struct LaneRef {
    std::uint64_t sched = 0;
    Lane* lane = nullptr;
  };
  static thread_local LaneRef tls_lane_;

  const std::uint64_t id_;
  const SchedulerMode mode_;
  const unsigned target_parallelism_;
  const unsigned max_threads_;
  FaultInjector* const injector_;  // not owned; nullptr ⇒ no fault injection
  obs::FlightRecorder* const rec_;  // not owned; nullptr ⇒ recording off

  // Lane directory that thieves scan without mu_; appended under mu_. Its
  // size is fixed up front: the pool makes at most max_threads_ lanes (a
  // dead worker's replacement adopts its lane), and the only other thread
  // that spawns into a runtime is its one root thread.
  const std::size_t lane_capacity_;
  const std::unique_ptr<std::atomic<Lane*>[]> lane_slots_;
  std::atomic<std::size_t> lane_count_{0};
  // Dekker pair with push_entry(): seq_cst, read there without mu_.
  std::atomic<unsigned> searching_{0};
  std::atomic<unsigned> sleepers_{0};  // changed under mu_ only

  // Pool lock, profiled as "sched.queue": parking and waking, compensation
  // and death bookkeeping, and lane registration. Spawn and steal never take
  // it. The condvars are condition_variable_any to wait on the wrapper type.
  mutable obs::ProfiledMutex mu_{"sched.queue"};
  std::condition_variable_any cv_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // guarded by mu_
  std::vector<std::thread> threads_;          // guarded by mu_
  std::size_t dead_workers_ = 0;              // guarded by mu_
  unsigned blocked_workers_ = 0;              // guarded by mu_
  unsigned wake_permits_ = 0;                 // guarded by mu_
  bool stop_ = false;                         // guarded by mu_

  obs::ProfiledMutex quiesce_mu_{"sched.quiesce"};
  std::condition_variable_any quiesce_cv_;
  std::atomic<std::size_t> live_tasks_{0};

  obs::WorkerStateBoard worker_states_;

  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> inlined_{0};
};

/// Thread-local task context (set around every task body execution,
/// including inline runs and the root task).
TaskBase* current_task_or_null();
TaskBase& current_task();  // throws UsageError when not in a task

namespace detail {
/// RAII compensation bracket around a non-join blocking wait (promise
/// awaits, barrier waits): exception-safe, unlike calling enter/exit by
/// hand.
class BlockingRegionGuard {
 public:
  explicit BlockingRegionGuard(Scheduler& s) : sched_(s) {
    sched_.enter_blocking_region();
  }
  ~BlockingRegionGuard() { sched_.exit_blocking_region(); }
  BlockingRegionGuard(const BlockingRegionGuard&) = delete;
  BlockingRegionGuard& operator=(const BlockingRegionGuard&) = delete;

 private:
  Scheduler& sched_;
};

/// RAII swap of the thread-local current task. Also swaps the obs-layer
/// request context so events emitted while `t` runs (including inline runs
/// on a joiner's stack) are attributed to t's request, not the host
/// thread's.
class CurrentTaskGuard {
 public:
  explicit CurrentTaskGuard(TaskBase* t);
  ~CurrentTaskGuard();
  CurrentTaskGuard(const CurrentTaskGuard&) = delete;
  CurrentTaskGuard& operator=(const CurrentTaskGuard&) = delete;

 private:
  TaskBase* prev_;
  obs::RequestContext prev_ctx_;
};
}  // namespace detail

}  // namespace tj::runtime
