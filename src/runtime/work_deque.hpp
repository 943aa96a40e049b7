#pragma once
// Chase–Lev work-stealing deque (Chase & Lev, SPAA 2005), in the all-seq_cst
// form of its top/bottom protocol so that ThreadSanitizer, which does not
// model stand-alone fences, sees every ordering it relies on.
//
// One owner thread pushes and pops at the bottom (LIFO). Any thread steals
// from the top, oldest first. Every operation is lock-free; the owner grows
// the ring by doubling when it is full. A retired ring stays allocated until
// the deque dies, because a thief that loaded it may still read a cell.
//
// Elements are raw pointers and the deque never dereferences them. Each
// pushed pointer comes back out of exactly one pop() or steal(), which is
// what lets a caller hand an owned reference through the deque.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace tj::runtime {

template <typename T>
class WorkDeque {
 public:
  explicit WorkDeque(std::size_t initial_capacity = 64) {
    std::size_t cap = 2;
    while (cap < initial_capacity) cap *= 2;
    rings_.push_back(std::make_unique<Ring>(cap));
    ring_.store(rings_.back().get(), std::memory_order_relaxed);
  }
  WorkDeque(const WorkDeque&) = delete;
  WorkDeque& operator=(const WorkDeque&) = delete;

  /// Owner only. The seq_cst store of `bottom_` also serves as the store
  /// half of the scheduler's Dekker handshake with parking workers.
  void push(T* x) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* r = ring_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(r->capacity())) r = grow(r, t, b);
    r->put(b, x);
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  /// Owner only: the newest element, or nullptr when empty (or when a thief
  /// won the race for the last one).
  T* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* r = ring_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // was empty
      bottom_.store(b + 1, std::memory_order_release);
      return nullptr;
    }
    T* x = r->get(b);
    if (t == b) {  // the last element: race the thieves for it
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        x = nullptr;
      }
      bottom_.store(b + 1, std::memory_order_release);
    }
    return x;
  }

  /// Any thread: the oldest element, or nullptr when the deque is empty.
  /// A lost race with another taker retries, so nullptr means empty.
  T* steal() {
    while (true) {
      std::int64_t t = top_.load(std::memory_order_seq_cst);
      const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
      if (t >= b) return nullptr;
      T* x = ring_.load(std::memory_order_acquire)->get(t);
      if (top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
        return x;
      }
    }
  }

  /// Owner only (or quiescent): the current ring capacity.
  std::size_t capacity() const {
    return ring_.load(std::memory_order_relaxed)->capacity();
  }

 private:
  class Ring {
   public:
    explicit Ring(std::size_t cap)
        : mask_(cap - 1), cells_(new std::atomic<T*>[cap]) {}
    std::size_t capacity() const { return mask_ + 1; }
    T* get(std::int64_t i) const {
      return cells_[static_cast<std::size_t>(i) & mask_].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T* x) {
      cells_[static_cast<std::size_t>(i) & mask_].store(
          x, std::memory_order_relaxed);
    }

   private:
    const std::size_t mask_;
    std::unique_ptr<std::atomic<T*>[]> cells_;
  };

  Ring* grow(Ring* old, std::int64_t t, std::int64_t b) {
    rings_.push_back(std::make_unique<Ring>(old->capacity() * 2));
    Ring* r = rings_.back().get();
    for (std::int64_t i = t; i < b; ++i) r->put(i, old->get(i));
    ring_.store(r, std::memory_order_release);
    return r;
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> ring_{nullptr};
  std::vector<std::unique_ptr<Ring>> rings_;  // owner only; every ring made
};

}  // namespace tj::runtime
