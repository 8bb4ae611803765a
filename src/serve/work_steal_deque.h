#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/serve/mpmc_queue.h"
#include "src/util/status.h"

/// \file work_steal_deque.h
/// Bounded Chase–Lev work-stealing deque: the per-worker task store of the
/// serve executor. The OWNER worker pushes and pops at the bottom (LIFO —
/// freshly fanned-out component tasks run while their request state is hot),
/// while THIEVES steal from the top (FIFO — the oldest task, the one the
/// owner would reach last). This is the weak-memory formulation of Lê,
/// Pop, Cohen & Zappa Nardelli (PPoPP'13), restricted to a fixed-capacity
/// ring: PushBottom reports failure when the deque is full instead of
/// growing, so the caller (the executor) can fall back to its injection
/// queue and the memory bound is preserved.
///
/// Why the races are benign: `top` only ever advances through a successful
/// compare-exchange, so at most one thief consumes any cell, and the owner's
/// bottom decrement plus the seq_cst fence arbitrates the last-element race
/// between PopBottom and a concurrent TrySteal — exactly one side wins the
/// CAS. Cells hold the payload through a std::atomic pointer, so every
/// cross-thread cell access is an atomic load/store (TSan-clean by
/// construction, not by suppression).
///
/// Ownership: the deque stores heap nodes (unique_ptr in, unique_ptr out).
/// Nodes left in the deque at destruction are deleted.

namespace phom::serve {

template <class T>
class WorkStealDeque {
 public:
  /// Capacity rounds up to a power of two, minimum 2 (same contract as
  /// MpmcQueue so the executor can budget the two structures together).
  explicit WorkStealDeque(size_t min_capacity) {
    PHOM_CHECK_MSG(min_capacity <= (size_t{1} << 31),
                   "WorkStealDeque capacity request too large: "
                       << min_capacity);
    size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<std::atomic<T*>[]>(cap);
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].store(nullptr, std::memory_order_relaxed);
    }
  }

  WorkStealDeque(const WorkStealDeque&) = delete;
  WorkStealDeque& operator=(const WorkStealDeque&) = delete;

  ~WorkStealDeque() {
    std::unique_ptr<T> node;
    while (PopBottom(&node)) node.reset();
  }

  size_t capacity() const { return mask_ + 1; }

  /// Owner only. False when full (the node is left with the caller).
  bool PushBottom(std::unique_ptr<T>& node) {
    const uint64_t b = bottom_.load(std::memory_order_relaxed);
    const uint64_t t = top_.load(std::memory_order_acquire);
    if (b - t > mask_) return false;  // full
    cells_[b & mask_].store(node.release(), std::memory_order_relaxed);
    // Publish: a thief that observes bottom > t also observes the cell.
    bottom_.store(b + 1, std::memory_order_release);
    return true;
  }

  /// Owner only. LIFO: pops the most recently pushed node. False when empty.
  bool PopBottom(std::unique_ptr<T>* out) {
    uint64_t b = bottom_.load(std::memory_order_relaxed);
    uint64_t t = top_.load(std::memory_order_relaxed);
    if (b <= t) return false;  // empty (owner's view of bottom is exact)
    b -= 1;
    // The store-load ordering between this bottom write and the top re-read
    // below is what closes the owner/thief race window (Lê et al. use an
    // explicit seq_cst fence; a seq_cst store + seq_cst load is equivalent
    // here and keeps every access on the variables themselves).
    bottom_.store(b, std::memory_order_seq_cst);
    t = top_.load(std::memory_order_seq_cst);
    if (t < b) {
      // More than one element: the bottom one is unreachable to thieves.
      out->reset(cells_[b & mask_].load(std::memory_order_relaxed));
      return true;
    }
    bool got = false;
    if (t == b) {
      // Exactly one element: race thieves for it through the top CAS.
      if (top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
        out->reset(cells_[b & mask_].load(std::memory_order_relaxed));
        got = true;
      }
    }
    bottom_.store(b + 1, std::memory_order_relaxed);  // restore: empty state
    return got;
  }

  /// Any thread. FIFO: steals the OLDEST node. False when empty or when the
  /// steal lost a race (callers treat both as "try elsewhere").
  bool TrySteal(std::unique_ptr<T>* out) {
    uint64_t t = top_.load(std::memory_order_acquire);
    const uint64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return false;  // empty
    // Reading the cell before the CAS is safe: the owner cannot overwrite
    // index t until top has advanced past it (PushBottom checks fullness
    // against top), and the CAS fails if any other consumer took it first.
    T* node = cells_[t & mask_].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return false;  // lost the race to another thief or the owner
    }
    out->reset(node);
    return true;
  }

 private:
  std::unique_ptr<std::atomic<T*>[]> cells_;
  size_t mask_ = 0;
  alignas(kCacheLine) std::atomic<uint64_t> top_{0};     ///< next steal slot
  alignas(kCacheLine) std::atomic<uint64_t> bottom_{0};  ///< next push slot
};

}  // namespace phom::serve
