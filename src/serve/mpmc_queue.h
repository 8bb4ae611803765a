#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/util/status.h"

/// \file mpmc_queue.h
/// Bounded multi-producer/multi-consumer FIFO in the style of Vyukov's
/// array-based queue: one atomic sequence number per cell arbitrates both
/// producers and consumers, so an enqueue/dequeue is a single CAS on the
/// shared head/tail counter plus cell-local acquire/release traffic — no
/// locks, no spinning on a global mutex (cf. the relaxed concurrent FIFOs
/// of Saalvage/block_based_queue, whose per-window bitsets play the role our
/// per-cell sequence numbers play here). FIFO is per-producer; the serve
/// layer never relies on cross-thread ordering (results go to preassigned
/// slots and are merged in index order), which is what makes the relaxation
/// acceptable.
///
/// TryPush/TryPop fail (return false) on a full/empty queue instead of
/// blocking; callers decide the policy (the executor runs tasks inline when
/// the queue is full, and sleeps on a condition variable when it is empty).

namespace phom::serve {

/// Destructive-interference distance. Pinned to 64 rather than
/// std::hardware_destructive_interference_size: the latter is an
/// ABI-unstable compile-time guess (GCC warns on its use in headers), and
/// 64 is the actual line size on every platform this library targets.
inline constexpr size_t kCacheLine = 64;

template <class T>
class MpmcQueue {
 public:
  /// Capacity is rounded up to a power of two so the cell index is a mask
  /// instead of a modulo. The minimum is 2: min_capacity values of 0 and 1
  /// both yield a 2-cell queue, and capacity() always reports the ROUNDED
  /// capacity (what TryPush can actually hold), never the requested one.
  /// Requests above 2^31 cells are rejected with a PHOM_CHECK: the doubling
  /// loop would overflow past the top power of two (cap << 1 wraps to 0 and
  /// the loop never terminates), and an allocation that large could not
  /// succeed anyway.
  explicit MpmcQueue(size_t min_capacity) {
    PHOM_CHECK_MSG(min_capacity <= (size_t{1} << 31),
                   "MpmcQueue capacity request too large: " << min_capacity);
    size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  size_t capacity() const { return mask_ + 1; }

  /// False when the queue is full.
  bool TryPush(T value) {
    Cell* cell;
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      size_t seq = cell->sequence.load(std::memory_order_acquire);
      intptr_t dif = static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full: the cell still holds an unconsumed value
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// False when the queue is empty.
  bool TryPop(T* out) {
    Cell* cell;
    size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      size_t seq = cell->sequence.load(std::memory_order_acquire);
      intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // empty: no producer has filled this cell yet
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    *out = std::move(cell->value);
    cell->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

 private:
  struct Cell {
    std::atomic<size_t> sequence;
    T value;
  };

  std::unique_ptr<Cell[]> cells_;
  size_t mask_ = 0;
  alignas(kCacheLine) std::atomic<size_t> tail_;  ///< next enqueue position
  alignas(kCacheLine) std::atomic<size_t> head_;  ///< next dequeue position
};

}  // namespace phom::serve
